"""Decision procedures for almost-sure reachability and Buchi winning.

The solver searches Eve's knowledge-only uniform strategies in canonical
order for the least one that wins.  A candidate is a tuple of action
bitmasks, one per knowledge in ``ka.knowledges`` order.  Fixing one turns
the game, from Adam's point of view, into a game against chance with a
safety (for reachability) or co-Buchi (for Buchi) objective; the
candidate is almost-surely winning exactly when Adam is not positively
winning there.
That depends on supports only, so a candidate is folded by looking up,
at every knowledge state ``(real, know)``, its support row of the action
set chosen at its knowledge; Adam's game carries no weighted arena (the
tests fold exact weights with their oracle ``dense_fold``).  Folds and
the proof of "no" build Adam's game with ``_adam_game`` and pick Adam's
analysis with ``_adam_positive``.  The paper's knowledge states also carry
the support Eve last played; the solver does without it, because the rows
do not read it and knowledge-only strategies cannot see it.

Adam refutes a losing candidate with a play that reads his game only at
the knowledge states of its footprint, and the fold's row there depends
only on the candidate's choice at their knowledges.  Every later candidate
that makes the same choices at those knowledges loses to the same play, so
the search jumps past all of them in one step, to the next canonical
position that changes one of those choices.  After the first refutation
that leaves positions to check, the search runs ``_refuted`` once: a
greatest fixpoint over the knowledge states that keeps every state a
winning candidate reaches, and so proves "no" when it drops the initial
state; the search then stops with the report a search without a winner
gives, caps included.  A debug solve runs the same search and lists a
diagnostic per Adam check, with the canonical positions it decides.  The
first successful candidate in canonical order is lowered to a
finite-memory witness on the base arena, whose memory is Eve's knowledge
alone: the next knowledge reads the support of the current knowledge's
choice, which the memory already determines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .bitset import bits, label, mask_of
from .errors import ResourceLimit, ValidationError
from .halfplayer import (
    DEFAULT_BELIEF_CAP,
    OneHalfGame,
    PositiveWinReport,
    positive_cobuchi,
    positive_safety,
)
from .knowledge import KnowledgeArena, build_knowledge_arena, lower_strategy
from .model import Arena, FiniteMemoryStrategy, Objective, validate_strategy

DEFAULT_CANDIDATE_CAP = 10**7


@dataclass(frozen=True)
class SolveReport:
    verdict: str | None  # None only in the partial report the CLI writes after a cap
    objective: Objective
    witness: FiniteMemoryStrategy | None
    witness_winning_knowledges: tuple[tuple[str, ...], ...]
    candidates_checked: int
    elapsed_ms: int
    diagnostics: tuple[dict, ...] | None = None


def candidate_count(ka: KnowledgeArena) -> int:
    """Closed form: (2^|eve actions| - 1) ** number of reachable knowledges."""
    k = len(ka.base.eve_actions)
    return ((1 << k) - 1) ** len(ka.knowledges)


def fix_candidate(ka: KnowledgeArena, cand: tuple[int, ...]) -> OneHalfGame:
    """Fold the candidate's uniform move into the knowledge arena.

    ``cand`` gives each knowledge of ``ka.knowledges``, in order, the
    bitmask of the action set Eve plays uniformly there.  The result is
    Adam's game against chance (``_adam_game``) in which each knowledge
    state's row is the support row of the set chosen at its knowledge.
    The game carries no weighted arena; the tests' oracle ``dense_fold``
    mixes the exact weights.  A tuple of the wrong length, or a mask outside
    1 to 2^k - 1, is invalid input.
    """
    m = (1 << len(ka.base.eve_actions)) - 1
    if len(cand) != len(ka.knowledges) or not 0 < min(cand) <= max(cand) <= m:
        raise ValidationError(
            f"candidate must give each of the {len(ka.knowledges)} knowledges an action set in 1..{m}"
        )
    return _adam_game(ka, tuple(rows[cand[j] - 1] for rows, j in zip(ka.post, ka.position)))


def _adam_game(ka: KnowledgeArena, post: tuple[tuple[int, ...], ...]) -> OneHalfGame:
    """Adam's game against chance on the knowledge states, ``post[u]`` the
    row of state u, with his observation refined by final-membership."""
    return OneHalfGame(
        actions=ka.base.adam_actions,
        post=post,
        cells=ka.adam_cells,
        final_mask=ka.final_mask,
        init=0,
    )


def _adam_positive(objective: Objective):
    """Adam's positive analysis against Eve's ``objective``: safety against
    reachability, co-Buchi against Buchi.  The names are read when called,
    so a wrapper bound in this module sees every call."""
    if objective is Objective.REACHABILITY:
        return positive_safety
    if objective is Objective.BUCHI:
        return positive_cobuchi
    raise ValidationError(f"no decision procedure for objective {objective.value!r}")


def check_candidate(
    ka: KnowledgeArena,
    cand: tuple[int, ...],
    objective: Objective,
    max_beliefs: int = DEFAULT_BELIEF_CAP,
) -> tuple[bool, PositiveWinReport]:
    """Returns (candidate almost-surely wins, Adam's report).

    The candidate wins exactly when Adam does not win its fold with
    positive probability from the initial state.
    """
    positive = _adam_positive(objective)
    game = fix_candidate(ka, cand)
    rep = positive(game, max_beliefs)
    return game.init not in rep.winning_states, rep


def _diag_entry(ka: KnowledgeArena, index: int, cand: tuple[int, ...], rep: PositiveWinReport, after: int) -> dict:
    base = ka.base
    return {
        "index": index,
        "next_index": after,
        "assignment": {
            label(base.states, know): [base.eve_actions[i] for i in bits(mask)]
            for know, mask in zip(ka.knowledges, cand)
        },
        "adam_positively_wins": 0 in rep.winning_states,  # state 0 is initial
        "adam_winning_states": len(rep.winning_states),
        "sure_beliefs": len(rep.sure_beliefs),
        "iterations": rep.iterations,
        # the memory of Adam's play lowered to a strategy: a step per path
        # action, then a belief per closure belief
        "adam_witness_memory": len(rep.play.path_actions) + len(rep.play.closure) if rep.play else None,
    }


def _candidate_at(ka: KnowledgeArena, index: int) -> tuple[int, ...]:
    """The candidate at canonical position ``index``.

    Canonical order is lexicographic: knowledges in construction order,
    action sets by ascending bitmask.  So the position's digits in base
    2^k - 1, knowledge 0 the most significant, choose the action sets: digit
    d the set of bitmask d + 1."""
    m = (1 << len(ka.base.eve_actions)) - 1
    digits = []
    for _know in ka.knowledges:
        index, digit = divmod(index, m)
        digits.append(digit + 1)
    return tuple(reversed(digits))


def _past_footprint(ka: KnowledgeArena, index: int, footprint: int) -> int:
    """The first canonical position after ``index`` whose candidate differs
    from that at ``index`` on a knowledge of Adam's refutation's footprint.

    The fold's row of a knowledge state u depends only on the candidate's
    choice at u's knowledge, so a candidate that agrees with the loser on
    the knowledges of the footprint's states folds to a game with the same
    rows there; by ``PositivePlay.footprint`` Adam wins it positively too.
    With j the last canonical position (``ka.position[u]``, u a footprint
    state) of those knowledges and m = 2^k - 1, the candidates up to the
    next change of digit j agree with the loser on all of them.
    """
    m = (1 << len(ka.base.eve_actions)) - 1
    j = max(ka.position[u] for u in bits(footprint))
    block = m ** (len(ka.knowledges) - 1 - j)
    return (index // block + 1) * block


def _refuted(ka: KnowledgeArena, objective: Objective, max_beliefs: int) -> bool:
    """True only when no candidate wins: a greatest fixpoint over the
    knowledge states that keeps every state a winner reaches.

    X starts as all knowledge states; under reachability the final ones
    are never removed, since a play that reaches one has won.  Each round
    (a) removes, until none is left, every removable state u with no
    support s whose rows ``ka.post[u][s - 1]`` all lie inside X, and then
    (b) folds the union game, where the row of a state of X is the union
    of the rows of its supports that stay inside X and the row of any
    other state is empty, and removes every removable u whose singleton
    belief Adam surely wins there.  It returns True once the initial state
    0 leaves X, and False when a round removes nothing or the union game's
    belief graph exceeds ``max_beliefs``: the proof is then inconclusive,
    not an error.

    Sound because X keeps every state a winning candidate c reaches (under
    reachability, through non-final states only).  (a) keeps it: the
    support c plays at such a state keeps all its rows among the states c
    reaches.  (b) keeps it: at the states c reaches, c's fold plays rows
    that stay inside X, so subsets of the union rows.  Tracking his
    union-game belief, which then always holds the true state, Adam plays
    a sure union-game strategy from u in c's fold too, and wins surely;
    had c reached u, he would win c's fold positively from state 0, and
    ``check_candidate`` would refute c.
    """
    reach = objective is Objective.REACHABILITY
    positive = _adam_positive(objective)
    removable = ~ka.final_mask if reach else -1
    empty = (0,) * len(ka.base.adam_actions)
    x = (1 << len(ka.post)) - 1
    while x & 1:
        union = [empty] * len(ka.post)
        drop = 0
        for u in bits(x):  # (a)
            inside = [rows for rows in ka.post[u] if not any(r & ~x for r in rows)]
            if inside:
                union[u] = tuple(reduce(or_, column) for column in zip(*inside))
            else:
                drop |= 1 << u
        drop &= removable
        if not drop:  # (b), once (a) removes nothing
            try:
                sure = positive(_adam_game(ka, tuple(union)), max_beliefs).sure_beliefs
            except ResourceLimit:
                return False
            drop = mask_of(u for u in bits(x & removable) if 1 << u in sure)
            if not drop:
                return False
        x &= ~drop
    return True


def _checks(ka, objective, max_beliefs, stop):
    """(index, candidate, wins, Adam's report, next index) of each Adam
    check the search makes among canonical positions 0 to ``stop`` - 1, in
    order, up to and including the first winner.

    A winner's next index is its own + 1; a loss moves on past every
    candidate its refutation already defeats (``_past_footprint``), and the
    first loss that leaves positions to check runs ``_refuted`` once: the
    checks end there when it proves that none of them wins.  A
    ResourceLimit raised by Adam's belief graph reports the candidate's
    index: the number of canonical positions decided before it.
    """
    index = 0
    refute = True
    while index < stop:
        cand = _candidate_at(ka, index)
        try:
            wins, rep = check_candidate(ka, cand, objective, max_beliefs)
        except ResourceLimit as exc:
            raise ResourceLimit(str(exc), checked=index) from None
        after = index + 1 if wins else _past_footprint(ka, index, rep.footprint)
        yield index, cand, wins, rep, after
        if wins:
            return
        index = after
        if refute and index < stop and _refuted(ka, objective, max_beliefs):
            return
        refute = False


def _decide(
    arena: Arena,
    objective: Objective,
    max_candidates: int,
    max_beliefs: int,
    threads: int,
    debug: bool,
) -> SolveReport:
    """Search the candidates and, on "yes", lower the winner: its action
    masks, keyed by the knowledge masks of ``ka.knowledges``, are the
    knowledge-only strategy ``lower_strategy`` turns into the witness."""
    t0 = time.perf_counter()
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    if max_candidates < 0:
        raise ValidationError(f"candidate cap must be at least 0, got {max_candidates}")
    ka = build_knowledge_arena(arena, max_beliefs)
    count = candidate_count(ka)
    stop = min(count, max_candidates)
    diagnostics: list[dict] | None = [] if debug else None
    winner = None
    for index, cand, wins, rep, after in _checks(ka, objective, max_beliefs, stop):
        if diagnostics is not None:
            diagnostics.append(_diag_entry(ka, index, cand, rep, after))
        if wins:
            winner = index, cand, rep
    if winner is None and max_candidates < count:
        raise ResourceLimit(f"candidate enumeration exceeds cap of {max_candidates}", checked=max_candidates)
    witness = None
    winning_knowledges: tuple[tuple[str, ...], ...] = ()
    if winner is not None:
        index, cand, rep = winner
        witness = lower_strategy(arena, dict(zip(ka.knowledges, cand)))
        validate_strategy(arena, "eve", witness)
        # the witness wins from every knowledge none of whose states Adam
        # wins positively
        lost = {ka.position[u] for u in rep.winning_states}
        winning_knowledges = tuple(
            tuple(arena.states[s] for s in bits(know))
            for j, know in enumerate(ka.knowledges)
            if j not in lost
        )
    return SolveReport(
        verdict="yes" if witness is not None else "no",
        objective=objective,
        witness=witness,
        witness_winning_knowledges=winning_knowledges,
        candidates_checked=count if winner is None else winner[0] + 1,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        diagnostics=tuple(diagnostics) if diagnostics is not None else None,
    )


def decide_almost_sure_reach(
    arena: Arena,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
    max_beliefs: int = DEFAULT_BELIEF_CAP,
    threads: int = 1,
    debug: bool = False,
) -> SolveReport:
    """Does Eve have an almost-surely winning strategy for reachability?

    On "yes" the report carries the lowered finite-memory witness of the
    canonically least successful candidate, and ``candidates_checked`` is
    its index + 1; on "no" it is the candidate count, also where a
    fixpoint over the knowledge states proved "no" without visiting every
    candidate (a "no" proven past ``max_candidates`` still hits the cap).
    ``threads`` is accepted for compatibility and does not change the
    search or its report; below 1 it is invalid input, as is a cap below
    0.  ``debug`` lists a diagnostic per Adam check the search makes, with
    the position ``next_index`` it moves on to; on "no", the positions
    from the last one's ``next_index`` up to ``candidates_checked`` are
    those the fixpoint proved.
    """
    return _decide(arena, Objective.REACHABILITY, max_candidates, max_beliefs, threads, debug)


def decide_almost_sure_buchi(
    arena: Arena,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
    max_beliefs: int = DEFAULT_BELIEF_CAP,
    threads: int = 1,
    debug: bool = False,
) -> SolveReport:
    """Does Eve have an almost-surely winning strategy for Buchi?

    Same contract as ``decide_almost_sure_reach``: "no" may be proven
    without visiting every candidate.
    """
    return _decide(arena, Objective.BUCHI, max_candidates, max_beliefs, threads, debug)
