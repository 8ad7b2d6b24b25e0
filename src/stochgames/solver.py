"""Decision procedures for almost-sure reachability and Buchi winning.

The solver searches Eve's knowledge-only uniform strategies in canonical
order for the least one that wins.  Fixing one turns the game, from Adam's
point of view, into a game against chance with a safety (for
reachability) or co-Buchi (for Buchi) objective; the candidate is
almost-surely winning exactly when Adam is not positively winning there.
That depends on supports only, so a candidate is folded by OR-ing bitmask
rows of the knowledge arena's support tables; Adam's game carries no
weighted arena (the tests fold exact weights with their oracle
``dense_fold``).

Adam refutes a losing candidate with a play that reads his game only at
the knowledge states of its footprint, and the fold's row there depends
only on the candidate's choice at their knowledges.  Every later candidate
that makes the same choices at those knowledges loses to the same play, so
the search jumps past all of them in one step, to the next canonical
position that changes one of those choices.  The search runs in one
process or, with ``threads`` above 1, on consecutive index ranges in a
pool of worker processes; a debug solve, which lists a diagnostic per
candidate, steps through the candidates one by one either way.  All give
the same report, except where the belief cap stops a walk at a candidate
the search skips: a pooled search starts each range afresh, so the cap can
strike at a range's start.  The first successful candidate in canonical
order is lowered to a finite-memory witness on the base arena.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice

from .bitset import bits, block_masks
from .errors import NotClosed, ResourceLimit, ValidationError
from .halfplayer import (
    DEFAULT_BELIEF_CAP,
    OneHalfGame,
    PositiveWinReport,
    positive_cobuchi,
    positive_safety,
)
from .knowledge import (
    Knowledge,
    KnowledgeArena,
    KnowledgeOnlyStrategy,
    build_knowledge_arena,
    lower_strategy,
    successors,
)
from .model import ADAM, Arena, FiniteMemoryStrategy, Objective, validate_strategy

DEFAULT_CANDIDATE_CAP = 10**7


@dataclass(frozen=True)
class CandidateStrategy:
    """A knowledge-only uniform strategy with its enumeration index.

    ``index`` is the canonical position in the enumeration order, or None
    for candidates built outside the enumeration (e.g. from a winning set).
    """

    strategy: KnowledgeOnlyStrategy
    index: int | None


@dataclass(frozen=True)
class SolveReport:
    verdict: str
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


def fix_candidate(ka: KnowledgeArena, cand: CandidateStrategy) -> OneHalfGame:
    """Fold the candidate's uniform move into the knowledge arena.

    The result is the game Adam faces against chance: the knowledge-arena
    states with Adam's alphabet and his base observation refined by
    final-membership.  Playing uniformly over a set S of actions reaches
    the union of the supports of the pairs (e, S), e in S, so the fold ORs
    their ``post`` rows.  The game carries no weighted arena; the tests'
    oracle ``dense_fold`` mixes the exact weights.
    """
    choice = cand.strategy.choice
    try:
        cmask_of = {know.mask: choice[know] for know in ka.knowledges}
    except KeyError as exc:
        raise ValidationError(f"candidate undefined for knowledge {exc.args[0].label(ka.base)}") from None
    dom_pairs = ka.dom_pairs
    post = []
    for rows, ks in zip(ka.post, ka.kstates):
        first, *rest = dom_pairs[cmask_of[ks.know.mask]]
        row = rows[first]
        for p in rest:
            row = tuple(x | y for x, y in zip(row, rows[p]))
        post.append(row)
    return OneHalfGame(
        protagonist=ADAM,
        states=ka.state_names,
        actions=ka.base.adam_actions,
        post=tuple(post),
        cells=ka.adam_cells,
        final_mask=ka.final_mask,
        init=0,
    )


def check_candidate(
    ka: KnowledgeArena,
    cand: CandidateStrategy,
    objective: Objective,
    max_beliefs: int = DEFAULT_BELIEF_CAP,
) -> tuple[bool, PositiveWinReport]:
    """Returns (candidate almost-surely wins, Adam's report).

    Adam's objective is the complement of Eve's: safety against
    reachability, co-Buchi against Buchi; the candidate wins exactly when
    Adam does not win it with positive probability from the initial state.
    A ResourceLimit raised by Adam's belief graph reports the candidate's
    index: the number of canonical positions decided before it.
    """
    if objective is Objective.REACHABILITY:
        positive = positive_safety
    elif objective is Objective.BUCHI:
        positive = positive_cobuchi
    else:
        raise ValidationError(f"no decision procedure for objective {objective.value!r}")
    game = fix_candidate(ka, cand)
    try:
        rep = positive(game, max_beliefs)
    except ResourceLimit as exc:
        raise ResourceLimit(str(exc), checked=cand.index) from None
    return game.init not in rep.winning_states, rep


def _diag_entry(ka: KnowledgeArena, cand: CandidateStrategy, rep: PositiveWinReport) -> dict:
    base = ka.base
    return {
        "index": cand.index,
        "assignment": {
            know.label(base): list(cand.strategy.action_names(know, base))
            for know in ka.knowledges
        },
        "adam_positively_wins": 0 in rep.winning_states,  # knowledge state 0 is initial
        "adam_winning_states": len(rep.winning_states),
        "sure_beliefs": len(rep.sure_beliefs),
        "iterations": rep.iterations,
        "adam_witness_memory": len(rep.witness.memory) if rep.witness else None,
    }


def _candidate_at(ka: KnowledgeArena, index: int) -> CandidateStrategy:
    """The candidate at canonical position ``index``.

    Canonical order is lexicographic: knowledges in construction order,
    action sets by ascending bitmask.  So the position's digits in base
    2^k - 1, knowledge 0 the most significant, choose the action sets: digit
    d the set of bitmask d + 1."""
    m = (1 << len(ka.base.eve_actions)) - 1
    digits = []
    rest = index
    for _know in ka.knowledges:
        rest, digit = divmod(rest, m)
        digits.append(digit + 1)
    choice = dict(zip(ka.knowledges, reversed(digits)))
    return CandidateStrategy(strategy=KnowledgeOnlyStrategy(choice), index=index)


def _past_footprint(ka: KnowledgeArena, index: int, footprint: int, position: list[int]) -> int:
    """The first canonical position after ``index`` whose candidate differs
    from that at ``index`` on a knowledge of Adam's refutation's footprint.

    The fold's row of a knowledge state u depends only on the candidate's
    choice at u's knowledge, so a candidate that agrees with the loser on
    the knowledges of the footprint's states folds to a game with the same
    rows there; by ``PositivePlay.footprint`` Adam wins it positively too.
    With j the last canonical position (``position[u]``, u a footprint
    state) of those knowledges and m = 2^k - 1, the candidates up to the
    next change of digit j agree with the loser on all of them.
    """
    m = (1 << len(ka.base.eve_actions)) - 1
    j = max(position[u] for u in bits(footprint))
    block = m ** (len(ka.knowledges) - 1 - j)
    return (index // block + 1) * block


def _checks(ka, objective, max_beliefs, debug, start, stop):
    """(index, wins, Adam's report, diagnostic or None) of the candidates at
    canonical positions ``start`` to ``stop`` - 1, in order, up to and
    including the first winner.

    A loss moves on past every candidate its refutation already defeats
    (``_past_footprint``); a debug walk, which lists every candidate, moves
    to the next position.
    """
    # canonical position of each state's knowledge
    of = {know: j for j, know in enumerate(ka.knowledges)}
    position = [of[ks.know] for ks in ka.kstates]
    index = start
    while index < stop:
        cand = _candidate_at(ka, index)
        wins, rep = check_candidate(ka, cand, objective, max_beliefs)
        yield index, wins, rep, _diag_entry(ka, cand, rep) if debug else None
        if wins:
            return
        index = index + 1 if debug else _past_footprint(ka, index, rep.footprint, position)


_WORKER_STATE: dict = {}


def _worker_init(ka, objective, max_beliefs, debug):
    _WORKER_STATE["args"] = (ka, objective, max_beliefs, debug)


def _worker_range(start: int, stop: int):
    checks = _checks(*_WORKER_STATE["args"], start, stop)
    return [(index, wins, diag) for index, wins, _rep, diag in checks]


def _pooled_checks(ka, objective, max_beliefs, debug, threads, stop):
    """The checks of ``_checks`` over positions 0 to ``stop`` - 1, run on
    consecutive index ranges by a pool of worker processes; the report is
    None, since workers return verdicts and diagnostics only.  Range sizes
    depend on the inputs alone, not on the CPUs, so a belief cap that
    strikes at a range's start does so on every machine."""
    size = max(1, min(64, candidate_count(ka) // (threads * 4)))
    ranges = ((lo, min(lo + size, stop)) for lo in range(0, stop, size))
    # a forking pool starts all its workers at the first submit
    workers = min(threads, os.cpu_count() or 1)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(ka, objective, max_beliefs, debug)
    ) as pool:
        # keep a bounded window of in-flight ranges; results are consumed in
        # submission order so the least winning index is seen first
        pending = deque(pool.submit(_worker_range, *r) for r in islice(ranges, workers * 2))
        while pending:
            for index, wins, diag in pending.popleft().result():
                yield index, wins, None, diag
                if wins:
                    return
            pending.extend(pool.submit(_worker_range, *r) for r in islice(ranges, 1))


def _decide(
    arena: Arena,
    objective: Objective,
    max_candidates: int,
    max_beliefs: int,
    threads: int,
    debug: bool,
) -> SolveReport:
    t0 = time.perf_counter()
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    if max_candidates < 0:
        raise ValidationError(f"candidate cap must be at least 0, got {max_candidates}")
    ka = build_knowledge_arena(arena, max_beliefs)
    count = candidate_count(ka)
    stop = min(count, max_candidates)
    if threads > 1:
        checks = _pooled_checks(ka, objective, max_beliefs, debug, threads, stop)
    else:
        checks = _checks(ka, objective, max_beliefs, debug, 0, stop)
    diagnostics: list[dict] | None = [] if debug else None
    winner = rep = None
    for index, wins, cand_rep, diag in checks:
        if diagnostics is not None:
            diagnostics.append(diag)
        if wins:
            winner, rep = _candidate_at(ka, index), cand_rep
    if winner is None and max_candidates < count:
        raise ResourceLimit(f"candidate enumeration exceeds cap of {max_candidates}", checked=max_candidates)
    witness = None
    winning_knowledges: tuple[tuple[str, ...], ...] = ()
    if winner is not None:
        if rep is None:  # a pooled check returns the verdict only
            _wins, rep = check_candidate(ka, winner, objective, max_beliefs)
        witness = lower_strategy(arena, winner.strategy)
        validate_strategy(arena, "eve", witness)
        # the witness wins from every knowledge none of whose states Adam
        # wins positively
        lost = {ka.kstates[u].know for u in rep.winning_states}
        winning_knowledges = tuple(
            tuple(arena.states[s] for s in know.states) for know in ka.knowledges if know not in lost
        )
    return SolveReport(
        verdict="yes" if witness is not None else "no",
        objective=objective,
        witness=witness,
        witness_winning_knowledges=winning_knowledges,
        candidates_checked=count if winner is None else winner.index + 1,
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
    its index + 1; on "no" it is the candidate count.  ``threads`` above 1
    runs the same search on consecutive index ranges in a pool of at most
    one worker process per CPU, with the same report, unless the belief
    cap strikes at a range's start, a candidate the sequential search
    skips; below 1 it is invalid input, as is a cap below 0.  ``debug``
    checks every candidate one by one and lists a diagnostic for each.
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

    Same contract as ``decide_almost_sure_reach``, ``threads`` included.
    """
    return _decide(arena, Objective.BUCHI, max_candidates, max_beliefs, threads, debug)


def random_safe_strategy(ka: KnowledgeArena, w) -> CandidateStrategy:
    """Candidate that plays, at each knowledge of ``w``, uniformly over the
    actions whose every consistent successor knowledge stays in ``w``.

    An action is judged safe on its own: playing it as a point distribution
    must keep every compatible observation inside ``w``.  Raises NotClosed
    if some knowledge has no safe action.
    """
    base = ka.base
    eve_block_masks = block_masks(base.eve_obs)
    wset = {know.mask for know in w}
    choice: dict[Knowledge, int] = {}
    for know in w:
        safe = 0
        for e in range(len(base.eve_actions)):
            after = successors(base.post, know.mask, 1 << e)
            if all(not after & bm or after & bm in wset for bm in eve_block_masks):
                safe |= 1 << e
        if safe == 0:
            raise NotClosed(f"knowledge {know.label(base)} has no safe action within w")
        choice[know] = safe
    return CandidateStrategy(strategy=KnowledgeOnlyStrategy(choice), index=None)
