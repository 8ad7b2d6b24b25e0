"""Decision procedures for almost-sure reachability and Buchi winning.

The solver checks Eve's knowledge-only uniform strategies in canonical
order: one after another in the calling process, or, with ``threads`` above
1, in chunks spread over a pool of worker processes running the same check
loop.
Fixing one turns the game, from Adam's point of view, into a game against
chance with a safety (for reachability) or co-Buchi (for Buchi) objective;
the candidate is almost-surely winning exactly when Adam is not positively
winning there.  That depends on supports only, so a candidate is folded by
OR-ing bitmask rows of the knowledge arena's support tables; Adam's game
carries no weighted arena (the tests fold exact weights with their oracle
``dense_fold``), and Adam's witness is assembled only when a diagnostic
reads it.  The first successful candidate in canonical order is lowered to
a finite-memory witness on the base arena.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator

from .bitset import block_masks
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


def enumerate_candidates(
    ka: KnowledgeArena, max_candidates: int = DEFAULT_CANDIDATE_CAP
) -> Iterator[CandidateStrategy]:
    """Yield every map from reachable knowledges to non-empty action subsets.

    Canonical lexicographic order: knowledges in construction order, subsets
    by ascending bitmask.  Raises ResourceLimit when a candidate beyond the
    cap is requested, so a prefix of the stream can still be consumed.
    """
    k = len(ka.base.eve_actions)
    masks = range(1, 1 << k)
    for index, assignment in enumerate(product(masks, repeat=len(ka.knowledges))):
        if index >= max_candidates:
            raise ResourceLimit(
                f"candidate enumeration exceeds cap of {max_candidates}", checked=max_candidates
            )
        choice = dict(zip(ka.knowledges, assignment))
        yield CandidateStrategy(strategy=KnowledgeOnlyStrategy(choice), index=index)


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
    index as the number of candidates checked before it.
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


def _checks(ka, candidates, objective, max_beliefs, debug):
    """(candidate, wins, Adam's report, diagnostic or None) of each of
    ``candidates`` in order, up to and including the first winner."""
    for cand in candidates:
        wins, rep = check_candidate(ka, cand, objective, max_beliefs)
        yield cand, wins, rep, _diag_entry(ka, cand, rep) if debug else None
        if wins:
            return


_WORKER_STATE: dict = {}


def _worker_init(ka, objective, max_beliefs, debug):
    _WORKER_STATE["args"] = (ka, objective, max_beliefs, debug)


def _worker_chunk(chunk: list[CandidateStrategy]):
    ka, objective, max_beliefs, debug = _WORKER_STATE["args"]
    return [(wins, diag) for _cand, wins, _rep, diag in _checks(ka, chunk, objective, max_beliefs, debug)]


def _pooled_checks(ka, candidates, objective, max_beliefs, debug, threads):
    """The checks of ``_checks``, run in chunks of consecutive candidates by
    a pool of worker processes; the report is None, since workers return
    verdicts and diagnostics only.  The enumeration's cap is raised only
    after every candidate before it lost."""
    # a forking pool starts all its workers at the first submit
    workers = min(threads, os.cpu_count() or 1)
    chunk_size = max(1, min(64, candidate_count(ka) // (workers * 4) or 1))
    capped: list[ResourceLimit] = []

    def chunks():
        chunk = []
        try:
            for cand in candidates:
                chunk.append(cand)
                if len(chunk) == chunk_size:
                    yield chunk
                    chunk = []
        except ResourceLimit as exc:
            capped.append(exc)
        if chunk:
            yield chunk

    chunk_iter = chunks()
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(ka, objective, max_beliefs, debug)
    ) as pool:
        # keep a bounded window of in-flight chunks; results are consumed in
        # submission order so the least winning index is seen first
        pending = deque(
            (chunk, pool.submit(_worker_chunk, chunk)) for chunk in islice(chunk_iter, workers * 2)
        )
        while pending:
            chunk, future = pending.popleft()
            for cand, (wins, diag) in zip(chunk, future.result()):
                yield cand, wins, None, diag
                if wins:
                    return
            for chunk in islice(chunk_iter, 1):
                pending.append((chunk, pool.submit(_worker_chunk, chunk)))
    if capped:
        raise capped[0]


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
    candidates = enumerate_candidates(ka, max_candidates)
    if threads > 1:
        checks = _pooled_checks(ka, candidates, objective, max_beliefs, debug, threads)
    else:
        checks = _checks(ka, candidates, objective, max_beliefs, debug)
    diagnostics: list[dict] | None = [] if debug else None
    checked = 0
    winner = rep = None
    for cand, wins, cand_rep, diag in checks:
        checked += 1
        if diagnostics is not None:
            diagnostics.append(diag)
        if wins:
            winner, rep = cand, cand_rep
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
        candidates_checked=checked,
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
    canonically least successful candidate.  ``threads`` above 1 checks
    the candidates in a pool of at most one worker process per CPU, with
    the same report; below 1 it is invalid input, as is a cap below 0.
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
