"""Decision procedures for almost-sure reachability and Buchi winning.

The solver enumerates Eve's knowledge-only uniform strategies in canonical
order; one enumeration feeds both the sequential and the pooled check.
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


_WORKER_STATE: dict = {}


def _worker_init(ka, objective, max_beliefs, debug):
    _WORKER_STATE["args"] = (ka, objective, max_beliefs, debug)


def _worker_chunk(chunk: list[CandidateStrategy]):
    ka, objective, max_beliefs, debug = _WORKER_STATE["args"]
    out = []
    for cand in chunk:
        wins, rep = check_candidate(ka, cand, objective, max_beliefs)
        out.append((wins, _diag_entry(ka, cand, rep) if debug else None))
        if wins:  # the candidates after a winner are not needed
            break
    return out


def _report(
    arena: Arena,
    ka: KnowledgeArena,
    objective: Objective,
    winner: CandidateStrategy | None,
    winner_rep: PositiveWinReport | None,
    checked: int,
    t0: float,
    diagnostics: list[dict] | None,
) -> SolveReport:
    witness = None
    winning_knowledges: tuple[tuple[str, ...], ...] = ()
    if winner is not None:
        witness = lower_strategy(arena, winner.strategy)
        validate_strategy(arena, "eve", witness)
        assert winner_rep is not None
        losing_for_adam = [
            know
            for know in ka.knowledges
            if all(
                u not in winner_rep.winning_states
                for u, ks in enumerate(ka.kstates)
                if ks.know == know
            )
        ]
        winning_knowledges = tuple(
            tuple(arena.states[s] for s in know.states) for know in losing_for_adam
        )
    return SolveReport(
        verdict="yes" if winner is not None else "no",
        objective=objective,
        witness=witness,
        witness_winning_knowledges=winning_knowledges,
        candidates_checked=checked,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        diagnostics=tuple(diagnostics) if diagnostics is not None else None,
    )


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
    ka = build_knowledge_arena(arena, max_beliefs)
    candidates = enumerate_candidates(ka, max_candidates)
    if threads > 1:
        return _decide_parallel(arena, ka, objective, candidates, max_beliefs, threads, debug, t0)

    diagnostics: list[dict] | None = [] if debug else None
    checked = 0
    for cand in candidates:
        checked += 1
        wins, rep = check_candidate(ka, cand, objective, max_beliefs)
        if diagnostics is not None:
            diagnostics.append(_diag_entry(ka, cand, rep))
        if wins:
            return _report(arena, ka, objective, cand, rep, checked, t0, diagnostics)
    return _report(arena, ka, objective, None, None, checked, t0, diagnostics)


def _decide_parallel(arena, ka, objective, candidates, max_beliefs, threads, debug, t0):
    # a forking pool starts all its workers at the first submit
    workers = min(threads, os.cpu_count() or 1)
    chunk_size = max(1, min(64, candidate_count(ka) // (workers * 4) or 1))
    capped: list[ResourceLimit] = []

    def chunks():
        # the enumeration raises at the cap; the candidates before it are
        # still checked, and the limit is reported only if none of them wins
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

    diagnostics = [] if debug else None
    winner = None
    checked = 0
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
                if diagnostics is not None:
                    diagnostics.append(diag)
                if wins:  # a worker stops at its first winner
                    winner = cand
            checked += len(chunk)
            if winner is not None:
                break
            for chunk in islice(chunk_iter, 1):
                pending.append((chunk, pool.submit(_worker_chunk, chunk)))
    if winner is not None:
        # the winner's report is recomputed here: workers return verdicts only
        _wins, rep = check_candidate(ka, winner, objective, max_beliefs)
        return _report(arena, ka, objective, winner, rep, winner.index + 1, t0, diagnostics)
    if capped:
        raise capped[0]
    return _report(arena, ka, objective, None, None, checked, t0, diagnostics)


def decide_almost_sure_reach(
    arena: Arena,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
    max_beliefs: int = DEFAULT_BELIEF_CAP,
    threads: int = 1,
    debug: bool = False,
) -> SolveReport:
    """Does Eve have an almost-surely winning strategy for reachability?

    On "yes" the report carries the lowered finite-memory witness of the
    canonically least successful candidate.
    """
    return _decide(arena, Objective.REACHABILITY, max_candidates, max_beliefs, threads, debug)


def decide_almost_sure_buchi(
    arena: Arena,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
    max_beliefs: int = DEFAULT_BELIEF_CAP,
    threads: int = 1,
    debug: bool = False,
) -> SolveReport:
    """Does Eve have an almost-surely winning strategy for Buchi?"""
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
