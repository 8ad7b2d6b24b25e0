"""The conflict-directed candidate search against flat enumeration.

A losing candidate's refutation reads Adam's folded game only at the
states of its footprint; every candidate that agrees with the loser on the
knowledges of those states loses too, so the search skips them.  These
tests check that lemma on sampled completions, and that the search, debug
or not and whatever ``threads`` says, reports what the oracle's
one-by-one walk of every candidate finds.  They also check that the
knowledge-state fixpoint ``_refuted``, which ends a search early, proves
"no" only where every candidate loses.
"""

import time
from itertools import islice
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochgames import (
    Objective,
    ResourceLimit,
    build_knowledge_arena,
    decide_almost_sure_buchi,
    decide_almost_sure_reach,
)
from stochgames import solver
from stochgames.bitset import bits
from stochgames.gen import generate_arena, random_params
from stochgames.knowledge import lower_strategy
from stochgames.solver import SolveReport, _candidate_at, _refuted, candidate_count, check_candidate
from instances import coin_chain, g1, g1_prime, g2, g3, g4, hidden_coin
from oracles import enumerate_candidates

OBJECTIVES = (Objective.REACHABILITY, Objective.BUCHI)
DECIDERS = (decide_almost_sure_reach, decide_almost_sure_buchi)


def _completion(ka, cand, kept, data) -> tuple[int, ...]:
    """``cand`` with a drawn action set at every knowledge outside ``kept``."""
    m = (1 << len(ka.base.eve_actions)) - 1
    return tuple(
        mask if know in kept else data.draw(st.integers(1, m))
        for know, mask in zip(ka.knowledges, cand)
    )


def _losing(ka, objective, data):
    """A drawn candidate of ``ka`` that loses, with Adam's report, or None."""
    index = data.draw(st.integers(0, min(candidate_count(ka), 200) - 1))
    cand = _candidate_at(ka, index)
    wins, rep = check_candidate(ka, cand, objective)
    return None if wins else (cand, rep)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6), objective=st.sampled_from(OBJECTIVES), data=st.data())
def test_footprint_refutes_every_agreeing_completion(seed, objective, data):
    ka = build_knowledge_arena(generate_arena(random_params(seed, max_states=5, max_blocks=3)))
    found = _losing(ka, objective, data)
    if found is None:
        return
    cand, rep = found
    assert rep.footprint & 1  # knowledge state 0, the initial one, is read
    kept = {ka.knowledges[ka.position[u]] for u in bits(rep.footprint)}
    for _ in range(4):
        wins, _rep = check_candidate(ka, _completion(ka, cand, kept, data), objective)
        assert not wins


def test_path_alone_is_no_footprint():
    """Without the sure closure's states the lemma fails: some completion
    that agrees with a loser on the knowledges of Adam's path alone wins."""
    for seed in range(40):
        ka = build_knowledge_arena(generate_arena(random_params(seed, max_states=5, max_blocks=3)))
        m = (1 << len(ka.base.eve_actions)) - 1
        for objective in OBJECTIVES:
            for index in range(min(candidate_count(ka), 20)):
                cand = _candidate_at(ka, index)
                wins, rep = check_candidate(ka, cand, objective)
                if wins:
                    continue
                path = {ka.knowledges[ka.position[u]] for u in rep.play.path}
                for j, know in enumerate(ka.knowledges):
                    if know in path:
                        continue
                    for mask in range(1, m + 1):
                        other = cand[:j] + (mask,) + cand[j + 1 :]
                        if check_candidate(ka, other, objective)[0]:
                            return
    pytest.fail("every completion agreeing on Adam's path lost")


def test_candidate_at_matches_enumeration():
    for seed in range(10):
        ka = build_knowledge_arena(generate_arena(random_params(seed, max_states=5, max_blocks=3)))
        for index, cand in enumerate(islice(enumerate_candidates(ka), 200)):
            assert _candidate_at(ka, index) == cand


def _outcome(decide, arena, debug, **caps):
    try:
        rep = decide(arena, debug=debug, **caps)
    except ResourceLimit as exc:
        return (str(exc), exc.checked)
    return replace(rep, elapsed_ms=0, diagnostics=None)


def _walk(arena, objective):
    """The oracle's walk: checks the candidates one by one in product order
    up to the first winner.  Returns the knowledge arena, the winner as
    (index, candidate, Adam's report) or None, and the candidates walked."""
    ka = build_knowledge_arena(arena)
    walked = 0
    for walked, cand in enumerate(enumerate_candidates(ka), 1):
        wins, rep = check_candidate(ka, cand, objective)
        if wins:
            return ka, (walked - 1, cand, rep), walked
    return ka, None, walked


def _walk_outcome(arena, objective, walk, cap):
    """What a solve capped at ``cap`` candidates reports, read off the walk."""
    ka, winner, walked = walk
    if winner is None and walked <= cap:
        return SolveReport("no", objective, None, (), walked, 0)
    if winner is None or winner[0] >= cap:
        return (f"candidate enumeration exceeds cap of {cap}", cap)
    index, cand, rep = winner
    lost = {ka.position[u] for u in rep.winning_states}
    winning = tuple(
        tuple(arena.states[s] for s in bits(know)) for j, know in enumerate(ka.knowledges) if j not in lost
    )
    witness = lower_strategy(arena, dict(zip(ka.knowledges, cand)))
    return SolveReport("yes", objective, witness, winning, index + 1, 0)


def test_search_reports_equal_enumeration():
    arenas = [g1(), g1_prime(), g2(), g3(), g4(), hidden_coin(), coin_chain()]
    arenas += [generate_arena(random_params(seed, max_states=5, max_blocks=3)) for seed in range(100)]
    capped = 0
    for arena in arenas:
        for objective, decide in zip(OBJECTIVES, DECIDERS):
            walk = _walk(arena, objective)
            for cap in (10**4, 27, 3):
                searched = _outcome(decide, arena, False, max_candidates=cap)
                assert searched == _walk_outcome(arena, objective, walk, cap)
                assert searched == _outcome(decide, arena, True, max_candidates=cap)
                capped += isinstance(searched, tuple)
    assert capped > 0


def test_threads_is_inert(monkeypatch):
    """``threads`` is accepted but runs the same in-process search."""
    arenas = [g1(), g1_prime(), g2(), g3(), g4(), hidden_coin(), coin_chain()]
    arenas += [generate_arena(random_params(seed, max_states=5, max_blocks=3)) for seed in range(30)]
    capped = 0
    for arena in arenas:
        for decide in DECIDERS:
            for cap in (10**4, 27, 3):
                searched = _outcome(decide, arena, False, max_candidates=cap)
                assert searched == _outcome(decide, arena, False, max_candidates=cap, threads=2)
                capped += isinstance(searched, tuple)
    assert capped > 0
    # the belief cap strikes where the search does, not at a range start
    belief_capped = generate_arena(random_params(4, max_states=5, max_blocks=3))
    rep = decide_almost_sure_reach(belief_capped, threads=2, max_beliefs=12)
    assert (rep.verdict, rep.candidates_checked) == ("yes", 28)
    # the fixpoint proves "no" after one Adam check, in this process
    calls = _counting_checks(monkeypatch)
    arena = generate_arena(random_params(103, max_states=6, max_actions=3, max_blocks=3))
    rep = decide_almost_sure_reach(arena, threads=2)
    assert (rep.verdict, rep.candidates_checked) == ("no", 823543)
    assert len(calls) == 1


def test_search_checks_fewer_candidates(monkeypatch):
    calls = []
    check = solver.check_candidate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return check(*args, **kwargs)

    monkeypatch.setattr(solver, "check_candidate", counting)
    for arena in (g1(), hidden_coin()):
        ka = build_knowledge_arena(arena)
        for decide in DECIDERS:
            calls.clear()
            rep = decide(arena)
            searched = list(calls)
            assert searched == sorted(set(searched))
            assert len(searched) < rep.candidates_checked
            # a debug solve makes the same Adam checks, with one entry each
            calls.clear()
            rep = decide(arena, debug=True)
            assert calls == searched
            assert [_candidate_at(ka, d["index"]) for d in rep.diagnostics] == searched


def test_search_reaches_beyond_enumeration(monkeypatch):
    calls = []
    check = solver.check_candidate
    monkeypatch.setattr(solver, "check_candidate", lambda *a, **k: calls.append(1) or check(*a, **k))
    arena = generate_arena(random_params(68, max_states=6, max_actions=3, max_blocks=3))
    t0 = time.perf_counter()
    rep = decide_almost_sure_buchi(arena)
    elapsed = time.perf_counter() - t0
    assert (rep.verdict, rep.candidates_checked) == ("yes", 823544)
    assert len(calls) == 2310
    # enumeration would check all 823,544 positions, at about 2 ms each
    assert elapsed < 60


def _counting_checks(monkeypatch) -> list:
    calls = []
    check = solver.check_candidate
    monkeypatch.setattr(solver, "check_candidate", lambda *a, **k: calls.append(1) or check(*a, **k))
    return calls


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6))
def test_refuted_only_when_every_candidate_loses(seed):
    ka = build_knowledge_arena(generate_arena(random_params(seed, max_states=5, max_blocks=3)))
    if candidate_count(ka) > 200:
        return
    for objective in OBJECTIVES:
        if _refuted(ka, objective, 10**6):
            assert not any(check_candidate(ka, cand, objective)[0] for cand in enumerate_candidates(ka))


def test_refuted_proves_corpus_noes():
    """On this corpus the fixpoint proves every "no" of either objective, so
    none is left to the search."""
    left = {objective: [] for objective in OBJECTIVES}
    noes = 0
    for seed in range(300):
        arena = generate_arena(random_params(seed, max_states=5, max_blocks=3))
        ka = build_knowledge_arena(arena)
        for objective, decide in zip(OBJECTIVES, DECIDERS):
            refuted = _refuted(ka, objective, 10**6)
            if decide(arena).verdict == "yes":
                assert not refuted
            else:
                noes += 1
                if not refuted:
                    left[objective].append(seed)
    assert noes == 214
    assert left == {Objective.REACHABILITY: [], Objective.BUCHI: []}


def test_refuted_ends_search_at_scale(monkeypatch):
    calls = _counting_checks(monkeypatch)
    arena = generate_arena(random_params(103, max_states=6, max_actions=3, max_blocks=3))
    for decide in DECIDERS:
        calls.clear()
        rep = decide(arena)
        # the search alone needs 6,771 Adam checks for reachability
        assert (rep.verdict, rep.candidates_checked) == ("no", 823543)
        assert len(calls) == 1


def test_search_continues_past_inconclusive_fixpoint(monkeypatch):
    calls = _counting_checks(monkeypatch)
    arena = generate_arena(random_params(1933, max_states=5, max_blocks=3))
    assert not _refuted(build_knowledge_arena(arena), Objective.BUCHI, 10**6)
    rep = decide_almost_sure_buchi(arena)
    assert (rep.verdict, rep.candidates_checked) == ("no", 27)
    assert len(calls) == 15
