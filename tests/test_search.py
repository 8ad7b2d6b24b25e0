"""The conflict-directed candidate search against flat enumeration.

A losing candidate's refutation reads Adam's folded game only at the
states of its footprint; every candidate that agrees with the loser on the
knowledges of those states loses too, so the search skips them.  These
tests check that lemma on sampled completions, and that the search reports
exactly what the one-by-one walk of a debug solve reports, in one process
and in the process pool.  They also check that the knowledge-state
fixpoint ``_refuted``, which ends a search early, proves "no" only where
every candidate loses.
"""

import os
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
from stochgames.solver import _candidate_at, _refuted, candidate_count, check_candidate
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


def test_search_reports_equal_enumeration():
    arenas = [g1(), g1_prime(), g2(), g3(), g4(), hidden_coin(), coin_chain()]
    arenas += [generate_arena(random_params(seed, max_states=5, max_blocks=3)) for seed in range(100)]
    capped = 0
    for arena in arenas:
        for decide in DECIDERS:
            for cap in (10**4, 27, 3):
                searched = _outcome(decide, arena, False, max_candidates=cap)
                assert searched == _outcome(decide, arena, True, max_candidates=cap)
                capped += isinstance(searched, tuple)
    assert capped > 0


def test_pooled_search_reports_equal_sequential():
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


def test_pooled_belief_cap_independent_of_cpus(monkeypatch):
    """The pool's index ranges are sized by ``threads``, not by the CPUs, so
    the belief cap strikes at the same range start on every machine."""
    arenas = (
        generate_arena(random_params(4, max_states=5, max_blocks=3)),
        generate_arena(random_params(128, max_states=5, max_actions=2, max_blocks=3)),
    )
    limits = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for arena in arenas:
            with pytest.raises(ResourceLimit) as capped:
                decide_almost_sure_reach(arena, threads=4, max_beliefs=12)
            limits.append((str(capped.value), capped.value.checked))
    assert limits == [("belief graph exceeds 12 nodes", 5)] * 6


def test_search_checks_fewer_candidates(monkeypatch):
    calls = []
    check = solver.check_candidate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return check(*args, **kwargs)

    monkeypatch.setattr(solver, "check_candidate", counting)
    for arena in (g1(), hidden_coin()):
        for decide in DECIDERS:
            calls.clear()
            rep = decide(arena)
            assert calls == sorted(set(calls))
            assert len(calls) < rep.candidates_checked
            calls.clear()
            assert decide(arena, debug=True).candidates_checked == len(calls)


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
