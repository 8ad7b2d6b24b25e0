"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them as they happen)."""

import json
import random
import time
from fractions import Fraction

import pytest

from stochgames import (
    Knowledge,
    Objective,
    best_response_full_info,
    build_chain,
    build_knowledge_arena,
    decide_almost_sure_buchi,
    decide_almost_sure_reach,
    knowledge_update,
    lift_strategy,
    adapt_adam_strategy,
    monte_carlo,
    objective_probability,
)
from stochgames.cli import main
from stochgames.evaluation import _Compiled, simulate_play
from stochgames.gen import generate_arena, random_params
from stochgames.model import ADAM, EVE, FiniteMemoryStrategy
from stochgames.solver import candidate_count, check_candidate

from instances import coin_chain, cycle_arena, g1, g1_doc, g1_prime, g2
from oracles import (
    attractor_verdict,
    brute_force_verdict,
    dense_fold,
    enumerate_candidates,
    game_from_arena,
    random_turn_based,
)
from util import random_strategy

CORPUS_MASTER_SEED = 2000
CORPUS_SIZE = 250  # criteria 2-4 ask for at least 200 games


def _verdictline(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def corpus():
    games = []
    for i in range(CORPUS_SIZE):
        params = random_params(CORPUS_MASTER_SEED + i)
        games.append((i, params, generate_arena(params)))
    return games


@pytest.fixture(scope="module")
def corpus_results(corpus):
    results = []
    for i, params, arena in corpus:
        for objective, decide in (
            (Objective.REACHABILITY, decide_almost_sure_reach),
            (Objective.BUCHI, decide_almost_sure_buchi),
        ):
            report = decide(arena, max_candidates=100_000)
            results.append((i, params, arena, objective, report))
    return results


def test_criterion_1_candidate_count_formula():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            arena = cycle_arena(n, k)
            ka = build_knowledge_arena(arena)
            assert len(ka.knowledges) == n
            enumerated = sum(1 for _ in enumerate_candidates(ka))
            expected = (2**k - 1) ** n
            ok &= enumerated == expected == candidate_count(ka)
            assert enumerated == expected
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdictline(1, "candidate-count formula", ok)
    assert elapsed < 1.0


def test_criterion_2_soundness_of_yes(corpus_results):
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for i, _params, arena, objective, report in corpus_results:
        if report.verdict != "yes":
            continue
        checked += 1
        value = best_response_full_info(arena, report.witness, objective).probability
        if value != 1:
            failures.append((i, objective.value, str(value)))
    elapsed = time.perf_counter() - t0
    ok = not failures and checked > 0 and elapsed < 600
    _verdictline(2, f"soundness of yes ({checked} witnesses)", ok)
    assert failures == []
    assert checked > 0
    assert elapsed < 600


def test_criterion_3_internal_completeness_of_no(corpus_results):
    failures = []
    checked = 0
    for i, _params, arena, objective, report in corpus_results:
        if report.verdict != "no":
            continue
        ka = build_knowledge_arena(arena)
        for cand in enumerate_candidates(ka, 100_000):
            wins, adam_report = check_candidate(ka, cand, objective)
            if wins or adam_report.witness is None:
                failures.append((i, objective.value, cand.index, "missing witness"))
                continue
            adam_game = game_from_arena(dense_fold(ka, cand), ADAM)[1]
            trivial = FiniteMemoryStrategy.constant(EVE, "*", len(adam_game.eve_obs))
            chain = build_chain(adam_game, trivial, adam_report.witness)
            value = objective_probability(chain, objective)
            checked += 1
            if value >= 1:
                failures.append((i, objective.value, cand.index, str(value)))
    ok = not failures and checked > 0
    _verdictline(3, f"internal completeness of no ({checked} witnesses)", ok)
    assert failures == []
    assert checked > 0


def test_criterion_4_oracle_agreement(corpus_results):
    disagreements = []
    compared = 0
    for i, _params, arena, objective, report in corpus_results:
        oracle = brute_force_verdict(arena, objective)
        if oracle == "unknown":
            continue
        compared += 1
        if oracle != report.verdict:
            disagreements.append((i, objective.value, report.verdict, oracle))
    ok = not disagreements and compared > 0
    _verdictline(4, f"oracle agreement ({compared} compared)", ok)
    assert disagreements == []
    assert compared > 0


def test_criterion_5_knowledge_arena_probability_equality():
    rng = random.Random(77)
    failures = 0
    for trial in range(100):
        arena = generate_arena(random_params(CORPUS_MASTER_SEED + 10_000 + trial))
        eve = random_strategy(arena, EVE, rng, max_memory=2)
        adam = random_strategy(arena, ADAM, rng, max_memory=2)
        ka = build_knowledge_arena(arena)
        eve_k = lift_strategy(ka, eve)
        adam_k = adapt_adam_strategy(ka, adam)
        objective = Objective.REACHABILITY if trial % 2 == 0 else Objective.BUCHI
        p_base = objective_probability(build_chain(arena, eve, adam), objective)
        p_know = objective_probability(build_chain(ka.arena, eve_k, adam_k), objective)
        failures += p_base != p_know
    _verdictline(5, "probability equality on the knowledge arena", failures == 0)
    assert failures == 0


def test_criterion_6_knowledge_accuracy():
    rng = random.Random(123)
    violations = 0
    plays = 0
    for game_idx in range(100):
        arena = generate_arena(random_params(CORPUS_MASTER_SEED + 20_000 + game_idx))
        eve = random_strategy(arena, EVE, rng)
        adam = random_strategy(arena, ADAM, rng)
        ce = _Compiled(arena, eve, EVE)
        for _ in range(100):
            plays += 1
            states = simulate_play(arena, eve, adam, horizon=12, rng=rng)
            know = Knowledge.of([arena.init])
            mem = ce.init
            for t in states[1:]:
                dom = [e for e, _p in ce.move[mem]]
                know = knowledge_update(arena, know, arena.eve_block_of[t], dom)
                mem = ce.update[mem][arena.eve_block_of[t]]
                if t not in know:
                    violations += 1
    ok = plays >= 10_000 and violations == 0
    _verdictline(6, f"knowledge accuracy over {plays} plays", ok)
    assert plays >= 10_000
    assert violations == 0


def test_criterion_7_perfect_information_degeneracy():
    disagreements = 0
    for seed in range(100):
        arena, owner, table = random_turn_based(CORPUS_MASTER_SEED + 30_000 + seed)
        report = decide_almost_sure_reach(arena)
        expected = attractor_verdict(arena, owner, table)
        disagreements += (report.verdict == "yes") != expected
    _verdictline(7, "perfect-information degeneracy vs attractor", disagreements == 0)
    assert disagreements == 0


def test_criterion_8_named_instances():
    t0 = time.perf_counter()
    rep1 = decide_almost_sure_reach(g1())
    assert rep1.verdict == "yes"
    assert best_response_full_info(g1(), rep1.witness, Objective.REACHABILITY).probability == 1

    rep1b = decide_almost_sure_buchi(g1_prime())
    assert rep1b.verdict == "yes"
    assert best_response_full_info(g1_prime(), rep1b.witness, Objective.BUCHI).probability == 1

    arena2 = g2()
    rep2 = decide_almost_sure_reach(arena2)
    assert rep2.verdict == "no"
    ka = build_knowledge_arena(arena2)
    for cand in enumerate_candidates(ka):
        _wins, adam_report = check_candidate(ka, cand, Objective.REACHABILITY)
        adam_game = game_from_arena(dense_fold(ka, cand), ADAM)[1]
        trivial = FiniteMemoryStrategy.constant(EVE, "*", len(adam_game.eve_obs))
        chain = build_chain(adam_game, trivial, adam_report.witness)
        assert objective_probability(chain, Objective.REACHABILITY) < 1
    assert decide_almost_sure_buchi(arena2).verdict == "no"

    elapsed = time.perf_counter() - t0
    _verdictline(8, "named instances", elapsed < 5.0)
    assert elapsed < 5.0


def test_criterion_9_resource_limit_cli(tmp_path):
    game = tmp_path / "g1.json"
    game.write_text(g1_doc())
    reports = []
    for run in range(2):
        out = tmp_path / f"partial{run}.json"
        code = main([
            "solve", "--game", str(game), "--objective", "reach",
            "--max-candidates", "1", "--out", str(out),
        ])
        assert code == 3
        doc = json.loads(out.read_text())
        doc.pop("elapsed_ms")
        doc["config"].pop("out")
        reports.append(doc)
    identical = reports[0] == reports[1]
    partial = reports[0]["verdict"] is None and reports[0]["candidates_checked"] == 1
    _verdictline(9, "resource-limit guard", identical and partial)
    assert identical and partial


def test_criterion_10_monte_carlo_calibration():
    arena = coin_chain()
    eve = FiniteMemoryStrategy.constant(EVE, "a", 3)
    adam = FiniteMemoryStrategy.constant(ADAM, "x", 3)
    exact = Fraction(1, 2)
    inside = 0
    for seed in range(30):
        result = monte_carlo(
            arena, eve, adam, Objective.REACHABILITY, samples=2000, horizon=10, seed=seed
        )
        if abs(float(result.probability - exact)) <= result.half_width:
            inside += 1
    _verdictline(10, f"Monte Carlo calibration ({inside}/30 inside)", inside >= 25)
    assert inside >= 25
