import hashlib
import json
import os
import pickle
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest

from stochgames import (
    ValidationError,
    Knowledge,
    NotClosed,
    Objective,
    ResourceLimit,
    best_response_full_info,
    build_chain,
    build_knowledge_arena,
    decide_almost_sure_buchi,
    decide_almost_sure_reach,
    fix_candidate,
    objective_probability,
    positive_cobuchi,
    positive_safety,
    random_safe_strategy,
    serialize_strategy,
    validate_strategy,
)
from stochgames import halfplayer, solver
from stochgames.cli import _report_dict
from stochgames.bitset import bits, block_masks, mask_of, split_masks
from stochgames.gen import generate_arena, random_params
from stochgames.model import ADAM, FiniteMemoryStrategy, parse_game
from stochgames.solver import CandidateStrategy, candidate_count, check_candidate
from stochgames.knowledge import KnowledgeOnlyStrategy
from instances import coin_chain, cycle_arena, g1, g1_prime, g2, g3, g4, hidden_coin, make_doc
from oracles import (
    attractor_verdict,
    brute_force_verdict,
    dense_fold,
    enumerate_candidates,
    game_from_arena,
    random_turn_based,
)


def test_candidate_counts():
    # one knowledge, two actions -> 3 candidates
    ka = build_knowledge_arena(cycle_arena(1, 2))
    assert len(list(enumerate_candidates(ka))) == 3 == candidate_count(ka)
    # three knowledges, two actions -> 27
    ka = build_knowledge_arena(cycle_arena(3, 2))
    assert len(ka.knowledges) == 3
    assert len(list(enumerate_candidates(ka))) == 27 == candidate_count(ka)
    # singleton alphabet -> exactly one candidate
    ka = build_knowledge_arena(cycle_arena(2, 1))
    assert len(list(enumerate_candidates(ka))) == 1


def test_candidate_order_canonical():
    ka = build_knowledge_arena(cycle_arena(2, 2))
    cands = list(enumerate_candidates(ka))
    assert [c.index for c in cands] == list(range(9))
    first = cands[0]
    assert all(mask == 1 for mask in first.strategy.choice.values())
    # last component varies fastest
    assert [c.strategy.choice[ka.knowledges[1]] for c in cands[:3]] == [1, 2, 3]
    assert all(c.strategy.choice[ka.knowledges[0]] == 1 for c in cands[:3])


def test_enumeration_resource_limit():
    ka = build_knowledge_arena(cycle_arena(3, 2))
    stream = enumerate_candidates(ka, max_candidates=5)
    got = []
    with pytest.raises(ResourceLimit):
        for cand in stream:
            got.append(cand.index)
    assert got == [0, 1, 2, 3, 4]


def test_fix_candidate_uniform_mixes():
    arena = g1()
    ka = build_knowledge_arena(arena)
    uniform = CandidateStrategy(
        strategy=KnowledgeOnlyStrategy({k: 0b11 for k in ka.knowledges}), index=None
    )
    game = fix_candidate(ka, uniform)
    dense = dense_fold(ka, uniform)
    init = dense.init
    assert game.init == init
    for a in range(2):
        dist = dense.transition[(init, 0, a)]
        reals = {ka.kstates[t].real: p for t, p in dist.items()}
        assert reals == {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert game.post[init][a] == mask_of(dist.support)


def test_fix_candidate_singleton_equals_slice():
    arena = g1()
    ka = build_knowledge_arena(arena)
    point = CandidateStrategy(
        strategy=KnowledgeOnlyStrategy({k: 0b01 for k in ka.knowledges}), index=None
    )
    game = fix_candidate(ka, point)
    dense = dense_fold(ka, point)
    pair = ka.eve_pairs.index((0, 0b01))
    for u in range(len(ka.kstates)):
        if ka.kstates[u].dom not in (0, 0b01):
            continue
        for a in range(2):
            assert dense.transition[(u, 0, a)] == ka.arena.transition[(u, pair, a)]
            assert game.post[u][a] == ka.post[u][pair][a]


def test_fix_candidate_keeps_final_absorbing():
    arena = g1()
    ka = build_knowledge_arena(arena)
    uniform = CandidateStrategy(
        strategy=KnowledgeOnlyStrategy({k: 0b11 for k in ka.knowledges}), index=None
    )
    game = fix_candidate(ka, uniform)
    dense = dense_fold(ka, uniform)
    assert game.final_mask == mask_of(dense.final) != 0
    for u in dense.final:
        for a in range(2):
            assert game.post[u][a] & ~game.final_mask == 0
            assert all(t in dense.final for t in dense.transition[(u, 0, a)].support)


def test_g1_reach_yes_with_uniform_witness():
    rep = decide_almost_sure_reach(g1())
    assert rep.verdict == "yes"
    # candidates with {a} or {b} alone at knowledge {s} fail first
    assert rep.candidates_checked == 7
    witness = rep.witness
    validate_strategy(g1(), "eve", witness)
    init_move = witness.move[witness.init_mem]
    assert dict(init_move.items()) == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    assert best_response_full_info(g1(), witness, Objective.REACHABILITY).probability == 1


def test_g2_reach_no():
    rep = decide_almost_sure_reach(g2())
    assert rep.verdict == "no"
    assert rep.witness is None
    assert rep.candidates_checked == 1
    assert rep.witness_winning_knowledges == ()


def test_init_final_trivially_yes():
    arena = parse_game(
        make_doc(["s"], "s", ["s"], ["a", "b"], ["x"], [["s"]], [["s"]], lambda s, e, a: {s: 1})
    )
    rep = decide_almost_sure_reach(arena)
    assert rep.verdict == "yes"
    assert rep.candidates_checked == 1


def test_g1_prime_buchi_yes():
    rep = decide_almost_sure_buchi(g1_prime())
    assert rep.verdict == "yes"
    assert best_response_full_info(g1_prime(), rep.witness, Objective.BUCHI).probability == 1


def test_g2_buchi_no():
    assert decide_almost_sure_buchi(g2()).verdict == "no"


def test_all_final_buchi_yes():
    arena = parse_game(
        make_doc(
            ["s", "t"], "s", ["s", "t"], ["a"], ["x", "y"],
            [["s", "t"]], [["s", "t"]],
            lambda s, e, a: {"t": 1} if s == "s" else {"s": 1},
        )
    )
    assert decide_almost_sure_buchi(arena).verdict == "yes"


def test_hidden_coin_beats_full_information_intuition():
    arena = hidden_coin()
    rep = decide_almost_sure_reach(arena)
    assert rep.verdict == "yes"
    # the witness relies on Adam's blindness: a fully informed Adam dodges
    assert best_response_full_info(arena, rep.witness, Objective.REACHABILITY).probability == 0
    assert brute_force_verdict(arena, Objective.REACHABILITY) == "unknown"


def test_report_deterministic():
    a = decide_almost_sure_reach(g1(), debug=True)
    b = decide_almost_sure_reach(g1(), debug=True)
    assert (a.verdict, a.candidates_checked, a.witness, a.witness_winning_knowledges) == (
        b.verdict,
        b.candidates_checked,
        b.witness,
        b.witness_winning_knowledges,
    )
    assert a.diagnostics == b.diagnostics


def test_parallel_matches_sequential():
    for arena in (g1(), g2(), hidden_coin()):
        for decide in (decide_almost_sure_reach, decide_almost_sure_buchi):
            seq = decide(arena, threads=1, debug=True)
            par = decide(arena, threads=2, debug=True)
            assert replace(par, elapsed_ms=0) == replace(seq, elapsed_ms=0)
    # a cap reports the canonical positions decided before it
    limits = []
    for threads in (1, 2):
        with pytest.raises(ResourceLimit) as capped:
            decide_almost_sure_buchi(hidden_coin(), threads=threads, max_candidates=2)
        limits.append((str(capped.value), capped.value.checked))
    assert limits == [("candidate enumeration exceeds cap of 2", 2)] * 2
    # the search builds no belief graph for a candidate a refutation
    # covers; the pool starts the search afresh at each range's start, and a
    # debug solve checks every candidate
    overflow = "belief graph exceeds 12 nodes"
    belief_capped = generate_arena(random_params(4, max_states=5, max_blocks=3))
    rep = decide_almost_sure_reach(belief_capped, max_beliefs=12)
    assert (rep.verdict, rep.candidates_checked) == ("yes", 28)
    searched_overflow = generate_arena(random_params(128, max_states=5, max_actions=2, max_blocks=3))
    for arena, threads, debug, checked in (
        (belief_capped, 2, False, 20),
        (belief_capped, 1, True, 2),
        (searched_overflow, 1, False, 27),
        (searched_overflow, 2, False, 10),
    ):
        with pytest.raises(ResourceLimit) as capped:
            decide_almost_sure_reach(arena, threads=threads, debug=debug, max_beliefs=12)
        assert (str(capped.value), capped.value.checked) == (overflow, checked)


def test_debug_diagnostics_cover_checked_candidates():
    rep = decide_almost_sure_reach(g1(), debug=True)
    assert rep.diagnostics is not None
    assert [d["index"] for d in rep.diagnostics] == list(range(rep.candidates_checked))
    assert rep.diagnostics[0]["adam_positively_wins"] is True
    assert rep.diagnostics[-1]["adam_positively_wins"] is False


def test_no_verdict_candidates_all_defeated_by_witness():
    arena = g2()
    ka = build_knowledge_arena(arena)
    for cand in enumerate_candidates(ka):
        wins, rep = check_candidate(ka, cand, Objective.REACHABILITY)
        assert not wins and rep.witness is not None
        adam_game = game_from_arena(dense_fold(ka, cand), ADAM)[1]
        trivial = FiniteMemoryStrategy.constant("eve", "*", len(adam_game.eve_obs))
        chain = build_chain(adam_game, trivial, rep.witness)
        assert objective_probability(chain, Objective.REACHABILITY) < 1


def test_degenerate_turn_based_matches_attractor():
    for seed in range(25):
        arena, owner, table = random_turn_based(seed)
        rep = decide_almost_sure_reach(arena)
        assert (rep.verdict == "yes") == attractor_verdict(arena, owner, table)


def test_random_safe_strategy_g1():
    arena = g1()
    ka = build_knowledge_arena(arena)
    cand = random_safe_strategy(ka, ka.knowledges)
    assert cand.index is None
    assert cand.strategy.choice[Knowledge.of([0])] == 0b11  # both actions stay in w


def test_random_safe_strategy_not_closed():
    arena = g1()
    ka = build_knowledge_arena(arena)
    with pytest.raises(NotClosed):
        random_safe_strategy(ka, [Knowledge.of([0])])  # successors escape to {f}


def test_random_safe_strategy_no_traps():
    arena = cycle_arena(3, 2)
    ka = build_knowledge_arena(arena)
    cand = random_safe_strategy(ka, ka.knowledges)
    assert all(mask == 0b11 for mask in cand.strategy.choice.values())


def test_solver_resource_limit():
    with pytest.raises(ResourceLimit):
        decide_almost_sure_reach(g1(), max_candidates=1)


def _report_key(rep):
    return (rep.winning_states, rep.sure_beliefs, rep.iterations, rep.witness)


def test_support_fold_matches_dense_fold():
    objectives = (
        (Objective.REACHABILITY, positive_safety),
        (Objective.BUCHI, positive_cobuchi),
    )
    compared = 0
    for seed in range(120):
        arena = generate_arena(random_params(7000 + seed, max_states=5, max_blocks=3))
        ka = build_knowledge_arena(arena)
        cands = list(islice(enumerate_candidates(ka), 20))
        checked = {
            (objective, cand.index): check_candidate(ka, cand, objective)
            for objective, _positive in objectives
            for cand in cands
        }
        # the solve path runs on the support tables alone
        assert "arena" not in vars(ka)
        shipped = pickle.dumps(ka)
        assert "arena" not in vars(pickle.loads(shipped))

        kaa = ka.arena
        assert len(pickle.dumps(ka)) > len(shipped)
        assert len(kaa.transition) == len(ka.kstates) * len(ka.eve_pairs) * len(arena.adam_actions)
        for (u, p, a), dist in kaa.transition.items():
            assert mask_of(dist.support) == ka.post[u][p][a]
        assert kaa.final == frozenset(bits(ka.final_mask))
        assert split_masks(block_masks(kaa.adam_obs), ka.final_mask) == ka.adam_cells

        for objective, positive in objectives:
            for cand in cands:
                wins, rep = checked[(objective, cand.index)]
                game = fix_candidate(ka, cand)
                dense, _ = game_from_arena(dense_fold(ka, cand), ADAM)
                assert (game.post, game.cells, game.final_mask) == (
                    dense.post,
                    dense.cells,
                    dense.final_mask,
                )
                want = positive(dense)
                assert _report_key(rep) == _report_key(want)
                assert wins == (dense.init not in want.winning_states)
                compared += 1
    assert compared > 1500


# Adam's reports as computed by a separate fixpoint loop per objective with
# an eagerly built witness; a rewrite of his side must not move any of them
ADAM_REPORTS_DIGEST = "5c15a910178722fb15bbc95fb0f285f68d86a77a08036bbcdc86f258a66eac1a"


def test_adam_reports_pinned():
    digest = hashlib.sha256()
    compared = 0
    for seed in range(60):
        ka = build_knowledge_arena(generate_arena(random_params(8000 + seed, max_states=5, max_blocks=3)))
        for cand in islice(enumerate_candidates(ka), 20):
            for objective in (Objective.REACHABILITY, Objective.BUCHI):
                wins, rep = check_candidate(ka, cand, objective)
                witness = None if rep.witness is None else serialize_strategy(rep.witness)
                key = (
                    wins,
                    sorted(rep.winning_states),
                    sorted(sorted(b) for b in rep.sure_beliefs),
                    rep.iterations,
                    witness,
                )
                digest.update(repr(key).encode())
                compared += 1
    assert compared == 672
    assert digest.hexdigest() == ADAM_REPORTS_DIGEST


def test_adam_witness_assembled_only_when_read(monkeypatch):
    calls = []
    assemble = halfplayer._assemble_witness

    def counting(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(halfplayer, "_assemble_witness", counting)
    for arena in (g1(), g1_prime(), g2(), hidden_coin()):
        decide_almost_sure_reach(arena)
        decide_almost_sure_buchi(arena)
    assert calls == []
    rep = decide_almost_sure_reach(g1(), debug=True)
    losing = [d for d in rep.diagnostics if d["adam_positively_wins"]]
    assert len(calls) == len(losing) == rep.candidates_checked - 1
    assert all(d["adam_witness_memory"] for d in losing)


def test_threads_below_one_rejected():
    for threads in (0, -3):
        with pytest.raises(ValidationError):
            decide_almost_sure_reach(g1(), threads=threads)


def test_pool_bounded_by_cpu_count(monkeypatch):
    sizes = []

    class NoPool:
        def __init__(self, max_workers, **_kwargs):
            sizes.append(max_workers)
            raise RuntimeError("no worker processes in this test")

    monkeypatch.setattr(solver, "ProcessPoolExecutor", NoPool)
    for cpus, threads in ((3, 5000), (3, 2), (None, 4)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        with pytest.raises(RuntimeError):
            decide_almost_sure_reach(g1(), threads=threads)
    assert sizes == [3, 2, 1]


def test_crashed_worker_is_an_error(monkeypatch):
    parent = os.getpid()
    check = solver.check_candidate

    def crashing(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return check(*args, **kwargs)

    def hung(_signum, _frame):
        raise TimeoutError("the pool hangs after a worker crashed")

    monkeypatch.setattr(solver, "check_candidate", crashing)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    t0 = time.perf_counter()
    try:
        with pytest.raises(BrokenProcessPool):
            decide_almost_sure_reach(hidden_coin(), threads=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < 5


SOLVE_REPORTS_DIGEST = "a723527c2b95cff1a0274d3de712042c44889063b16d1463703eb492a1213ac2"


def test_solve_reports_pinned():
    arenas = [g1(), g1_prime(), g2(), g3(), g4(), hidden_coin(), coin_chain()]
    arenas += [generate_arena(random_params(seed, max_states=5, max_blocks=3)) for seed in range(60)]
    digest = hashlib.sha256()
    verdicts = []
    for arena in arenas:
        for decide in (decide_almost_sure_reach, decide_almost_sure_buchi):
            doc = _report_dict(decide(arena, max_candidates=10**4, debug=True), {})
            del doc["elapsed_ms"]
            verdicts.append(doc["verdict"])
            digest.update(json.dumps(doc, sort_keys=True).encode())
    with pytest.raises(ResourceLimit) as capped:
        decide_almost_sure_buchi(hidden_coin(), max_candidates=2)
    digest.update(repr((str(capped.value), capped.value.checked)).encode())
    assert (verdicts.count("yes"), verdicts.count("no")) == (83, 51)
    assert digest.hexdigest() == SOLVE_REPORTS_DIGEST
