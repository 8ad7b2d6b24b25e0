import hashlib
import json
import pickle
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochgames import (
    ValidationError,
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
    serialize_strategy,
    validate_strategy,
)
from stochgames import solver
from stochgames.cli import _report_dict
from stochgames.bitset import bits, block_masks, mask_of, split_masks
from stochgames.gen import GenParams, generate_arena, random_params
from stochgames.model import ADAM, FiniteMemoryStrategy, parse_game
from stochgames.solver import _candidate_at, candidate_count, check_candidate
from instances import coin_chain, cycle_arena, g1, g1_prime, g2, g3, g4, hidden_coin, make_doc
from oracles import (
    attractor_verdict,
    brute_force_verdict,
    dense_fold,
    enumerate_candidates,
    game_from_arena,
    positive_witness,
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
    assert len(cands) == len(set(cands)) == 9
    assert cands[0] == (1, 1)
    # last component varies fastest
    assert [c[1] for c in cands[:3]] == [1, 2, 3]
    assert all(c[0] == 1 for c in cands[:3])


def test_enumeration_resource_limit():
    ka = build_knowledge_arena(cycle_arena(3, 2))
    stream = enumerate_candidates(ka, max_candidates=5)
    got = []
    with pytest.raises(ResourceLimit):
        for cand in stream:
            got.append(cand)
    assert got == [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2)]


def test_fix_candidate_uniform_mixes():
    arena = g1()
    ka = build_knowledge_arena(arena)
    uniform = (0b11,) * len(ka.knowledges)
    game = fix_candidate(ka, uniform)
    dense = dense_fold(ka, uniform)
    init = dense.init
    assert game.init == init == 0
    for a in range(2):
        dist = dense.transition[(init, 0, a)]
        reals = {ka.kstates[t][0]: p for t, p in dist.items()}  # (real, know)
        assert reals == {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert game.post[0][a] == mask_of(dist.support)


def test_fix_candidate_singleton_equals_slice():
    arena = g1()
    ka = build_knowledge_arena(arena)
    point = (0b01,) * len(ka.knowledges)
    game = fix_candidate(ka, point)
    dense = dense_fold(ka, point)
    pair = ka.eve_pairs.index((0, 0b01))
    for u in range(len(ka.kstates)):
        for a in range(2):
            dist = dense.transition[(u, 0, a)]
            assert dist == ka.arena.transition[(u, pair, a)]
            assert game.post[u][a] == ka.post[u][0b01 - 1][a] == mask_of(dist.support)


def test_fix_candidate_keeps_final_absorbing():
    arena = g1()
    ka = build_knowledge_arena(arena)
    uniform = (0b11,) * len(ka.knowledges)
    game = fix_candidate(ka, uniform)
    dense = dense_fold(ka, uniform)
    assert game.final_mask == mask_of(dense.final) != 0
    for u in dense.final:
        for a in range(2):
            assert game.post[u][a] & ~game.final_mask == 0
            assert all(t in dense.final for t in dense.transition[(u, 0, a)].support)


def test_fix_candidate_rejects_malformed():
    for arena in (g1(), generate_arena(random_params(3, max_states=4, max_actions=3))):
        ka = build_knowledge_arena(arena)
        n, m = len(ka.knowledges), (1 << len(arena.eve_actions)) - 1
        fine = (m,) * n
        fix_candidate(ka, fine)
        for bad in (fine[1:], fine + (1,), (0,) + fine[1:], fine[1:] + (m + 1,)):
            with pytest.raises(ValidationError, match="candidate"):
                fix_candidate(ka, bad)


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


def _plain(rep):
    return replace(rep, elapsed_ms=0, diagnostics=None)


def test_caps_report_positions_decided():
    # a cap reports the canonical positions decided before it
    with pytest.raises(ResourceLimit) as capped:
        decide_almost_sure_buchi(hidden_coin(), threads=1, max_candidates=2)
    assert (str(capped.value), capped.value.checked) == ("candidate enumeration exceeds cap of 2", 2)
    # the search builds no belief graph for a candidate a refutation
    # covers, debug or not: the one at position 85 overflows the cap
    overflow = "belief graph exceeds 20 nodes"
    belief_capped = generate_arena(GenParams(4, 2, 2, 0.8, 3, 1, 1, seed=883))
    ka = build_knowledge_arena(belief_capped)
    with pytest.raises(ResourceLimit, match=overflow):
        check_candidate(ka, _candidate_at(ka, 85), Objective.REACHABILITY, max_beliefs=20)
    reps = [decide_almost_sure_reach(belief_capped, debug=debug, max_beliefs=20) for debug in (False, True)]
    assert (reps[0].verdict, reps[0].candidates_checked) == ("yes", 165)
    assert _plain(reps[0]) == _plain(reps[1])
    assert 85 not in {d["index"] for d in reps[1].diagnostics}
    searched_overflow = generate_arena(GenParams(5, 2, 2, 0.5, 3, 1, 3, seed=73))
    for debug in (False, True):
        with pytest.raises(ResourceLimit) as capped:
            decide_almost_sure_reach(searched_overflow, threads=1, debug=debug, max_beliefs=20)
        assert (str(capped.value), capped.value.checked) == (overflow, 81)


def test_knowledge_cap_counts_knowledge_states():
    # 15 triples in the census but 6 knowledge states: a cap of 12 lets the
    # search run, and Adam's belief graph is what overflows it
    arena = generate_arena(GenParams(4, 2, 2, 0.8, 3, 1, 1, seed=883))
    ka = build_knowledge_arena(arena, max_states=6)
    assert (len(ka.kstates), ka.census[0]) == (6, 15)
    with pytest.raises(ResourceLimit, match="knowledge arena exceeds 5 states"):
        build_knowledge_arena(arena, max_states=5)
    with pytest.raises(ResourceLimit) as capped:
        decide_almost_sure_reach(arena, max_beliefs=12)
    assert (str(capped.value), capped.value.checked) == ("belief graph exceeds 12 nodes", 27)


def test_debug_diagnostics_cover_checked_candidates():
    """A debug solve's entries, one per Adam check, tile the positions the
    search decides; on "no" the fixpoint proved those after the last."""
    proven = generate_arena(random_params(103, max_states=6, max_actions=3, max_blocks=3))
    for arena, verdict, entries, checked in ((g1(), "yes", 3, 7), (proven, "no", 1, 823543)):
        rep = decide_almost_sure_reach(arena, debug=True)
        assert (rep.verdict, len(rep.diagnostics), rep.candidates_checked) == (verdict, entries, checked)
        starts = [d["index"] for d in rep.diagnostics]
        ends = [d["next_index"] for d in rep.diagnostics]
        assert starts == [0] + ends[:-1]
        assert rep.diagnostics[0]["adam_positively_wins"] is True
        if verdict == "yes":
            assert rep.diagnostics[-1]["adam_positively_wins"] is False
            assert ends[-1] == rep.candidates_checked
        else:
            assert ends[-1] < rep.candidates_checked


def test_no_verdict_candidates_all_defeated_by_witness():
    arena = g2()
    ka = build_knowledge_arena(arena)
    for cand in enumerate_candidates(ka):
        wins, rep = check_candidate(ka, cand, Objective.REACHABILITY)
        assert not wins and rep.play is not None
        adam_game = game_from_arena(dense_fold(ka, cand), ADAM)[1]
        trivial = FiniteMemoryStrategy.constant("eve", "*", len(adam_game.eve_obs))
        chain = build_chain(adam_game, trivial, positive_witness(rep.play, ADAM, ka.state_names))
        assert objective_probability(chain, Objective.REACHABILITY) < 1


def test_degenerate_turn_based_matches_attractor():
    for seed in range(25):
        arena, owner, table = random_turn_based(seed)
        rep = decide_almost_sure_reach(arena)
        assert (rep.verdict == "yes") == attractor_verdict(arena, owner, table)


def test_solver_resource_limit():
    with pytest.raises(ResourceLimit):
        decide_almost_sure_reach(g1(), max_candidates=1)


def _assert_fold_agrees(ka, cand, objective, checked):
    """``check_candidate``'s result ``checked`` on the support tables agrees
    with Adam's analysis of the exact fold: the game's tables, the verdict,
    the winning states and the sure beliefs."""
    wins, rep = checked
    game = fix_candidate(ka, cand)
    dense, _ = game_from_arena(dense_fold(ka, cand), ADAM)
    assert (game.post, game.cells, game.final_mask) == (dense.post, dense.cells, dense.final_mask)
    positive = positive_safety if objective is Objective.REACHABILITY else positive_cobuchi
    want = positive(dense)
    assert wins == (dense.init not in want.winning_states)
    assert rep.winning_states == want.winning_states
    assert rep.sure_beliefs == want.sure_beliefs


def test_support_fold_matches_dense_fold():
    objectives = (Objective.REACHABILITY, Objective.BUCHI)
    compared = 0
    for seed in range(120):
        arena = generate_arena(random_params(7000 + seed, max_states=5, max_blocks=3))
        ka = build_knowledge_arena(arena)
        cands = list(islice(enumerate_candidates(ka), 20))
        checked = {
            (objective, cand): check_candidate(ka, cand, objective)
            for objective in objectives
            for cand in cands
        }
        # the solve path runs on the support tables alone
        assert "arena" not in vars(ka)
        shipped = pickle.dumps(ka)
        assert "arena" not in vars(pickle.loads(shipped))

        kaa = ka.arena
        assert len(pickle.dumps(ka)) > len(shipped)
        assert len(kaa.transition) == len(ka.kstates) * len(ka.eve_pairs) * len(arena.adam_actions)
        # playing support s reaches the union of the pairs (e, s), e in s
        union = {}
        for (u, p, a), dist in kaa.transition.items():
            key = (u, ka.eve_pairs[p][1], a)
            union[key] = union.get(key, 0) | mask_of(dist.support)
        assert len(union) == len(ka.kstates) * len(ka.post[0]) * len(arena.adam_actions)
        for (u, s, a), mask in union.items():
            assert mask == ka.post[u][s - 1][a]
        assert kaa.final == frozenset(bits(ka.final_mask))
        assert split_masks(block_masks(kaa.adam_obs), mask_of(kaa.final)) == ka.adam_cells

        for objective in objectives:
            for cand in cands:
                _assert_fold_agrees(ka, cand, objective, checked[(objective, cand)])
                compared += 1
    assert compared > 1500


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(((5, 2), (6, 2), (6, 3))),
    objective=st.sampled_from((Objective.REACHABILITY, Objective.BUCHI)),
    data=st.data(),
)
def test_check_matches_dense_fold(seed, shape, objective, data):
    max_states, max_actions = shape
    arena = generate_arena(random_params(seed, max_states=max_states, max_actions=max_actions, max_blocks=3))
    ka = build_knowledge_arena(arena)
    cand = _candidate_at(ka, data.draw(st.integers(0, candidate_count(ka) - 1)))
    _assert_fold_agrees(ka, cand, objective, check_candidate(ka, cand, objective))


# Adam's reports on the (real, know) knowledge states, as computed by a separate
# fixpoint loop per objective with an eagerly built witness; a rewrite of his
# side must not move any of them (the witnesses are now lowered from his play
# by the oracle ``positive_witness``)
ADAM_REPORTS_DIGEST = "e57e0ec6b5440db3eecc72d7016fbe4d247738c4985c66ad587839d1b2493e8e"


def test_adam_reports_pinned():
    digest = hashlib.sha256()
    compared = 0
    for seed in range(60):
        ka = build_knowledge_arena(generate_arena(random_params(8000 + seed, max_states=5, max_blocks=3)))
        for cand in islice(enumerate_candidates(ka), 20):
            for objective in (Objective.REACHABILITY, Objective.BUCHI):
                wins, rep = check_candidate(ka, cand, objective)
                witness = None if rep.play is None else positive_witness(rep.play, ADAM, ka.state_names)
                if witness is not None:
                    assert solver._diag_entry(ka, 0, cand, rep, 1)["adam_witness_memory"] == len(witness.memory)
                    witness = serialize_strategy(witness)
                key = (
                    wins,
                    sorted(rep.winning_states),
                    sorted(sorted(bits(b)) for b in rep.sure_beliefs),
                    rep.iterations,
                    witness,
                )
                digest.update(repr(key).encode())
                compared += 1
    assert compared == 672
    assert digest.hexdigest() == ADAM_REPORTS_DIGEST


def test_knowledge_states_named_only_when_read(monkeypatch):
    """No solve names the knowledge states, a debug solve included: its
    diagnostics count the memory of Adam's witness without building it."""
    built = []

    def recording(*args):
        built.append(build_knowledge_arena(*args))
        return built[-1]

    monkeypatch.setattr(solver, "build_knowledge_arena", recording)
    arenas = (g1(), g1_prime(), g2(), g3(), g4(), hidden_coin(), coin_chain())
    for arena in arenas:
        decide_almost_sure_reach(arena)
        decide_almost_sure_buchi(arena)
    rep = decide_almost_sure_reach(g1(), debug=True)
    assert any(d["adam_witness_memory"] for d in rep.diagnostics)
    assert len(built) == 2 * len(arenas) + 1
    assert not any("state_names" in vars(ka) for ka in built)


def test_threads_below_one_rejected():
    for threads in (0, -3):
        with pytest.raises(ValidationError):
            decide_almost_sure_reach(g1(), threads=threads)


# the solve reports without their ``candidates`` arrays, which is all a
# debug report adds to the plain one; re-recorded when the witnesses' memory
# became Eve's knowledges, with every other field unchanged
SOLVE_REPORTS_DIGEST = "c29fa2cfafe854cafd58673113a913377a21000d082a038656901827880f3bba"
# the ``candidates`` arrays, one entry per Adam check of the search, whose
# state counts are of Adam's game on the (real, know) knowledge states
SOLVE_CANDIDATES_DIGEST = "333d9712e35d01637f902196e06aa044673e8d38144caf36bcc5d9732945433b"


def test_solve_reports_pinned():
    arenas = [g1(), g1_prime(), g2(), g3(), g4(), hidden_coin(), coin_chain()]
    arenas += [generate_arena(random_params(seed, max_states=5, max_blocks=3)) for seed in range(60)]
    digest, candidates = hashlib.sha256(), hashlib.sha256()
    verdicts = []
    for arena in arenas:
        for decide in (decide_almost_sure_reach, decide_almost_sure_buchi):
            doc = _report_dict(decide(arena, max_candidates=10**4, debug=True), {})
            del doc["elapsed_ms"]
            candidates.update(json.dumps(doc.pop("candidates"), sort_keys=True).encode())
            verdicts.append(doc["verdict"])
            digest.update(json.dumps(doc, sort_keys=True).encode())
    with pytest.raises(ResourceLimit) as capped:
        decide_almost_sure_buchi(hidden_coin(), max_candidates=2)
    digest.update(repr((str(capped.value), capped.value.checked)).encode())
    assert (verdicts.count("yes"), verdicts.count("no")) == (83, 51)
    assert digest.hexdigest() == SOLVE_REPORTS_DIGEST
    assert candidates.hexdigest() == SOLVE_CANDIDATES_DIGEST
