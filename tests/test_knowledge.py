import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgames import (
    InconsistentObservation,
    ResourceLimit,
    ValidationError,
    adapt_adam_strategy,
    build_chain,
    build_knowledge_arena,
    knowledge_update,
    lift_strategy,
    lower_strategy,
    objective_probability,
    serialize_game,
    validate_strategy,
)
from stochgames.bitset import bits, mask_of
from stochgames.model import EVE, ADAM, Objective, parse_game
from stochgames.evaluation import simulate_play, _Compiled
from stochgames.gen import generate_arena, random_params

from instances import coin_chain, g1, g1_prime, g2, g3, g4, hidden_coin, one_state_doc
from oracles import triple_census
from util import random_strategy


def test_update_absorbing_identity():
    arena = parse_game(one_state_doc())
    k = mask_of([0])
    assert knowledge_update(arena, k, 0, mask_of([0])) == k


def test_update_g3_blind_pair():
    arena = g3()
    out = knowledge_update(arena, mask_of([0]), 1, mask_of([0]))
    assert out == mask_of([1, 2])


def test_update_g3_inconsistent():
    arena = g3()
    with pytest.raises(InconsistentObservation):
        knowledge_update(arena, mask_of([0]), 0, mask_of([0]))


def test_update_requires_domain():
    with pytest.raises(ValidationError, match="action set"):
        knowledge_update(g3(), mask_of([0]), 0, 0)
    for know in (0, 1 << 10, -1):
        with pytest.raises(ValidationError, match="knowledge"):
            knowledge_update(g3(), know, 0, 1)
    for block in (-1, 2, 7):
        with pytest.raises(ValidationError, match="observation block"):
            knowledge_update(g3(), mask_of([0]), block, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_update_monotone_in_knowledge(seed, data):
    arena = generate_arena(random_params(seed))
    n = arena.n_states
    small_states = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    extra = data.draw(st.sets(st.integers(0, n - 1)))
    dom = data.draw(st.sets(st.integers(0, len(arena.eve_actions) - 1), min_size=1))
    dom = mask_of(dom)
    small = mask_of(small_states)
    big = mask_of(small_states | extra)
    for block in range(len(arena.eve_obs)):
        try:
            out_small = knowledge_update(arena, small, block, dom)
        except InconsistentObservation:
            continue
        out_big = knowledge_update(arena, big, block, dom)
        assert out_small & ~out_big == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**4))
def test_tracked_knowledge_contains_real_state(seed, strat_seed):
    arena = generate_arena(random_params(seed))
    rng = random.Random(strat_seed)
    eve = random_strategy(arena, EVE, rng)
    adam = random_strategy(arena, ADAM, rng)
    states = simulate_play(arena, eve, adam, horizon=12, rng=rng)
    ce = _Compiled(arena, eve, EVE)
    know = mask_of([arena.init])
    mem = ce.init
    for t in states[1:]:
        dom = mask_of(e for e, _p in ce.move[mem])
        know = knowledge_update(arena, know, arena.eve_block_of[t], dom)
        mem = ce.update[mem][t]
        assert know >> t & 1


def test_perfect_information_collapses_to_singletons():
    arena = g1()  # discrete partitions
    ka = build_knowledge_arena(arena)
    assert all(know.bit_count() == 1 for _real, know in ka.kstates)


def test_g3_reaches_blind_pair():
    ka = build_knowledge_arena(g3())
    assert mask_of([1, 2]) in ka.knowledges


def test_one_state_arena_kstates():
    arena = parse_game(one_state_doc())
    ka = build_knowledge_arena(arena)
    # one knowledge state; the census counts the paper's two triples, the
    # initial one and the one after playing {a}
    assert ka.kstates == ((0, 0b1),)
    assert ka.census == (2, 1, 2)


def test_observation_consistency():
    for seed in range(20):
        arena = generate_arena(random_params(seed))
        ka = build_knowledge_arena(arena)
        for real, know in ka.kstates:
            blocks = {arena.eve_block_of[s] for s in bits(know)}
            assert len(blocks) == 1
            assert know >> real & 1


def test_delta_support_projection():
    for seed in range(10):
        arena = generate_arena(random_params(seed))
        ka = build_knowledge_arena(arena)
        for (u, p, a), dist in ka.arena.transition.items():
            e, _dom = ka.eve_pairs[p]
            real = ka.kstates[u][0]
            reals = {ka.kstates[t][0] for t in dist.support}
            expected = set(arena.transition[(real, e, a)].support)
            assert reals == expected
            for t, q in dist.items():
                assert q == arena.transition[(real, e, a)][ka.kstates[t][0]]


def test_census_counts():
    ka = build_knowledge_arena(g1())
    kstates, knowledges, edges = ka.census
    assert (kstates, knowledges, edges) == triple_census(g1())
    assert kstates > len(ka.kstates)
    assert knowledges == len(ka.knowledges) == 2
    assert edges > 0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**6), shape=st.sampled_from(((5, 2), (6, 2), (6, 3))))
def test_census_matches_triple_closure(seed, shape):
    max_states, max_actions = shape
    arena = generate_arena(random_params(seed, max_states=max_states, max_actions=max_actions, max_blocks=3))
    assert build_knowledge_arena(arena).census == triple_census(arena)


# the census of each arena below, on the paper's triples.  It picks
# perfbench's corpora (``SMALL_EDGE_BANDS`` and ``LARGE_BANDS`` in
# perfbench/workloads.py bin games by it), so changing what it counts
# changes the benchmark's games
KNOWLEDGE_CENSUS_DIGEST = "65bf2e98f8988d020a7c3e35e06802341600fcdca6b2e5e2581a423aa01300c3"
# knowledge states in discovery order, with their exact weighted arena; a
# change to the build must not renumber or reweight any of them
KNOWLEDGE_DUMPS_DIGEST = "8295a22b22f577d916bbe2b5f8b7c4a30cb2797d5ac7f47e259bc14d4e5edda0"


def test_knowledge_arena_pinned():
    arenas = [g1(), g1_prime(), g2(), g3(), g4(), hidden_coin(), coin_chain()]
    arenas += [generate_arena(random_params(seed, max_states=5, max_blocks=3)) for seed in range(60)]
    arenas += [generate_arena(random_params(seed, max_states=4, max_actions=3)) for seed in range(20)]
    census, dumps = hashlib.sha256(), hashlib.sha256()
    for arena in arenas:
        ka = build_knowledge_arena(arena)
        census.update(json.dumps(ka.census).encode())
        dumps.update(serialize_game(ka.arena).encode())
    assert len(arenas) == 87
    assert census.hexdigest() == KNOWLEDGE_CENSUS_DIGEST
    assert dumps.hexdigest() == KNOWLEDGE_DUMPS_DIGEST


def test_resource_limit():
    with pytest.raises(ResourceLimit):
        build_knowledge_arena(g1(), max_states=1)
    # the one-state arena has one knowledge state: a cap of 0 is still a
    # resource limit, and a cap of 1 fits it
    one_state = parse_game(one_state_doc())
    with pytest.raises(ResourceLimit, match="knowledge arena exceeds 0 states"):
        build_knowledge_arena(one_state, max_states=0)
    assert len(build_knowledge_arena(one_state, max_states=1).kstates) == 1


def test_lift_uniform_is_well_formed():
    arena = g1()
    ka = build_knowledge_arena(arena)
    from stochgames.model import FiniteMemoryStrategy

    eve = FiniteMemoryStrategy.memoryless_uniform(EVE, ["a", "b"], n_blocks=2)
    lifted = lift_strategy(ka, eve)
    validate_strategy(ka.arena, EVE, lifted)
    for dist in lifted.move.values():
        # every pair action carries its own support annotation {a,b}
        assert all(name.endswith("|{a,b}") for name in dist.support)


def test_lift_deterministic_singleton_support():
    arena = g1()
    ka = build_knowledge_arena(arena)
    from stochgames.model import FiniteMemoryStrategy

    eve = FiniteMemoryStrategy.constant(EVE, "a", n_blocks=2)
    lifted = lift_strategy(ka, eve)
    assert all(list(dist.support) == ["a|{a}"] for dist in lifted.move.values())


def test_lift_preserves_memory():
    rng = random.Random(7)
    arena = g1()
    ka = build_knowledge_arena(arena)
    eve = random_strategy(arena, EVE, rng, max_memory=2)
    lifted = lift_strategy(ka, eve)
    assert lifted.memory == eve.memory
    assert lifted.init_mem == eve.init_mem


@pytest.mark.parametrize("translate,owner,action", [(lift_strategy, ADAM, "x"), (adapt_adam_strategy, EVE, "a")])
def test_translations_reject_the_other_players_strategy(translate, owner, action):
    from stochgames.model import FiniteMemoryStrategy

    ka = build_knowledge_arena(g1())
    with pytest.raises(ValidationError, match="owned by"):
        translate(ka, FiniteMemoryStrategy.constant(owner, action, n_blocks=2))


def test_lower_constant_choice():
    arena = parse_game(one_state_doc())
    strat = lower_strategy(arena, {mask_of([0]): 1})
    validate_strategy(arena, EVE, strat)
    assert all(list(dist.support) == ["a"] for dist in strat.move.values())


def test_lower_g1_memory_is_reachable_pairs():
    arena = g1()
    strat = lower_strategy(arena, {mask_of([0]): 0b11, mask_of([1]): 0b01})
    validate_strategy(arena, EVE, strat)
    # ({s},-), ({s},{a,b}), ({f},{a,b}), ({f},{a})
    assert len(strat.memory) == 4


def test_lower_requires_total_choice():
    arena = g1()
    with pytest.raises(ValidationError, match="undefined"):
        lower_strategy(arena, {mask_of([0]): 0b11})
    for outside in (0, 0b100):
        with pytest.raises(ValidationError, match="action sets in 1..3"):
            lower_strategy(arena, {mask_of([0]): outside, mask_of([1]): 0b01})


def test_lower_then_lift_same_play_distribution():
    rng = random.Random(11)
    for seed in range(8):
        arena = generate_arena(random_params(seed))
        ka = build_knowledge_arena(arena)
        choice = {
            k: rng.randrange(1, 1 << len(arena.eve_actions)) for k in ka.knowledges
        }
        lowered = lower_strategy(arena, choice)
        lifted = lift_strategy(ka, lowered)
        adam = adapt_adam_strategy(ka, random_strategy(arena, ADAM, rng))
        base_adam = random_strategy(arena, ADAM, rng)
        adam = adapt_adam_strategy(ka, base_adam)
        for objective in (Objective.REACHABILITY, Objective.BUCHI):
            p_base = objective_probability(build_chain(arena, lowered, base_adam), objective)
            p_ka = objective_probability(build_chain(ka.arena, lifted, adam), objective)
            assert p_base == p_ka


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**4))
def test_probability_equality_on_knowledge_arena(seed, strat_seed):
    arena = generate_arena(random_params(seed))
    rng = random.Random(strat_seed)
    eve = random_strategy(arena, EVE, rng)
    adam = random_strategy(arena, ADAM, rng)
    ka = build_knowledge_arena(arena)
    eve_k = lift_strategy(ka, eve)
    adam_k = adapt_adam_strategy(ka, adam)
    for objective in (Objective.REACHABILITY, Objective.BUCHI):
        p_base = objective_probability(build_chain(arena, eve, adam), objective)
        p_ka = objective_probability(build_chain(ka.arena, eve_k, adam_k), objective)
        assert p_base == p_ka
