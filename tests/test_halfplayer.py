import pytest

from stochgames import (
    Objective,
    ValidationError,
    build_chain,
    objective_probability,
    positive_cobuchi,
    positive_safety,
)
from stochgames.halfplayer import OneHalfGame, build_belief_graph
from stochgames.model import ADAM, EVE, Arena, FiniteMemoryStrategy, parse_game, validate_strategy
from stochgames.gen import generate_arena, random_params

from instances import g2, g4, make_doc
from oracles import game_from_arena, mdp_positive_safety, refine_obs_by_final


def half_doc(states, init, final, actions, obs, rule):
    return make_doc(states, init, final, actions, ["x"], obs, [states], rule)


def eve_half(states, init, final, actions, obs, rule) -> OneHalfGame:
    return game_from_arena(parse_game(half_doc(states, init, final, actions, obs, rule)), EVE)[0]


def test_from_arena_requires_singleton_antagonist():
    arena = g2()  # eve has one action, adam has two
    with pytest.raises(ValidationError):
        game_from_arena(arena, EVE)  # the antagonist would have two actions
    assert game_from_arena(arena, ADAM)[0].protagonist == ADAM


def test_refine_obs_by_final():
    arena = parse_game(
        half_doc(["u", "v"], "u", ["v"], ["a"], [["u", "v"]], lambda s, e, a: {"v": 1})
    )
    refined = refine_obs_by_final(arena, EVE)
    assert refined.eve_obs == ((0,), (1,))
    assert refine_obs_by_final(refined, EVE) == refined


def test_sure_safety_absorbing_singleton():
    g = eve_half(
        ["s", "f"], "s", ["f"], ["a"], [["s"], ["f"]],
        lambda s, e, a: {s: 1},
    )
    assert frozenset({0}) in positive_safety(g).sure_beliefs


def test_sure_safety_forced_hit_not_sure():
    g = eve_half(
        ["s", "f"], "s", ["f"], ["a", "b"], [["s"], ["f"]],
        lambda s, e, a: {"f": "1/2", "s": "1/2"} if s == "s" else {s: 1},
    )
    assert frozenset({0}) not in positive_safety(g).sure_beliefs


def test_sure_safety_g2_adam_protagonist():
    # G2 with Adam as protagonist: from s0, action y surely avoids f
    g, _ = game_from_arena(g2(), ADAM)
    assert frozenset({0}) in positive_safety(g).sure_beliefs


def test_sure_safety_downward_absorbing():
    for seed in range(15):
        arena = generate_arena(random_params(seed, max_actions=1))
        g, _ = game_from_arena(arena, ADAM)
        graph = build_belief_graph(g)
        sure = {sum(1 << s for s in b) for b in positive_safety(g).sure_beliefs}
        for b in sure:
            assert any(
                all(c in sure for c in graph.succ[b][a]) for a in range(len(g.actions))
            )


def test_positive_safety_trivial_path():
    g = eve_half(["s", "f"], "s", ["f"], ["a"], [["s"], ["f"]], lambda s, e, a: {s: 1})
    rep = positive_safety(g)
    assert 0 in rep.winning_states
    assert rep.witness is not None and len(rep.witness.memory) == 1


def test_positive_safety_unreachable_island():
    # every state final except an unreachable safe one
    g = eve_half(
        ["s", "safe"], "s", ["s"], ["a"], [["s"], ["safe"]],
        lambda s, e, a: {s: 1},
    )
    rep = positive_safety(g)
    assert 0 not in rep.winning_states
    assert rep.winning_states == frozenset({1})
    assert rep.witness is None


def test_positive_safety_g2_fold():
    g, refined = game_from_arena(g2(), ADAM)
    rep = positive_safety(g)
    assert refined.init in rep.winning_states
    assert rep.witness is not None
    validate_strategy(refined, ADAM, rep.witness)
    trivial = FiniteMemoryStrategy.constant(EVE, "a", len(refined.eve_obs))
    chain = build_chain(refined, trivial, rep.witness)
    assert objective_probability(chain, Objective.SAFETY) > 0


def test_positive_safety_monotone_in_final():
    for seed in range(12):
        params = random_params(seed, max_actions=1)
        arena = generate_arena(params)
        if len(arena.final) == arena.n_states:
            continue
        g, _ = game_from_arena(arena, ADAM)
        extra = next(s for s in range(arena.n_states) if s not in arena.final)
        bigger = Arena(
            states=arena.states,
            init=arena.init,
            eve_actions=arena.eve_actions,
            adam_actions=arena.adam_actions,
            transition=arena.transition,
            eve_obs=arena.eve_obs,
            adam_obs=arena.adam_obs,
            final=arena.final | {extra},
        )
        g_big, _ = game_from_arena(bigger, ADAM)
        assert positive_safety(g_big).winning_states <= positive_safety(g).winning_states
        assert positive_cobuchi(g_big).winning_states <= positive_cobuchi(g).winning_states


def test_positive_safety_agrees_with_mdp_oracle():
    disagreements = 0
    for seed in range(60):
        params = random_params(seed)
        arena = generate_arena(params)
        # perfect information for the protagonist, singleton antagonist
        discrete = tuple((s,) for s in range(arena.n_states))
        arena = Arena(
            states=arena.states,
            init=arena.init,
            eve_actions=arena.eve_actions[:1],
            adam_actions=arena.adam_actions,
            transition={
                (s, 0, a): d for (s, e, a), d in arena.transition.items() if e == 0
            },
            eve_obs=arena.eve_obs,
            adam_obs=discrete,
            final=arena.final,
        )
        g, refined = game_from_arena(arena, ADAM)
        got = arena.init in positive_safety(g).winning_states
        want = mdp_positive_safety(refined)
        disagreements += got != want
    assert disagreements == 0


def test_positive_safety_witness_value_positive():
    for seed in range(40):
        arena = generate_arena(random_params(seed, max_actions=1))
        g, refined = game_from_arena(arena, ADAM)
        rep = positive_safety(g)
        if rep.witness is None:
            continue
        trivial = FiniteMemoryStrategy.constant(EVE, arena.eve_actions[0], len(refined.eve_obs))
        chain = build_chain(refined, trivial, rep.witness)
        assert objective_probability(chain, Objective.SAFETY) > 0


def test_iteration_bound():
    for seed in range(20):
        arena = generate_arena(random_params(seed, max_actions=1))
        g, _ = game_from_arena(arena, ADAM)
        graph = build_belief_graph(g)
        rep = positive_safety(g)
        assert rep.iterations <= len(graph.nodes) <= 2 ** arena.n_states
        assert len(graph.nodes) >= 1


def test_belief_graph_deterministic_per_observation():
    # from one belief and action, each (observation block, final part) cell
    # yields at most one successor
    for seed in range(10):
        arena = generate_arena(random_params(seed, max_actions=1))
        g, refined = game_from_arena(arena, ADAM)
        graph = build_belief_graph(g)
        block_masks = [sum(1 << s for s in block) for block in refined.obs_blocks(ADAM)]
        final_mask = sum(1 << s for s in refined.final)
        for b in graph.nodes:
            for row in graph.succ[b]:
                cells = set()
                for succ in row:
                    block = next(i for i, m in enumerate(block_masks) if succ & m)
                    assert succ & ~block_masks[block] == 0  # inside one block
                    cell = (block, bool(succ & final_mask))
                    assert cell not in cells
                    cells.add(cell)


def test_sure_cobuchi_loop_forever():
    g = eve_half(["s", "f"], "s", ["f"], ["a"], [["s"], ["f"]], lambda s, e, a: {s: 1})
    assert frozenset({0}) in positive_cobuchi(g).sure_beliefs


def test_sure_cobuchi_forced_cycle_not_sure():
    # every play alternates through the final state forever
    g = eve_half(
        ["s", "f"], "s", ["f"], ["a"], [["s"], ["f"]],
        lambda s, e, a: {"f": 1} if s == "s" else {"s": 1},
    )
    assert frozenset({0}) not in positive_cobuchi(g).sure_beliefs
    rep = positive_cobuchi(g)
    assert rep.winning_states == frozenset()


def test_sure_cobuchi_g4_escape():
    g, _ = game_from_arena(g4(), EVE)
    sure = positive_cobuchi(g).sure_beliefs
    assert frozenset({0}) in sure  # u escapes after one final visit
    assert frozenset({1}) in sure


def test_positive_cobuchi_through_final():
    g, refined = game_from_arena(g4(), EVE)
    rep = positive_cobuchi(g)
    assert rep.winning_states == frozenset({0, 1, 2})
    assert rep.witness is not None
    trivial = FiniteMemoryStrategy.constant(ADAM, "x", len(refined.adam_obs))
    chain = build_chain(refined, rep.witness, trivial)
    assert objective_probability(chain, Objective.COBUCHI) > 0


def test_positive_cobuchi_all_final_self_loops():
    g = eve_half(["s"], "s", ["s"], ["a"], [["s"]], lambda s, e, a: {s: 1})
    rep = positive_cobuchi(g)
    assert rep.winning_states == frozenset()
    assert rep.witness is None


def test_positive_cobuchi_witness_value_positive():
    for seed in range(40):
        arena = generate_arena(random_params(seed, max_actions=1))
        g, refined = game_from_arena(arena, ADAM)
        rep = positive_cobuchi(g)
        if rep.witness is None:
            continue
        trivial = FiniteMemoryStrategy.constant(EVE, arena.eve_actions[0], len(refined.eve_obs))
        chain = build_chain(refined, trivial, rep.witness)
        assert objective_probability(chain, Objective.COBUCHI) > 0
