import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgames import (
    Distribution,
    Objective,
    best_response_full_info,
    buchi_probability,
    build_chain,
    monte_carlo,
    objective_probability,
    reach_probability,
)
from stochgames.evaluation import (
    _Mdp,
    absorption_values,
    almost_sure,
    bottom_sccs,
    simulate_play,
)
from stochgames.model import ADAM, EVE, FiniteMemoryStrategy, parse_game
from stochgames.gen import GenParams, generate_arena, random_params

from instances import coin_chain, g1, g1_prime, g2, hidden_coin, make_doc
from oracles import (
    brute_force_verdict,
    dense_absorption_values,
    enumerate_policies,
    is_play_prefix,
    nx_bottom_sccs,
)
from util import random_strategy


def uniform_eve(arena):
    return FiniteMemoryStrategy.memoryless_uniform(EVE, arena.eve_actions, len(arena.eve_obs))


def constant_adam(arena, action):
    return FiniteMemoryStrategy.constant(ADAM, action, len(arena.adam_obs))


def test_chain_deterministic_pair_is_functional():
    arena = g2()
    chain = build_chain(arena, uniform_eve(arena), constant_adam(arena, "y"))
    assert all(len(row) == 1 for row in chain.edges)


def test_chain_g1_uniform_vs_constant():
    arena = g1()
    chain = build_chain(arena, uniform_eve(arena), constant_adam(arena, "x"))
    init_row = chain.edges[chain.init]
    by_state = {chain.nodes[v][0]: p for v, p in init_row.items()}
    assert by_state == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_chain_absorbing_final_self_loop():
    arena = g1()
    chain = build_chain(arena, uniform_eve(arena), constant_adam(arena, "x"))
    for v in chain.final:
        assert chain.edges[v] == {v: Fraction(1)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**4))
def test_chain_rows_sum_to_one(seed, strat_seed):
    arena = generate_arena(random_params(seed))
    rng = random.Random(strat_seed)
    chain = build_chain(arena, random_strategy(arena, EVE, rng), random_strategy(arena, ADAM, rng))
    for row in chain.edges:
        assert sum(row.values(), Fraction(0)) == 1


def test_reach_initial_final():
    arena = g1()
    strat = FiniteMemoryStrategy.constant(EVE, "a", 2)
    # start the chain in the final state by flipping init
    from stochgames.model import Arena

    flipped = Arena(
        states=arena.states,
        init=1,
        eve_actions=arena.eve_actions,
        adam_actions=arena.adam_actions,
        transition=arena.transition,
        eve_obs=arena.eve_obs,
        adam_obs=arena.adam_obs,
        final=arena.final,
    )
    chain = build_chain(flipped, strat, constant_adam(arena, "x"))
    assert reach_probability(chain) == 1


def test_reach_one_step_split():
    arena = coin_chain()
    chain = build_chain(arena, FiniteMemoryStrategy.constant(EVE, "a", 3), constant_adam(arena, "x"))
    assert reach_probability(chain) == Fraction(1, 2)


def test_reach_g1_retry_equals_one():
    arena = g1()
    chain = build_chain(arena, uniform_eve(arena), constant_adam(arena, "x"))
    assert reach_probability(chain) == 1  # x = 1/2 + x/2


def test_buchi_single_bscc():
    arena = g1_prime()
    chain = build_chain(arena, uniform_eve(arena), constant_adam(arena, "x"))
    assert buchi_probability(chain) == 1


def test_buchi_transient_finals():
    # passes through the final state exactly once
    arena = parse_game(
        make_doc(
            ["u", "v", "w"], "u", ["v"], ["a"], ["x"],
            [["u"], ["v"], ["w"]], [["u"], ["v"], ["w"]],
            lambda s, e, a: {"v": 1} if s == "u" else {"w": 1},
        )
    )
    chain = build_chain(arena, FiniteMemoryStrategy.constant(EVE, "a", 3), constant_adam(arena, "x"))
    assert buchi_probability(chain) == 0
    assert reach_probability(chain) == 1


def test_objective_probability_complements():
    arena = coin_chain()
    chain = build_chain(arena, FiniteMemoryStrategy.constant(EVE, "a", 3), constant_adam(arena, "x"))
    assert objective_probability(chain, Objective.SAFETY) == Fraction(1, 2)
    assert objective_probability(chain, Objective.COBUCHI) == Fraction(1, 2)


def test_bottom_sccs_against_networkx():
    rng = random.Random(5)
    for seed in range(20):
        arena = generate_arena(random_params(seed))
        chain = build_chain(
            arena, random_strategy(arena, EVE, rng), random_strategy(arena, ADAM, rng)
        )
        mine = {frozenset(c) for c in bottom_sccs(chain.edges)}
        theirs = {frozenset(c) for c in nx_bottom_sccs(chain.edges)}
        assert mine == theirs


def test_almost_sure_matches_exact_value():
    rng = random.Random(9)
    for seed in range(30):
        arena = generate_arena(random_params(seed))
        chain = build_chain(
            arena, random_strategy(arena, EVE, rng), random_strategy(arena, ADAM, rng)
        )
        for objective in Objective:
            assert almost_sure(chain, objective) == (objective_probability(chain, objective) == 1)


def test_buchi_equals_reach_of_winning_bsccs():
    rng = random.Random(13)
    for seed in range(15):
        arena = generate_arena(random_params(seed))
        chain = build_chain(
            arena, random_strategy(arena, EVE, rng), random_strategy(arena, ADAM, rng)
        )
        targets = set()
        for comp in nx_bottom_sccs(chain.edges):
            if comp & chain.final:
                targets.update(comp)
        expected = dense_absorption_values(chain.edges, targets)[chain.init]
        assert buchi_probability(chain) == expected


@st.composite
def sparse_chains(draw):
    """(edges, targets) of a random Markov chain: every row is a dead end
    (empty) or positive weights summing to 1, and self-loops occur.

    "random" draws up to three successors per node and up to three
    targets, possibly none; "pinned" gives every node the value 0 or 1;
    "one_component" puts all but two nodes on one cycle that leaks to a
    target and to a trap, so that they form a single component of
    unknowns.  Any chain may get one more target that no node enters.
    """
    shape = draw(st.sampled_from(["random", "pinned", "one_component"]))
    n = draw(st.integers(1, 24))

    def row(succs):
        weights = [draw(st.integers(1, 4)) for _ in succs]
        out = {}
        for v, w in zip(succs, weights):
            out[v] = out.get(v, Fraction(0)) + Fraction(w, sum(weights))
        return out

    def some(nodes, max_size):
        return draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=max_size)) if nodes else []

    if shape == "random":
        edges = [row(some(range(n), 3) if draw(st.booleans()) or u == 0 else []) for u in range(n)]
        targets = set(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    elif shape == "pinned":
        # each node moves to later nodes of its own colour, possibly looping
        # first; the last good node is the target, the last bad one a trap
        good = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        edges, targets = [], set()
        for u in range(n):
            later = [v for v in range(u + 1, n) if good[v] == good[u]]
            if later:
                edges.append(row(some(later, 2) + ([u] if draw(st.booleans()) else [])))
            elif good[u]:
                edges.append({u: Fraction(1)})
                targets.add(u)
            else:
                edges.append({} if draw(st.booleans()) else {u: Fraction(1)})
    else:
        target, trap = n, n + 1
        edges = []
        for u in range(n):
            succs = [(u + 1) % n] + some(range(n), 2)
            if u == 0 or draw(st.booleans()):
                succs.append(target if u == 0 else draw(st.sampled_from([target, trap])))
            if u == n - 1:
                succs.append(trap)
            edges.append(row(succs))
        edges += [{target: Fraction(1)}, {}]
        targets = {target}
    if draw(st.booleans()):
        targets.add(len(edges))
        edges.append(row(some(range(len(edges)), 2)))
    return edges, targets


@settings(max_examples=120, deadline=None)
@given(sparse_chains())
def test_absorption_values_match_dense_oracle(chain):
    edges, targets = chain
    values = absorption_values(edges, targets)
    assert values == dense_absorption_values(edges, targets)
    assert all(0 <= x <= 1 for x in values)


@pytest.mark.parametrize("seed", [168, 389])
def test_scale_chain(seed):
    """About 200 product nodes; the reach systems have components of 41
    and 126 unknowns, on which one dense solve of all unknowns together
    takes seconds."""
    arena = generate_arena(GenParams(46, 2, 2, 0.3, 3, 4, 1, seed=seed))
    rng = random.Random(seed)
    chain = build_chain(
        arena, random_strategy(arena, EVE, rng, max_memory=3), random_strategy(arena, ADAM, rng, max_memory=3)
    )
    assert 190 <= len(chain.nodes) <= 215
    reach = objective_probability(chain, Objective.REACHABILITY)
    buchi = objective_probability(chain, Objective.BUCHI)
    assert 0 <= buchi <= reach <= 1
    assert almost_sure(chain, Objective.REACHABILITY) == (reach == 1)
    assert almost_sure(chain, Objective.BUCHI) == (buchi == 1)
    # every node value satisfies its equation, so it is the unique solution
    values = absorption_values(chain.edges, set(chain.final))
    for u, row in enumerate(chain.edges):
        if u not in chain.final and values[u]:
            assert values[u] == sum((p * values[v] for v, p in row.items()), Fraction(0))


def test_monte_carlo_deterministic_chain():
    arena = g2()
    result = monte_carlo(
        arena, uniform_eve(arena), constant_adam(arena, "x"), Objective.REACHABILITY,
        samples=200, horizon=30, seed=1,
    )
    assert result.probability == 1
    assert result.half_width == 0.0
    assert result.samples == 200 and result.method == "monte_carlo"
    assert not result.approximate


def test_monte_carlo_fair_split():
    arena = coin_chain()
    result = monte_carlo(
        arena, FiniteMemoryStrategy.constant(EVE, "a", 3), constant_adam(arena, "x"),
        Objective.REACHABILITY, samples=100_000, horizon=10, seed=4,
    )
    assert abs(float(result.probability) - 0.5) < 0.01


def test_monte_carlo_seed_reproducible():
    arena = coin_chain()
    args = (
        arena, FiniteMemoryStrategy.constant(EVE, "a", 3), constant_adam(arena, "x"),
        Objective.BUCHI,
    )
    r1 = monte_carlo(*args, samples=500, horizon=50, seed=11)
    r2 = monte_carlo(*args, samples=500, horizon=50, seed=11)
    assert r1 == r2
    assert r1.approximate


def _memoryless(owner, weights, n_blocks):
    return FiniteMemoryStrategy(owner, ("m",), "m", {"m": Distribution(weights)}, {"m": {b: "m" for b in range(n_blocks)}})


def test_monte_carlo_pinned_estimates():
    """Exact estimates for fixed seeds; a change in the draw order (Eve,
    Adam, successor) or in the order of a CDF table's entries changes them.
    Both strategies mix with unequal weights, and the generated game's
    transition supports are not in index order."""
    arena = hidden_coin()
    eve = FiniteMemoryStrategy(
        EVE, ("m0", "m1"), "m0",
        {"m0": Distribution({"a": Fraction(1, 3), "b": Fraction(2, 3)}),
         "m1": Distribution({"a": Fraction(3, 4), "b": Fraction(1, 4)})},
        {"m0": {0: "m1", 1: "m0", 2: "m0", 3: "m1"}, "m1": {0: "m0", 1: "m1", 2: "m1", 3: "m0"}},
    )
    adam = _memoryless(ADAM, {"x": Fraction(5, 6), "y": Fraction(1, 6)}, 2)
    for objective, expected in ((Objective.REACHABILITY, Fraction(22, 25)), (Objective.BUCHI, Fraction(22, 25))):
        assert monte_carlo(arena, eve, adam, objective, samples=200, horizon=6, seed=3).probability == expected
    arena = generate_arena(GenParams(5, 2, 2, 0.8, 2, 2, 1, seed=11))
    eve = _memoryless(EVE, {"a": Fraction(1, 3), "b": Fraction(2, 3)}, 2)
    adam = _memoryless(ADAM, {"x": Fraction(1, 4), "y": Fraction(3, 4)}, 2)
    for objective, expected in ((Objective.REACHABILITY, Fraction(191, 200)), (Objective.BUCHI, Fraction(91, 200))):
        assert monte_carlo(arena, eve, adam, objective, samples=200, horizon=20, seed=5).probability == expected


def test_best_response_g1_uniform():
    arena = g1()
    assert best_response_full_info(arena, uniform_eve(arena), Objective.REACHABILITY).probability == 1


def test_best_response_g2():
    arena = g2()
    eve = FiniteMemoryStrategy.constant(EVE, "a", 3)
    assert best_response_full_info(arena, eve, Objective.REACHABILITY).probability == 0


def test_best_response_init_final():
    arena = parse_game(
        make_doc(["s"], "s", ["s"], ["a"], ["x", "y"], [["s"]], [["s"]], lambda s, e, a: {s: 1})
    )
    eve = FiniteMemoryStrategy.constant(EVE, "a", 1)
    assert best_response_full_info(arena, eve, Objective.REACHABILITY).probability == 1
    assert best_response_full_info(arena, eve, Objective.BUCHI).probability == 1


def test_best_response_matches_policy_enumeration():
    """Against the minimum over every memoryless policy of the adversary;
    games are drawn until enough comparisons have values strictly between
    0 and 1, where a wrong region or policy would show."""
    rng = random.Random(21)
    fractional = {Objective.REACHABILITY: 0, Objective.BUCHI: 0}
    for seed in range(600):
        params = GenParams(rng.randint(3, 6), 2, 2, 0.6, rng.randint(1, 2), 1, rng.randint(1, 2), seed=seed)
        arena = generate_arena(params)
        eve = random_strategy(arena, EVE, rng, max_memory=1)
        mdp = _Mdp(arena, eve)
        if len(mdp.nodes) > 9:
            continue
        best = {Objective.REACHABILITY: None, Objective.BUCHI: None}
        for policy in enumerate_policies(len(mdp.nodes), mdp.n_actions):
            edges = [mdp.trans[v][policy[v]] for v in range(len(mdp.nodes))]
            targets = set()
            for comp in nx_bottom_sccs(edges):
                if comp & mdp.final:
                    targets.update(comp)
            for objective, value in (
                (Objective.REACHABILITY, dense_absorption_values(edges, mdp.final)[mdp.init]),
                (Objective.BUCHI, dense_absorption_values(edges, targets)[mdp.init]),
            ):
                if best[objective] is None or value < best[objective]:
                    best[objective] = value
        for objective, value in best.items():
            assert best_response_full_info(arena, eve, objective).probability == value
            fractional[objective] += 0 < value < 1
        if fractional[Objective.REACHABILITY] >= 10 and fractional[Objective.BUCHI] >= 5:
            break
    assert fractional[Objective.REACHABILITY] >= 10
    assert fractional[Objective.BUCHI] >= 5


def test_best_response_final_rows_absorb():
    """s -> f -> z -> z with f final: every play meets f once and then
    stays in z, so reach has value 1 and Buchi value 0.  The sure-safe
    region is {z}, which the reach value must not count as reachable
    through f."""
    arena = parse_game(
        make_doc(
            ["s", "f", "z"], "s", ["f"], ["a"], ["x", "y"],
            [["s"], ["f"], ["z"]], [["s"], ["f"], ["z"]],
            lambda s, e, a: {"f": 1} if s == "s" else {"z": 1},
        )
    )
    eve = FiniteMemoryStrategy.constant(EVE, "a", 3)
    assert best_response_full_info(arena, eve, Objective.REACHABILITY).probability == 1
    assert best_response_full_info(arena, eve, Objective.BUCHI).probability == 0


def test_best_response_dominates_constrained_adversaries():
    arena = g1()
    eve = uniform_eve(arena)
    assert best_response_full_info(arena, eve, Objective.REACHABILITY).probability == 1
    rng = random.Random(31)
    for _ in range(100):
        adam = random_strategy(arena, ADAM, rng, max_memory=3)
        chain = build_chain(arena, eve, adam)
        assert reach_probability(chain) == 1


def test_brute_force_named_instances():
    assert brute_force_verdict(g1(), Objective.REACHABILITY) == "yes"
    assert brute_force_verdict(g2(), Objective.REACHABILITY) == "no"
    assert brute_force_verdict(hidden_coin(), Objective.REACHABILITY) == "unknown"


def test_simulate_play_is_consistent():
    arena = g1()
    rng = random.Random(2)
    states = simulate_play(arena, uniform_eve(arena), constant_adam(arena, "x"), 25, rng)
    assert len(states) == 26
    assert is_play_prefix(arena, states)
