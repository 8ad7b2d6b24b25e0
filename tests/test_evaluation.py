import hashlib
import math
import random
import struct
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgames import (
    Arena,
    Distribution,
    Objective,
    ResourceLimit,
    ValidationError,
    best_response_full_info,
    build_chain,
    decide_almost_sure_buchi,
    decide_almost_sure_reach,
    monte_carlo,
    objective_probability,
    serialize_game,
)
from stochgames import evaluation
from stochgames.evaluation import (
    _Compiled,
    _Mdp,
    _cdf,
    _dead_nodes,
    _skip,
    _transition_rows,
    absorption_values,
    bottom_sccs,
    tail_window,
)
from stochgames.model import ADAM, EVE, FiniteMemoryStrategy, parse_game
from stochgames.gen import GenParams, generate_arena, random_params

from instances import coin_chain, g1, g1_prime, g2, hidden_coin, make_doc
from oracles import (
    _float_cdf,
    almost_sure,
    brute_force_verdict,
    dense_absorption_values,
    enumerate_policies,
    fraction_chain,
    fraction_mdp,
    int_rows,
    nx_bottom_sccs,
    scan_estimate,
    scan_sampler,
)
from util import random_distribution, random_strategy


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
    for den, row in chain.rows:
        assert sum(row.values()) == den


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
    assert objective_probability(chain, Objective.REACHABILITY) == 1


def test_reach_one_step_split():
    arena = coin_chain()
    chain = build_chain(arena, FiniteMemoryStrategy.constant(EVE, "a", 3), constant_adam(arena, "x"))
    assert objective_probability(chain, Objective.REACHABILITY) == Fraction(1, 2)


def test_reach_g1_retry_equals_one():
    arena = g1()
    chain = build_chain(arena, uniform_eve(arena), constant_adam(arena, "x"))
    assert objective_probability(chain, Objective.REACHABILITY) == 1  # x = 1/2 + x/2


def test_buchi_single_bscc():
    arena = g1_prime()
    chain = build_chain(arena, uniform_eve(arena), constant_adam(arena, "x"))
    assert objective_probability(chain, Objective.BUCHI) == 1


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
    assert objective_probability(chain, Objective.BUCHI) == 0
    assert objective_probability(chain, Objective.REACHABILITY) == 1


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
        assert objective_probability(chain, Objective.BUCHI) == expected


@st.composite
def sparse_chains(draw):
    """(edges, targets) of a random Markov chain: every row is a dead end
    (empty) or positive weights summing to 1, and self-loops occur.

    "random" draws up to three successors per node and up to three
    targets, possibly none; "pinned" gives every node the value 0 or 1;
    "one_component" puts all but two nodes on one cycle that leaks to a
    target and to a trap, so that they form a single component of
    unknowns; "stacked" puts two or three such cycles in series, each
    leaking into the next one (the last into the target) and to the trap,
    so that every component above the last reads fractional values of the
    one below.  Any chain may get one more target that no node enters.
    """
    shape = draw(st.sampled_from(["random", "pinned", "one_component", "stacked"]))
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
    elif shape == "stacked":
        sizes = draw(st.lists(st.integers(1, 15), min_size=2, max_size=3))
        target, trap = sum(sizes), sum(sizes) + 1
        edges = []
        for c, size in enumerate(sizes):
            start = len(edges)
            cycle = range(start, start + size)
            below = range(start + size, start + size + sizes[c + 1]) if c + 1 < len(sizes) else [target]
            for i, u in enumerate(cycle):
                succs = [cycle[(i + 1) % size]] + some(cycle, 1)
                if i == 0:
                    succs.append(draw(st.sampled_from(below)))
                elif draw(st.booleans()):
                    succs.append(draw(st.sampled_from([*below, trap])))
                if i == size - 1:
                    succs.append(trap)
                edges.append(row(succs))
        edges += [{target: Fraction(1)}, {}]
        targets = {target}
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
    values = absorption_values(int_rows(edges), targets)
    assert values == dense_absorption_values(edges, targets)
    assert all(0 <= x <= 1 for x in values)


@pytest.mark.parametrize(
    "n, seed, nodes",
    [
        pytest.param(46, 168, (190, 215), id="168"),
        pytest.param(46, 389, (190, 215), id="389"),
        pytest.param(200, 389, (500, 535), id="389-n200"),
    ],
)
def test_scale_chain(n, seed, nodes):
    """About 200 and 517 product nodes; the reach systems have components
    of 41, 126 and 351 unknowns.  The sparse elimination solves the
    351-unknown one in a fraction of a second, about an eighth of the time
    a dense elimination of the same component took."""
    arena = generate_arena(GenParams(n, 2, 2, 0.3, 3, 4, 1, seed=seed))
    rng = random.Random(seed)
    chain = build_chain(
        arena, random_strategy(arena, EVE, rng, max_memory=3), random_strategy(arena, ADAM, rng, max_memory=3)
    )
    assert nodes[0] <= len(chain.nodes) <= nodes[1]
    reach = objective_probability(chain, Objective.REACHABILITY)
    buchi = objective_probability(chain, Objective.BUCHI)
    assert 0 <= buchi <= reach <= 1
    assert almost_sure(chain, Objective.REACHABILITY) == (reach == 1)
    assert almost_sure(chain, Objective.BUCHI) == (buchi == 1)
    # every node value satisfies its equation, so it is the unique solution;
    # the chain's rows and the reduced rows of its Fraction view give one system
    values = absorption_values(chain.rows, set(chain.final))
    assert values == absorption_values(int_rows(chain.edges), set(chain.final))
    for u, row in enumerate(chain.edges):
        if u not in chain.final and values[u]:
            assert values[u] == sum((p * values[v] for v, p in row.items()), Fraction(0))


def test_absorption_values_rejects_singular_system():
    """Node 0's nums sum to three times its den, breaking the rows'
    contract: its self-loop leaves a zero pivot, which the solver reports."""
    with pytest.raises(ValidationError, match="singular linear system in exact solve"):
        absorption_values([(1, {0: 1, 1: 1, 2: 1}), (1, {1: 1}), (1, {})], {1})


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
        nodes, trans, final = fraction_mdp(arena, eve)
        if len(nodes) > 9:
            continue
        best = {Objective.REACHABILITY: None, Objective.BUCHI: None}
        for policy in enumerate_policies(len(nodes), len(arena.adam_actions)):
            edges = [trans[v][policy[v]] for v in range(len(nodes))]
            targets = set()
            for comp in nx_bottom_sccs(edges):
                if comp & final:
                    targets.update(comp)
            for objective, value in (
                (Objective.REACHABILITY, dense_absorption_values(edges, final)[0]),
                (Objective.BUCHI, dense_absorption_values(edges, targets)[0]),
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
        assert objective_probability(chain, Objective.REACHABILITY) == 1


def test_brute_force_named_instances():
    assert brute_force_verdict(g1(), Objective.REACHABILITY) == "yes"
    assert brute_force_verdict(g2(), Objective.REACHABILITY) == "no"
    assert brute_force_verdict(hidden_coin(), Objective.REACHABILITY) == "unknown"


def _partition(rng, n):
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return tuple(tuple(sorted(order[i:j])) for i, j in zip([0] + cuts, cuts + [n]))


def _mixed_arena(rng) -> Arena:
    """A small arena whose transition rows draw denominators up to 12, so
    that rows such as 1/3 + 2/3, 1/4 + 3/4 and 1/6 + 5/6 meet in one node."""
    n = rng.randint(1, 5)
    eve_actions = tuple(f"e{i}" for i in range(rng.randint(1, 3)))
    adam_actions = tuple(f"x{i}" for i in range(rng.randint(1, 3)))
    return Arena(
        states=tuple(f"s{i}" for i in range(n)),
        init=rng.randrange(n),
        eve_actions=eve_actions,
        adam_actions=adam_actions,
        transition={
            (s, e, a): random_distribution(rng, range(n), max_denominator=12)
            for s in range(n)
            for e in range(len(eve_actions))
            for a in range(len(adam_actions))
        },
        eve_obs=_partition(rng, n),
        adam_obs=_partition(rng, n),
        final=frozenset(rng.sample(range(n), rng.randint(0, n))),
    )


def _random_pair(seed: int, mixed: bool):
    """A generated game, or a mixed-denominator one, with a random
    finite-memory strategy of up to three memories per player."""
    rng = random.Random(seed)
    arena = _mixed_arena(rng) if mixed else generate_arena(random_params(seed))
    eve = random_strategy(arena, EVE, rng, max_memory=3)
    return arena, eve, random_strategy(arena, ADAM, rng, max_memory=3)


def _exact_record(arena, eve, adam) -> list:
    """The chain's node count, each objective's probability and almost-sure
    verdict, and the best response for reach and for Buchi."""
    chain = build_chain(arena, eve, adam)
    record = [len(chain.nodes)]
    record += [objective_probability(chain, objective) for objective in Objective]
    record += [almost_sure(chain, objective) for objective in Objective]
    record += [
        best_response_full_info(arena, eve, objective).probability
        for objective in (Objective.REACHABILITY, Objective.BUCHI)
    ]
    return record


def _fractional(record) -> int:
    return sum(type(x) is Fraction and 0 < x < 1 for x in record)


EXACT_VALUES_DIGEST = "4b93a73c829c1e261e6dfd2d55f1f5045dab0d393541e2c231482b7099a61a10"


def test_exact_values_pinned():
    """Every exact figure of the evaluator on a fixed corpus of pairs."""
    digest = hashlib.sha256()
    fractional = 0
    for seed in range(80):
        for mixed in (False, True):
            record = _exact_record(*_random_pair(seed, mixed))
            fractional += _fractional(record)
            digest.update(repr(record).encode())
    assert fractional == 8
    assert digest.hexdigest() == EXACT_VALUES_DIGEST


def _eval_pair(seed: int):
    """A pair drawn like the eval-pairs benchmark's: a generated game of
    8 to 16 states and two actions each, with strategies of 3 to 5
    memories and move denominators of at most 6."""
    rng = random.Random(seed)
    n = rng.randint(8, 16)
    density = rng.choice([0.4, 0.7])
    params = GenParams(n, 2, 2, density, rng.randint(2, 3), rng.randint(2, 3), rng.randint(1, 2), rng.randrange(2**32))
    arena = generate_arena(params)
    eve = random_strategy(arena, EVE, rng, max_memory=5, min_memory=3)
    return arena, eve, random_strategy(arena, ADAM, rng, max_memory=5, min_memory=3)


EXACT_RATIONALS_DIGEST = "7e5191335af89659e6f719e46c6de288a0a5cec74b1a59a1e68c5942177231fe"


def test_exact_rationals_pinned():
    """The same figures on pairs whose values are mostly neither 0 nor 1,
    so the pins reach the component solves and not only the 0/1 pinning."""
    digest = hashlib.sha256()
    fractional = 0
    for seed in range(100):
        record = _exact_record(*_eval_pair(seed))
        fractional += _fractional(record)
        digest.update(repr(record).encode())
    assert fractional >= 158  # of 1,100 values
    assert digest.hexdigest() == EXACT_RATIONALS_DIGEST


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_build_chain_matches_fraction_oracle(seed, mixed):
    """Integer row sums give the nodes, the edges (in insertion order) and
    the final set of the edge-by-edge ``Fraction`` construction, and the
    node cap strikes at the same node count."""
    arena, eve, adam = _random_pair(seed, mixed)
    chain = build_chain(arena, eve, adam)
    nodes, edges, final = fraction_chain(arena, eve, adam)
    assert chain.nodes == tuple(nodes)
    assert [list(row.items()) for row in chain.edges] == [list(row.items()) for row in edges]
    assert chain.final == final
    for cap in {0, 1, len(nodes) - 1, len(nodes)}:
        try:
            fraction_chain(arena, eve, adam, max_nodes=cap)
        except ResourceLimit:
            with pytest.raises(ResourceLimit, match=f"exceeds {cap} nodes"):
                build_chain(arena, eve, adam, max_nodes=cap)
        else:
            assert build_chain(arena, eve, adam, max_nodes=cap) == chain


def _rational_mdp(mdp):
    """(nodes, rows as (successor, probability) lists, final) of ``mdp``."""
    trans = [[[(v, Fraction(w, den)) for v, w in row.items()] for den, row in rows] for rows in mdp.trans]
    return mdp.nodes, trans, mdp.final


def _listed(nodes, trans, final):
    return nodes, [[list(row.items()) for row in rows] for rows in trans], final


def test_fraction_edges_built_only_when_read():
    """Evaluation reads the chain's integer rows; the ``Fraction`` view is
    built only when something reads ``edges``."""
    arena, eve, adam = _random_pair(312, False)
    chain = build_chain(arena, eve, adam)
    values = {objective: objective_probability(chain, objective) for objective in Objective}
    assert not any(almost_sure(chain, objective) for objective in Objective)
    assert (values[Objective.REACHABILITY], values[Objective.BUCHI]) == (Fraction(3, 4), Fraction(7, 16))
    assert "edges" not in vars(chain)
    assert len(chain.edges) == len(chain.nodes)
    assert "edges" in vars(chain)


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_transition_fraction_views_built_only_when_read(seed):
    """Exact evaluation, the best response, Monte Carlo, both decisions and
    serialization read the integer weights of a parsed game; none of them
    builds the ``Fraction`` view of a transition row."""
    rng = random.Random(seed)
    arena = parse_game(serialize_game(generate_arena(random_params(seed))))
    eve = random_strategy(arena, EVE, rng, max_memory=3)
    adam = random_strategy(arena, ADAM, rng, max_memory=3)
    chain = build_chain(arena, eve, adam)
    objective_probability(chain, Objective.REACHABILITY)
    objective_probability(chain, Objective.BUCHI)
    best_response_full_info(arena, eve, Objective.REACHABILITY)
    monte_carlo(arena, eve, adam, Objective.REACHABILITY, 20, 30, seed)
    decide_almost_sure_reach(arena)
    decide_almost_sure_buchi(arena)
    assert parse_game(serialize_game(arena)) == arena
    rows = list(arena.transition.values())
    assert all(dist._fractions is None for dist in rows)
    assert all(len(dist.items()) == len(dist) for dist in rows)
    assert all(dist._fractions is not None for dist in rows)


def _bits(xs) -> list[bytes]:
    return [struct.pack("<d", x) for x in xs]


# small primes, the Mersenne primes 2^61 - 1 and 2^89 - 1, and other
# denominators above 2^53
_CDF_DENOMINATORS = [2, 3, 7, 13, 97, 65537, 2**61 - 1, 2**89 - 1, 3**40, 10**17 + 3, 2**53 + 1, 2**64]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_CDF_DENOMINATORS), st.integers(1, 10**20)), min_size=1, max_size=6),
    st.booleans(),
)
def test_integer_cdf_matches_fraction_floats(parts, one_denominator):
    """The sampler's cumulative rows, summed from ``num / den``, equal the
    oracle's sums of ``float(Fraction)`` bit for bit, so Monte Carlo draws
    what the ``Fraction`` weights would draw.  ``one_denominator`` splits
    the first denominator into the parts' numerators, as in a row over one
    prime; otherwise the parts are normalized, mixing the denominators."""
    if one_denominator:
        den = parts[0][0]
        cuts = sorted({num % den for _d, num in parts} - {0})
        weights = [Fraction(hi - lo, den) for lo, hi in zip([0] + cuts, cuts + [den])]
    else:
        raw = [Fraction(num % d or 1, d) for d, num in parts]
        weights = [w / sum(raw) for w in raw]
    dist = Distribution(dict(enumerate(weights)))
    cum, elems = _cdf(dist.den, dist.nums)
    want = _float_cdf(dist.items())
    assert elems == [elem for _acc, elem in want]
    assert _bits(cum[:-1]) == _bits(acc for acc, _elem in want[:-1])
    assert cum[-1] == math.inf
    assert _bits(num / dist.den for num in dist.nums.values()) == _bits(float(p) for _e, p in dist.items())


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_mdp_matches_fraction_oracle(seed, mixed):
    """The integer rows of the adversary's decision process hold the
    probabilities of the ``Fraction`` construction, in its insertion order."""
    arena, eve, _adam = _random_pair(seed, mixed)
    assert _rational_mdp(_Mdp(arena, eve)) == _listed(*fraction_mdp(arena, eve))


def test_mdp_matches_fraction_oracle_on_acceptance_corpus():
    """The adversary's decision process of a random Eve strategy in each
    game of the acceptance corpus equals the ``Fraction`` construction, so
    every best-response value computed on it is unchanged."""
    rng = random.Random(2000)
    for i in range(250):
        arena = generate_arena(random_params(2000 + i))
        eve = random_strategy(arena, EVE, rng, max_memory=3)
        assert _rational_mdp(_Mdp(arena, eve)) == _listed(*fraction_mdp(arena, eve)), i


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans(), st.integers(0, 2**32))
def test_sampler_matches_linear_scan_oracle(seed, mixed, init_final, mc_seed):
    """``monte_carlo``, which stops a play once its outcome is fixed and
    skips the generator past the rest, estimates exactly what full-horizon
    linear-scan plays give, for every objective."""
    arena, eve, adam = _random_pair(seed, mixed)
    if init_final and arena.final:
        arena = replace(arena, init=min(arena.final))
    for horizon in (1, 2, 10, 23):
        for objective in Objective:
            expected = scan_estimate(arena, eve, adam, objective, 15, horizon, mc_seed)
            assert monte_carlo(arena, eve, adam, objective, 15, horizon, mc_seed).probability == expected


@pytest.mark.parametrize("seed", [0, 1, 4321, 2**40 + 7])
def test_getrandbits_advances_like_random(seed):
    """``monte_carlo``'s early stop advances the generator with
    ``getrandbits(64 * n)`` in place of n ``random()`` calls; if an
    interpreter changes how either consumes its words, estimates drift."""
    for n in (1, 2, 3, 7, 100):
        skipped, drawn = random.Random(seed), random.Random(seed)
        skipped.getrandbits(64 * n)
        for _ in range(n):
            drawn.random()
        assert skipped.random() == drawn.random(), (
            f"getrandbits(64 * {n}) no longer advances the generator like {n} random() calls: "
            "monte_carlo's early stop would change its estimates"
        )
    for steps in (1, 5, 4096, 4097, 9000):
        skipped, drawn = random.Random(seed), random.Random(seed)
        _skip(skipped, steps)
        for _ in range(3 * steps):
            drawn.random()
        assert skipped.random() == drawn.random(), f"_skip({steps}) differs from {steps} sampled steps"


# ---------------------------------------------------------------------------
# Monte Carlo's stop at nodes from which no final state is reachable

GO, MID, GOAL, TRAP, PIT = range(5)


def _trap_row(s: int, e: int, a: int) -> dict:
    if s == GO:
        if e == 0:
            return {MID: Fraction(1, 2), TRAP: Fraction(1, 4), GO: Fraction(1, 4)}
        return {GO: Fraction(1, 2), PIT: Fraction(1, 2)} if a == 0 else {MID: 1}
    if s == MID:
        return {GOAL: Fraction(1, 3), GO: Fraction(1, 3), TRAP: Fraction(1, 3)}
    if s == GOAL:
        return {GOAL: Fraction(1, 2), GO: Fraction(1, 2)}
    if s == TRAP:
        return {TRAP: Fraction(1, 2), PIT: Fraction(1, 2)}
    return {PIT: 1} if e == 0 else {TRAP: 1}


def _trap_arena(init: int) -> Arena:
    """From ``go`` a play reaches the final state ``goal`` through ``mid``,
    or falls into {trap, pit}, a non-final region without exit; ``goal``
    leads back to ``go``.  Eve's action b against Adam's x keeps ``go`` or
    falls into ``pit``, and against y moves to ``mid``."""
    return Arena(
        states=("go", "mid", "goal", "trap", "pit"),
        init=init,
        eve_actions=("a", "b"),
        adam_actions=("x", "y"),
        transition={
            (s, e, a): Distribution(_trap_row(s, e, a)) for s in range(5) for e in range(2) for a in range(2)
        },
        eve_obs=((GO,), (MID,), (GOAL,), (TRAP, PIT)),
        adam_obs=((GO, MID, GOAL, TRAP, PIT),),
        final=frozenset({GOAL}),
    )


def _trap_eve() -> FiniteMemoryStrategy:
    """Mixes a and b in m0 and plays only b in m1; seeing ``mid`` moves to
    m1 and seeing ``goal`` back to m0."""
    return FiniteMemoryStrategy(
        EVE, ("m0", "m1"), "m0",
        {"m0": Distribution({"a": Fraction(2, 3), "b": Fraction(1, 3)}), "m1": Distribution({"b": 1})},
        {"m0": {0: "m0", 1: "m1", 2: "m0", 3: "m0"}, "m1": {0: "m1", 1: "m1", 2: "m0", 3: "m1"}},
    )


_TRAP_ADAMS = {
    "x": _memoryless(ADAM, {"x": 1}, 1),
    "mixed": _memoryless(ADAM, {"x": Fraction(3, 4), "y": Fraction(1, 4)}, 1),
}
# the dead (state, eve memory) pairs against each Adam, found by hand: the
# trap region, and against x alone also ``go`` in m1
_TRAP_DEAD = {
    "x": {(s, m) for s in (TRAP, PIT) for m in ("m0", "m1")} | {(GO, "m1")},
    "mixed": {(s, m) for s in (TRAP, PIT) for m in ("m0", "m1")},
}


def _expected_skips(arena, eve, plays, horizon: int, first: int, dead) -> list[int]:
    """The steps ``monte_carlo`` skips on each of the full-horizon ``plays``
    that meets a final state at index ``first`` or later or a node whose
    (state, eve memory) is in ``dead``: the steps after the first such."""
    out = []
    for states in plays:
        m = eve.init_mem
        for i, s in enumerate(states):
            if i:
                m = eve.update[m][arena.eve_block_of[s]]
            if s in arena.final and i >= first or (s, m) in dead:
                out.append(horizon - i)
                break
    return out


@pytest.mark.parametrize("adam_name", sorted(_TRAP_ADAMS))
@pytest.mark.parametrize("init", [GO, TRAP], ids=["go", "trap"])
def test_dead_stop_matches_scan_oracle(monkeypatch, adam_name, init):
    """Plays that fall into the trap partway (with probability strictly
    between 0 and 1), or start in it, stop at their first dead node and
    skip the generator past the rest: the estimates are the linear-scan
    oracle's for every objective, and the skips are exactly those of a
    stop at the first final state (inside the window for Buchi and
    co-Buchi) or dead node.  Runs whose ``samples * horizon + 1`` is below
    the product's node count search no dead node."""
    arena, eve, adam = _trap_arena(init), _trap_eve(), _TRAP_ADAMS[adam_name]
    n_nodes = len(build_chain(arena, eve, adam).nodes)
    calls: list[int] = []

    def skip(rng, steps):
        calls.append(steps)
        _skip(rng, steps)

    monkeypatch.setattr(evaluation, "_skip", skip)
    searched = set()
    for horizon in (1, 2, 10, 23, 100):
        for objective in Objective:
            first = horizon + 1 - tail_window(horizon) if objective in (Objective.BUCHI, Objective.COBUCHI) else 0
            for samples, seed in ((3, 1), (40, 7)):
                calls.clear()
                estimate = monte_carlo(arena, eve, adam, objective, samples, horizon, seed).probability
                assert estimate == scan_estimate(arena, eve, adam, objective, samples, horizon, seed)
                play, rng = scan_sampler(arena, eve, adam), random.Random(seed)
                plays = [play(horizon, rng) for _ in range(samples)]
                search = samples * horizon + 1 >= n_nodes
                searched.add(search)
                dead = _TRAP_DEAD[adam_name] if search else set()
                assert calls == _expected_skips(arena, eve, plays, horizon, first, dead)
    assert searched == ({True, False} if init == GO else {True})


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_dead_nodes_are_the_value_zero_nodes(seed, mixed):
    """The support-only search marks exactly the chain's nodes of exact
    reach value 0, and marks none once the nodes outnumber its bound."""
    arena, eve, adam = _random_pair(seed, mixed)
    chain = build_chain(arena, eve, adam)
    values = absorption_values(chain.rows, set(chain.final))
    zero = {node for node, x in zip(chain.nodes, values) if x == 0}
    ce, ca, rows = _Compiled(arena, eve, EVE), _Compiled(arena, adam, ADAM), _transition_rows(arena)
    n = len(chain.nodes)
    assert _dead_nodes(arena, ce, ca, rows, n) == zero
    assert _dead_nodes(arena, ce, ca, rows, n - 1) == frozenset()
