"""Seeded inputs and operations of the three benchmark workloads.

Every workload is a list of operations, each a call into the library's
public API on inputs generated here from the workload seed.  The library
receives only game and strategy JSON documents; Python objects are made by
its own parsers.  An operation's output is reduced to a canonical string so
that runs, commits and the recorded reference can be compared exactly.

Corpora are drawn from the seed but filled by fixed quotas over input
properties that set the amount of work (knowledge count, knowledge-state
count, product-chain size, share of 0/1 values).  Two seeds then give
different games with the same mix of work, which keeps the end-to-end
figures comparable across seeds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Callable

import stochgames as sg
from stochgames.gen import GenParams, generate_arena, random_params


@dataclass(frozen=True)
class Budget:
    """Resource caps of one solve; exceeding either gives "capped"."""

    candidates: int
    beliefs: int


SOLVE_SMALL_BUDGET = Budget(candidates=27, beliefs=10**6)
# the belief cap cuts off the rare games whose adversary belief graph is
# ten times the usual size, which would otherwise dominate a pass
SOLVE_LARGE_BUDGET = Budget(candidates=4, beliefs=1500)
MC_SAMPLES = 40
MC_HORIZON = 100
STRATEGY_DENOMINATOR = 6
POOLED = "pooled:"


class Failure(Exception):
    """An operation's output breaks an invariant the benchmark checks."""


@dataclass(frozen=True)
class Op:
    """One timed call.  ``run`` is the timed region; ``canon`` turns its
    result into the canonical output (untimed) and raises Failure when the
    result is invalid on its own."""

    key: str
    kind: str
    run: Callable[[], object]
    canon: Callable[[object], str]


@dataclass
class Workload:
    ops: list[Op]
    primary: str  # op kind behind op.*
    aux: str  # op kind behind aux.*
    cross_check: Callable[[dict[str, str]], list[str]]
    properties: dict


# ---------------------------------------------------------------------------
# Solve workloads


def _solve_op(key: str, kind: str, text: str, objective: str, budget: Budget, threads: int) -> Op:
    def run():
        arena = sg.parse_game(text)
        decide = sg.decide_almost_sure_reach if objective == "reach" else sg.decide_almost_sure_buchi
        try:
            return arena, decide(arena, max_candidates=budget.candidates, max_beliefs=budget.beliefs,
                                 threads=threads)
        except sg.ResourceLimit:
            return arena, None

    def canon(result) -> str:
        arena, report = result
        if report is None:
            return "capped"
        if report.verdict == "yes":
            try:
                sg.validate_strategy(arena, "eve", report.witness)
            except sg.GameError as exc:
                raise Failure(f"{key}: witness fails validate_strategy: {exc}") from exc
        return report.verdict

    return Op(key, kind, run, canon)


def _solve_cross_check(outputs: dict[str, str]) -> list[str]:
    """Pooled verdicts equal sequential ones, and the objectives agree.

    A Buchi-winning candidate also wins reachability and comes no later in
    the canonical order, so Buchi "yes" forces reach "yes"; reach "no"
    means every candidate was refuted, which forces Buchi "no".
    """
    problems = []
    for key, value in outputs.items():
        if key.startswith(POOLED):
            sequential = outputs.get(key[len(POOLED):])
            if sequential != value:
                problems.append(f"{key}: pooled verdict {value} != sequential {sequential}")
            continue
        if key.endswith("/buchi"):
            reach = outputs.get(key[: -len("buchi")] + "reach")
            if value == "yes" and reach != "yes":
                problems.append(f"{key}: buchi yes but reach {reach}")
            if reach == "no" and value != "no":
                problems.append(f"{key}: reach no but buchi {value}")
    return problems


def _solve_workload(texts: list[str], pooled: list[int], budget: Budget, properties: dict) -> Workload:
    """Reach and Buchi solves of every game, then of the games at the
    ``pooled`` indices again with threads=2."""
    ops = [
        _solve_op(f"g{i}/{obj}", "solve", text, obj, budget, 1)
        for i, text in enumerate(texts)
        for obj in ("reach", "buchi")
    ]
    ops += [
        _solve_op(f"{POOLED}g{i}/{obj}", "pooled", texts[i], obj, budget, 2)
        for i in pooled
        for obj in ("reach", "buchi")
    ]
    properties = {"games": len(texts), "pooled_games": len(pooled), "budget": dataclasses.asdict(budget),
                  **properties}
    return Workload(ops, "solve", "pooled", _solve_cross_check, properties)


def _draw_by_quota(rng: random.Random, quotas: dict, draw, classify, max_draws: int) -> dict:
    """Draw candidates until every class holds its quota; deterministic in
    ``rng``.  Returns {class: [candidate, ...]}."""
    filled = {cls: [] for cls in quotas}
    missing = sum(quotas.values())
    for _ in range(max_draws):
        if not missing:
            return filled
        cand = draw(rng)
        cls = classify(cand)
        if cls in filled and len(filled[cls]) < quotas[cls]:
            filled[cls].append(cand)
            missing -= 1
    if missing:
        raise RuntimeError(f"could not fill workload quotas within {max_draws} draws")
    return filled


# (eve actions, knowledges capped at 5, edge band) -> games; the mix of a
# random_params corpus with at most 5 states, 2 actions and 3 blocks,
# scaled to 300 games, except that the classes with two actions and at
# least four knowledges have twice their share.  Their solves that exhaust
# the budget set the tail and about 40% of the time, and their number
# varied from 15 to 38 between ten seeds; in a resampling of those seeds'
# solve times, doubling these classes cut the expected ten-seed quartile
# spread of the tail from 0.12 to 0.08 of the median.
SMALL_QUOTAS = {
    (1, 1, 0): 55, (1, 2, 0): 45, (1, 3, 0): 26, (1, 4, 0): 13, (1, 5, 0): 13,
    (2, 1, 0): 32, (2, 2, 0): 36, (2, 3, 0): 15, (2, 3, 1): 14, (2, 4, 0): 20, (2, 4, 1): 18,
    (2, 5, 0): 32, (2, 5, 1): 32,
}
# (eve actions, knowledges capped at 5) -> (lower quartile, median, upper
# quartile) of the knowledge-arena edge counts the generator gives.  These
# classes hold the solves that check every candidate, whose time grows with
# the arena; over ten seeds their largest arenas set the tail and moved it
# by about 17% of the median from seed to seed.  Keeping their middle half,
# split at the median into two bands, brings that to about 8% in a
# resampling of the same games.
SMALL_EDGE_BANDS = {(2, 3): (52, 74, 96), (2, 4): (87, 124, 170), (2, 5): (140, 190, 246)}
# A pooled solve spends most of its time starting and stopping its worker
# processes; with 80 pooled games they took over half of every pass, and a
# 45-second run held only 4-5 passes, too few for steady per-op medians.
SMALL_POOLED_GAMES = 40


def solve_small(seed: int, tiny: bool = False) -> Workload:
    quotas = {cls: 1 for cls in SMALL_QUOTAS} if tiny else SMALL_QUOTAS
    pooled_games = 2 if tiny else SMALL_POOLED_GAMES

    def draw(rng):
        params = random_params(rng.randrange(2**32), max_states=5, max_actions=2, max_blocks=3)
        return params, generate_arena(params)

    def classify(cand):
        params, arena = cand
        _kstates, knowledges, edges = sg.build_knowledge_arena(arena).census
        cls = (params.eve_action_count, min(knowledges, 5))
        if cls not in SMALL_EDGE_BANDS:
            return (*cls, 0)
        low, mid, high = SMALL_EDGE_BANDS[cls]
        return (*cls, 0 if low <= edges < mid else 1 if mid <= edges < high else None)

    filled = _draw_by_quota(random.Random(seed), quotas, draw, classify, 50 * sum(quotas.values()))
    # interleave the classes, and the edge bands within a class, so that
    # any prefix of the corpus, such as the pooled games, has the full mix
    columns = {}
    for cls in sorted(filled):
        columns.setdefault(cls[:2], []).append(filled[cls])
    columns = [[g for row in zip_longest(*bands) for g in row if g is not None] for bands in columns.values()]
    games = [col[i] for i in range(max(map(len, columns))) for col in columns if i < len(col)]
    texts = [sg.serialize_game(arena) for _params, arena in games]
    return _solve_workload(texts, list(range(min(pooled_games, len(texts)))),
                           SOLVE_SMALL_BUDGET, {})


# size -> accepted band of knowledge states, about the middle half of what
# GenParams(n, 2, 2, 0.5, 3, 2, 1) produces; games outside it are redrawn.
# An odd number of sizes puts the median solve inside the middle size.
LARGE_BANDS = {9: (70, 100), 10: (95, 125), 11: (120, 160), 12: (160, 210), 13: (230, 300)}
LARGE_GAMES_PER_SIZE = 4


def solve_large(seed: int, tiny: bool = False) -> Workload:
    sizes = (9,) if tiny else tuple(LARGE_BANDS)
    per_size = 1 if tiny else LARGE_GAMES_PER_SIZE
    budget = Budget(2, SOLVE_LARGE_BUDGET.beliefs) if tiny else SOLVE_LARGE_BUDGET
    rng = random.Random(seed)
    texts = []
    for n in sizes:
        lo, hi = LARGE_BANDS[n]

        def draw(rng, n=n):
            return generate_arena(GenParams(n, 2, 2, 0.5, 3, 2, 1, seed=rng.randrange(2**32)))

        def classify(arena, lo=lo, hi=hi):
            return lo <= sg.build_knowledge_arena(arena).census[0] < hi

        filled = _draw_by_quota(rng, {True: per_size}, draw, classify, 100)
        texts += [sg.serialize_game(arena) for arena in filled[True]]
    # the pooled pass takes the first game of every size
    return _solve_workload(texts, list(range(0, len(texts), per_size)), budget,
                           {"knowledge_state_bands": {n: list(LARGE_BANDS[n]) for n in sizes}})


# ---------------------------------------------------------------------------
# Evaluation workload


def _random_distribution(rng: random.Random, elems) -> dict[str, str]:
    support = rng.sample(elems, rng.randint(1, len(elems)))
    denom = rng.randint(len(support), STRATEGY_DENOMINATOR)
    cuts = sorted(rng.sample(range(1, denom), len(support) - 1))
    out, prev = {}, 0
    for elem, cut in zip(support, cuts + [denom]):
        out[elem] = f"{cut - prev}/{denom}"
        prev = cut
    return out


def _random_strategy_doc(rng: random.Random, owner: str, actions, n_blocks: int) -> str:
    memory = [f"m{i}" for i in range(rng.randint(3, 5))]
    return json.dumps({
        "owner": owner,
        "memory": memory,
        "init": memory[0],
        "move": {m: _random_distribution(rng, list(actions)) for m in memory},
        "update": {m: {str(b): rng.choice(memory) for b in range(n_blocks)} for m in memory},
    })


def _backward(edges, start, through=lambda u: True) -> set[int]:
    """Nodes with a path into ``start`` whose nodes before it pass ``through``."""
    reverse = [[] for _ in edges]
    for u, out in enumerate(edges):
        for v in out:
            reverse[v].append(u)
    seen = set(start)
    stack = list(start)
    while stack:
        v = stack.pop()
        for u in reverse[v]:
            if u not in seen and through(u):
                seen.add(u)
                stack.append(u)
    return seen


def pinned_nodes(chain) -> int:
    """Chain nodes whose reach value is exactly 0 or 1, by graph analysis.

    Value 0: no path to a final node.  Value 1: no path, avoiding final
    nodes, to a value-0 node.
    """
    n = len(chain.nodes)
    zero = set(range(n)) - _backward(chain.edges, chain.final)
    below_one = _backward(chain.edges, zero, lambda u: u not in chain.final)
    return n - len(below_one) + len(zero)


def bottom_components(edges) -> list[set[int]]:
    """Bottom strongly connected components (recursive Tarjan; product
    chains have a few hundred nodes at most)."""
    index, low, stack, on_stack, comps = {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in edges[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.add(w)
                if w == v:
                    break
            comps.append(comp)

    for v in range(len(edges)):
        if v not in index:
            visit(v)
    return [c for c in comps if all(w in c for v in c for w in edges[v])]


def elimination_work(edges, targets) -> int:
    """Fraction operations of the dense exact solve for the probability of
    hitting ``targets``, simulated on the supports of its linear system.

    The unknowns are the non-target nodes with a path to a target; every
    row update touches a whole row.  Over random pairs this predicts the
    time of an evaluation to within about 25% (one standard deviation),
    where the unknown count alone is off by about 45%.
    """
    unknowns = sorted(_backward(edges, targets) - set(targets))
    pos = {u: i for i, u in enumerate(unknowns)}
    rows = []
    for u in unknowns:
        bits = 1 << pos[u]
        for v in edges[u]:
            if v in pos:
                bits |= 1 << pos[v]
        rows.append(bits)
    updates = 0
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r] >> col & 1)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(len(rows)):
            if r != col and rows[r] >> col & 1:
                rows[r] |= rows[col]
                updates += 1
    return updates * len(rows)


def evaluation_work(chain) -> int:
    """elimination_work of the reach and the Buchi solve of one chain.

    The nodes are numbered breadth-first from the initial node, successors
    in the order of their (state, memory, memory) labels, which is close to
    the order the library's construction finds them in but does not depend
    on it: a change to that construction leaves the corpus as it is.
    """
    order, rank = [chain.init], {chain.init: 0}
    for u in order:
        for v in sorted(chain.edges[u], key=lambda v: chain.nodes[v]):
            if v not in rank:
                rank[v] = len(order)
                order.append(v)
    edges = [[rank[v] for v in chain.edges[u]] for u in order]
    work = elimination_work(edges, {rank[v] for v in chain.final})
    targets = set().union(*(c for c in bottom_components(edges) if any(order[v] in chain.final for v in c)))
    if targets and 0 not in targets:
        work += elimination_work(edges, targets)
    return work


# (pinned, half-octave of evaluation_work) -> pairs.  Every pair costs
# 2^12.5 to 2^14 work units (about 20-60 ms at the baseline), and the
# quotas follow the generator's own mix over these bins, so two seeds give
# different pairs with nearly the same distribution of cost: the median,
# the tail and the throughput of a pass then move little from one seed to
# the next.  "Pinned" pairs have at least 90% of their chain nodes at reach
# value exactly 0 or 1; the others carry rationals of tens of digits.
EVAL_QUOTAS = {(False, 25): 17, (False, 26): 16, (False, 27): 19, (True, 25): 6, (True, 26): 5, (True, 27): 9}


def eval_pairs(seed: int, tiny: bool = False) -> Workload:
    quotas = {(True, 25): 1, (False, 25): 2} if tiny else EVAL_QUOTAS

    def draw(rng):
        n = rng.randint(8, 16)
        sparse = rng.random() < 0.5
        params = GenParams(n, 2, 2, 0.4 if sparse else 0.7, rng.randint(2, 3), rng.randint(2, 3),
                           rng.randint(1, 2), seed=rng.randrange(2**32))
        arena = generate_arena(params)
        eve = _random_strategy_doc(rng, "eve", arena.eve_actions, len(arena.eve_obs))
        adam = _random_strategy_doc(rng, "adam", arena.adam_actions, len(arena.adam_obs))
        return arena, eve, adam

    def classify(cand):
        arena, eve, adam = cand
        chain = sg.build_chain(arena, sg.parse_strategy(eve), sg.parse_strategy(adam))
        if chain.init in chain.final:
            return None  # the value is 1 without a solve
        work = evaluation_work(chain)
        return (pinned_nodes(chain) >= 0.9 * len(chain.nodes), int(2 * math.log2(work)) if work else None)

    filled = _draw_by_quota(random.Random(seed), quotas, draw, classify, 400 * sum(quotas.values()))
    pairs = [cand for cls in sorted(filled) for cand in filled[cls]]

    ops = []
    for i, (generated, eve_doc, adam_doc) in enumerate(pairs):
        arena = sg.parse_game(sg.serialize_game(generated))
        eve = sg.parse_strategy(eve_doc)
        adam = sg.parse_strategy(adam_doc)
        ops += _pair_ops(f"p{i}", arena, eve, adam, seed * 1_000 + i)
    return Workload(
        ops, "eval", "simulate", _eval_cross_check,
        {"pairs": len(pairs), "mc_samples": MC_SAMPLES, "mc_horizon": MC_HORIZON,
         "evaluation_work_bins": sorted({round(2 ** (b / 2)) for _pinned, b in quotas})},
    )


def _fraction(value: Fraction) -> str:
    if not 0 <= value <= 1:
        raise Failure(f"probability {value} outside [0,1]")
    return f"{value.numerator}/{value.denominator}"


def _pair_ops(key, arena, eve, adam, mc_seed) -> list[Op]:
    """Evaluate (reach and Buchi on one product chain), certify Eve's
    strategy against the fully informed best response, simulate."""

    def evaluate():
        chain = sg.build_chain(arena, eve, adam)
        return (sg.objective_probability(chain, sg.Objective.REACHABILITY),
                sg.objective_probability(chain, sg.Objective.BUCHI))

    def certify():
        return sg.best_response_full_info(arena, eve, sg.Objective.REACHABILITY)

    def simulate():
        return sg.monte_carlo(arena, eve, adam, sg.Objective.REACHABILITY, MC_SAMPLES, MC_HORIZON, mc_seed)

    def canon_sim(result) -> str:
        from stochgames.evaluation import GENERATOR_ID

        if result.samples != MC_SAMPLES:
            raise Failure(f"{key}/simulate: {result.samples} samples, asked for {MC_SAMPLES}")
        return f"{_fraction(result.probability)} seed={mc_seed} generator={GENERATOR_ID}"

    return [
        Op(f"{key}/eval", "eval", evaluate, lambda r: f"reach={_fraction(r[0])} buchi={_fraction(r[1])}"),
        Op(f"{key}/certify", "certify", certify, lambda r: _fraction(r.probability)),
        Op(f"{key}/simulate", "simulate", simulate, canon_sim),
    ]


def _eval_cross_check(outputs: dict[str, str]) -> list[str]:
    """Relations every correct evaluator satisfies on one pair.

    P(Buchi) <= P(reach) on the same chain; the fully informed best
    response can only push the reach value below the one against this
    Adam; a simulated play cannot reach a target of exact probability 0.
    """
    problems = []
    for key, value in outputs.items():
        if not key.endswith("/eval"):
            continue
        pair = key[: -len("/eval")]
        reach, buchi = (Fraction(part.split("=")[1]) for part in value.split())
        cert = Fraction(outputs.get(f"{pair}/certify", "0"))
        estimate = Fraction(outputs.get(f"{pair}/simulate", "0").split()[0])
        if buchi > reach:
            problems.append(f"{pair}: buchi {buchi} > reach {reach}")
        if cert > reach:
            problems.append(f"{pair}: best response {cert} > reach {reach}")
        if reach == 0 and estimate > 0:
            problems.append(f"{pair}: estimate {estimate} for an unreachable target")
    return problems


WORKLOADS = {"solve-small": solve_small, "solve-large": solve_large, "eval-pairs": eval_pairs}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)
