"""Ground-truth evaluation of fixed strategy pairs.

A pair of finite-memory strategies induces a finite Markov chain over
(state, eve memory, adam memory) triples; objective probabilities are
computed on it exactly, in rational arithmetic.  Graph analysis pins every
node of value 0 (no path to the targets) or 1 (no path to a value-0 node
that avoids the targets); the remaining nodes are solved one strongly
connected component at a time in reverse topological order, each block by
fraction-free integer (Bareiss) elimination with the values of the
components below it substituted.  The same pinning alone decides whether
an objective holds almost surely.  Monte Carlo simulation gives an
independent statistical cross-check and never decides anything.

The module also hosts an adversary oracle.  The fully informed best
response (a sound over-approximation of any observation-constrained
adversary) works on the adversary's decision process against Eve's
strategy: the sure-safe region, the greatest set of non-final nodes in
which the adversary can keep the play forever, settles both objectives,
whose values are one minus the maximal probability of reaching that
region, computed by policy iteration over the same exact solver.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceLimit, ValidationError
from .model import (
    ADAM,
    EVE,
    Arena,
    FiniteMemoryStrategy,
    Objective,
    validate_strategy,
)

GENERATOR_ID = "python-random-mt19937"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Compiled:
    """Index-level view of a strategy against a fixed arena."""

    def __init__(self, arena: Arena, strat: FiniteMemoryStrategy, owner: str):
        validate_strategy(arena, owner, strat)
        action_index = {a: i for i, a in enumerate(arena.actions(owner))}
        mem_index = {m: i for i, m in enumerate(strat.memory)}
        self.init = mem_index[strat.init_mem]
        self.move = [
            [(action_index[a], p) for a, p in sorted(strat.move[m].items())]
            for m in strat.memory
        ]
        n_blocks = len(arena.obs_blocks(owner))
        self.update = [
            [mem_index[strat.update[m][b]] for b in range(n_blocks)] for m in strat.memory
        ]
        self.block_of = arena.block_of(owner)


@dataclass(frozen=True)
class ProductChain:
    """Markov chain induced by an arena and a pair of strategies.

    ``nodes[i]`` is a (state, eve memory, adam memory) triple; ``edges[i]``
    maps successor node indices to exact probabilities summing to 1.
    """

    nodes: tuple[tuple[int, int, int], ...]
    edges: tuple[dict[int, Fraction], ...]
    init: int
    final: frozenset[int]


@dataclass(frozen=True)
class EvalResult:
    probability: Fraction
    method: str
    samples: int | None = None
    half_width: float | None = None
    approximate: bool = False


def build_chain(
    arena: Arena,
    eve: FiniteMemoryStrategy,
    adam: FiniteMemoryStrategy,
    max_nodes: int | None = None,
) -> ProductChain:
    """Reachable product construction; each edge weight is the one-step
    mixture of the transition function under both moves.

    Raises ResourceLimit once the chain would exceed ``max_nodes`` nodes;
    without a cap the chain is at most states x memory x memory.  A cap
    below 0 is invalid input.
    """
    if max_nodes is not None and max_nodes < 0:
        raise ValidationError(f"product chain cap must be at least 0, got {max_nodes}")
    ce = _Compiled(arena, eve, EVE)
    ca = _Compiled(arena, adam, ADAM)
    start = (arena.init, ce.init, ca.init)
    nodes: list[tuple[int, int, int]] = [start]
    index = {start: 0}
    edges: list[dict[int, Fraction]] = []
    qi = 0
    while qi < len(nodes):
        s, me, ma = nodes[qi]
        qi += 1
        out: dict[int, Fraction] = {}
        for e, pe in ce.move[me]:
            for a, pa in ca.move[ma]:
                w = pe * pa
                for t, q in arena.transition[(s, e, a)].items():
                    node = (t, ce.update[me][ce.block_of[t]], ca.update[ma][ca.block_of[t]])
                    v = index.get(node)
                    if v is None:
                        v = len(nodes)
                        if max_nodes is not None and v >= max_nodes:
                            raise ResourceLimit(f"product chain exceeds {max_nodes} nodes")
                        nodes.append(node)
                        index[node] = v
                    out[v] = out.get(v, _ZERO) + w * q
        edges.append(out)
    final = frozenset(i for i, (s, _me, _ma) in enumerate(nodes) if s in arena.final)
    return ProductChain(nodes=tuple(nodes), edges=tuple(edges), init=0, final=final)


# ---------------------------------------------------------------------------
# Graph machinery


def strongly_connected_components(edges) -> list[list[int]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    n = len(edges)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    result: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(edges[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                result.append(comp)
    return result


def bottom_sccs(edges) -> list[list[int]]:
    sccs = strongly_connected_components(edges)
    comp_of = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i
    out = []
    for i, comp in enumerate(sccs):
        if all(comp_of[w] == i for v in comp for w in edges[v]):
            out.append(comp)
    return out


def _reachable(edges, sources, blocked=()) -> set[int]:
    """``sources`` and every node reachable from them along ``edges``
    without entering a node of ``blocked``."""
    seen = set(sources)
    queue = list(seen)
    while queue:
        v = queue.pop()
        for w in edges[v]:
            if w not in seen and w not in blocked:
                seen.add(w)
                queue.append(w)
    return seen


def _pin(edges, targets) -> tuple[set[int], set[int]]:
    """The 0/1 pinning of the absorption values of ``targets``: the nodes
    without a path to the targets (value 0), and the nodes that can reach
    one of those without passing a target (value below 1)."""
    n = len(edges)
    reverse: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in edges[u]:
            reverse[v].append(u)
    zero = set(range(n)) - _reachable(reverse, targets)
    return zero, _reachable(reverse, zero, targets)


def absorption_values(edges, targets: set[int]) -> list[Fraction]:
    """Exact probability, from every node, of ever hitting ``targets``.

    ``edges[u]`` maps successors to positive weights that sum to 1; an
    empty row makes u a dead end.  Nodes without a path to the targets get
    0, nodes that cannot reach such a node without passing a target get 1,
    and only the rest (whose values lie strictly between) are solved, one
    strongly connected component at a time, sinks first, so that every
    equation sees the values of its other successors already fixed.
    """
    zero, below = _pin(edges, targets)
    values = [_ZERO if u in zero else _ONE for u in range(len(edges))]
    unknowns = sorted(below - zero)
    pos = {u: i for i, u in enumerate(unknowns)}
    inner = [[pos[v] for v in edges[u] if v in pos] for u in unknowns]
    for comp in strongly_connected_components(inner):
        _solve_component([unknowns[i] for i in comp], edges, values)
    return values


def _solve_component(comp: list[int], edges, values: list[Fraction]) -> None:
    """Fill in ``values`` on ``comp`` from x_u = sum_v p_uv x_v, where every
    successor outside ``comp`` already carries its final value.

    Each equation is scaled by the LCM of its coefficient denominators and
    the constant column by the LCM of the scaled constants; the integer
    system is then solved by Bareiss's fraction-free elimination, in which
    every division is exact, and the solution x = y / (det * scale) is
    recovered by integer back-substitution with y = det * x.
    """
    col = {u: i for i, u in enumerate(comp)}
    k = len(comp)
    m: list[list[int]] = []
    consts: list[Fraction] = []
    for u in comp:
        row = {col[u]: _ONE}
        const = _ZERO
        for v, p in edges[u].items():
            j = col.get(v)
            if j is not None:
                row[j] = row.get(j, _ZERO) - p
            elif values[v]:
                const += p * values[v]
        lcm = math.lcm(*(c.denominator for c in row.values()))
        ints = [0] * (k + 1)
        for j, c in row.items():
            ints[j] = c.numerator * (lcm // c.denominator)
        m.append(ints)
        consts.append(const * lcm)
    scale = math.lcm(*(c.denominator for c in consts))
    for ints, const in zip(m, consts):
        ints[k] = const.numerator * (scale // const.denominator)
    prev = 1
    for j in range(k):
        pivot = next((r for r in range(j, k) if m[r][j]), None)
        if pivot is None:
            raise ValidationError("singular linear system in exact solve")
        m[j], m[pivot] = m[pivot], m[j]
        top = m[j]
        p = top[j]
        for r in range(j + 1, k):
            row = m[r]
            f = row[j]
            if f:
                m[r] = [(a * p - f * b) // prev for a, b in zip(row, top)]
            elif p != prev:
                m[r] = [a * p // prev for a in row]
        prev = p
    det = prev
    y = [0] * k
    for i in range(k - 1, -1, -1):
        row = m[i]
        acc = det * row[k] - sum(row[j] * y[j] for j in range(i + 1, k))
        y[i] = acc // row[i]
    den = det * scale
    for u, num in zip(comp, y):
        values[u] = Fraction(num, den)


def reach_probability(chain: ProductChain) -> Fraction:
    """Exact probability of reaching the final node set from the initial node."""
    if chain.init in chain.final:
        return _ONE
    return absorption_values(chain.edges, set(chain.final))[chain.init]


def _buchi_targets(chain: ProductChain) -> set[int]:
    targets: set[int] = set()
    for comp in bottom_sccs(chain.edges):
        if any(v in chain.final for v in comp):
            targets.update(comp)
    return targets


def buchi_probability(chain: ProductChain) -> Fraction:
    """Exact probability of visiting final nodes infinitely often: the
    probability of reaching a bottom SCC that contains a final node."""
    targets = _buchi_targets(chain)
    if not targets:
        return _ZERO
    if chain.init in targets:
        return _ONE
    return absorption_values(chain.edges, targets)[chain.init]


def objective_probability(chain: ProductChain, objective: Objective) -> Fraction:
    if objective is Objective.REACHABILITY:
        return reach_probability(chain)
    if objective is Objective.SAFETY:
        return _ONE - reach_probability(chain)
    if objective is Objective.BUCHI:
        return buchi_probability(chain)
    return _ONE - buchi_probability(chain)


def almost_sure(chain: ProductChain, objective: Objective) -> bool:
    """Qualitative check that the objective probability is exactly 1, read
    off the 0/1 pinning: reach and Buchi hold almost surely iff the initial
    node is pinned to 1, safety and co-Buchi iff it is pinned to 0."""
    if objective in (Objective.REACHABILITY, Objective.SAFETY):
        targets = set(chain.final)
    else:
        targets = _buchi_targets(chain)
    zero, below = _pin(chain.edges, targets)
    if objective in (Objective.REACHABILITY, Objective.BUCHI):
        return chain.init not in below
    return chain.init in zero


# ---------------------------------------------------------------------------
# Monte Carlo


def simulate_play(
    arena: Arena,
    eve: FiniteMemoryStrategy,
    adam: FiniteMemoryStrategy,
    horizon: int,
    rng: random.Random,
) -> list[int]:
    """Sample one play of ``horizon`` steps; returns the state sequence."""
    return _sampler(arena, eve, adam)(horizon, rng)


def _float_cdf(pairs):
    acc = 0.0
    out = []
    for elem, p in pairs:
        acc += float(p)
        out.append((acc, elem))
    return out


def _draw(cdf, rng):
    r = rng.random()
    for acc, elem in cdf:
        if r < acc:
            return elem
    return cdf[-1][1]


def _sampler(arena: Arena, eve: FiniteMemoryStrategy, adam: FiniteMemoryStrategy):
    """A function (horizon, rng) -> state sequence of one sampled play.

    The float CDF tables of both strategies' moves and of every transition
    are built once here; each step draws Eve's action, Adam's action and
    then the successor, in that order.
    """
    ce = _Compiled(arena, eve, EVE)
    ca = _Compiled(arena, adam, ADAM)
    eve_cdf = [_float_cdf(row) for row in ce.move]
    adam_cdf = [_float_cdf(row) for row in ca.move]
    trans_cdf = {key: _float_cdf(dist.items()) for key, dist in arena.transition.items()}

    def play(horizon: int, rng: random.Random) -> list[int]:
        s, me, ma = arena.init, ce.init, ca.init
        states = [s]
        for _ in range(horizon):
            e = _draw(eve_cdf[me], rng)
            a = _draw(adam_cdf[ma], rng)
            s = _draw(trans_cdf[(s, e, a)], rng)
            me = ce.update[me][ce.block_of[s]]
            ma = ca.update[ma][ca.block_of[s]]
            states.append(s)
        return states

    return play


def monte_carlo(
    arena: Arena,
    eve: FiniteMemoryStrategy,
    adam: FiniteMemoryStrategy,
    objective: Objective,
    samples: int,
    horizon: int = 1000,
    seed: int = 0,
) -> EvalResult:
    """Frequency estimate with a 95% confidence half-width.

    Buchi and co-Buchi are tail properties; they are approximated by
    final-state visits within the trailing window (the last 10% of the
    horizon) and flagged approximate.  Sampling uses the generator
    identified by GENERATOR_ID, seeded with ``seed``.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    play = _sampler(arena, eve, adam)
    rng = random.Random(seed)
    window = max(1, horizon // 10)
    hits = 0
    for _ in range(samples):
        states = play(horizon, rng)
        if objective is Objective.REACHABILITY:
            ok = any(s in arena.final for s in states)
        elif objective is Objective.SAFETY:
            ok = not any(s in arena.final for s in states)
        elif objective is Objective.BUCHI:
            ok = any(s in arena.final for s in states[-window:])
        else:
            ok = not any(s in arena.final for s in states[-window:])
        hits += ok
    p_hat = Fraction(hits, samples)
    half_width = 1.96 * (float(p_hat) * (1.0 - float(p_hat)) / samples) ** 0.5
    return EvalResult(
        probability=p_hat,
        method="monte_carlo",
        samples=samples,
        half_width=half_width,
        approximate=objective in (Objective.BUCHI, Objective.COBUCHI),
    )


# ---------------------------------------------------------------------------
# Fully informed best response


class _Mdp:
    """Adversary decision process over (state, eve memory) nodes."""

    def __init__(self, arena: Arena, eve: FiniteMemoryStrategy):
        ce = _Compiled(arena, eve, EVE)
        n_adam = len(arena.adam_actions)
        start = (arena.init, ce.init)
        nodes = [start]
        index = {start: 0}
        trans: list[list[dict[int, Fraction]]] = []
        qi = 0
        while qi < len(nodes):
            s, me = nodes[qi]
            qi += 1
            per_action = []
            for a in range(n_adam):
                out: dict[int, Fraction] = {}
                for e, pe in ce.move[me]:
                    for t, q in arena.transition[(s, e, a)].items():
                        node = (t, ce.update[me][ce.block_of[t]])
                        v = index.get(node)
                        if v is None:
                            v = len(nodes)
                            nodes.append(node)
                            index[node] = v
                        out[v] = out.get(v, _ZERO) + pe * q
                per_action.append(out)
            trans.append(per_action)
        self.nodes = nodes
        self.trans = trans
        self.init = 0
        self.final = {i for i, (s, _me) in enumerate(nodes) if s in arena.final}
        self.n_actions = n_adam


_MAX_PI_ROUNDS = 10_000


def _mdp_max_reach(mdp: _Mdp, targets: set[int], absorbing: set[int]) -> Fraction:
    """Maximal probability of reaching ``targets`` from the initial node,
    exact, where the nodes of ``absorbing`` are dead ends.

    Evaluation always computes the true (least-fixpoint) value of the
    current policy, so the iteration terminates at the optimum.
    """
    if mdp.init in targets:
        return _ONE
    n = len(mdp.nodes)
    free = [v for v in range(n) if v not in targets and v not in absorbing]
    policy = [0] * n
    for _ in range(_MAX_PI_ROUNDS):
        edges = [{} if v in absorbing else mdp.trans[v][policy[v]] for v in range(n)]
        vals = absorption_values(edges, targets)
        improved = False
        for v in free:
            best_a, best_q = policy[v], None
            for a in range(mdp.n_actions):
                q = sum((p * vals[t] for t, p in mdp.trans[v][a].items()), _ZERO)
                if best_q is None or q > best_q:
                    best_q = q
                    best_a = a
            if best_q > vals[v]:
                policy[v] = best_a
                improved = True
        if not improved:
            return vals[mdp.init]
    raise RuntimeError("policy iteration failed to converge")


def best_response_full_info(arena: Arena, eve: FiniteMemoryStrategy, objective: Objective) -> EvalResult:
    """Minimal objective probability a fully informed adversary can enforce.

    The adversary sees the exact (state, eve memory) node, so the result is
    a lower bound on what any observation-constrained adversary allows; a
    value of exactly 1 certifies the strategy almost-surely winning against
    every adversary.

    Both objectives reduce to the adversary's sure-safe region S: the
    greatest set of non-final nodes in each of which the adversary has an
    action keeping every successor inside S.  From S the adversary avoids
    the final nodes forever.  Conversely, whatever the adversary plays,
    almost every play ends up in an end component, and a play that sees
    final nodes only finitely often ends in one without final nodes, which
    lies inside S.  So the Buchi value is 1 minus the adversary's maximal
    probability of reaching S, and the reach value is the same with the
    final nodes made absorbing, since a play that meets one is won (the
    reach/safety duality for MDPs; de Alfaro 1997, Baier and Katoen ch. 10).
    """
    if objective not in (Objective.REACHABILITY, Objective.BUCHI):
        raise ValidationError("best response supports reach and buchi objectives only")
    mdp = _Mdp(arena, eve)
    safe = set(range(len(mdp.nodes))) - mdp.final
    changed = True
    while changed:
        changed = False
        for v in list(safe):
            if not any(all(t in safe for t in row) for row in mdp.trans[v]):
                safe.discard(v)
                changed = True
    absorbing = mdp.final if objective is Objective.REACHABILITY else set()
    return EvalResult(probability=_ONE - _mdp_max_reach(mdp, safe, absorbing), method="exact")
