"""Ground-truth evaluation of fixed strategy pairs.

A pair of finite-memory strategies induces a finite Markov chain over
(state, eve memory, adam memory) triples; objective probabilities are
computed on it exactly, in rational arithmetic.  Each is the probability
(or one minus it) of hitting the targets ``_targets`` chooses, computed
by ``_hit_probability``, which alone takes the 0/1 shortcuts.  The
targets are the final nodes, or for Buchi and co-Buchi the nodes from
which Buchi holds almost surely, found by two backward searches.  Graph
analysis pins every node of value 0 (no path to the targets) or 1 (no
path to a value-0 node that avoids the targets); the remaining nodes form
one linear system, in which every other node reads as exactly 0 or 1,
eliminated by one sparse, fraction-free integer elimination with diagonal
pivots.  Only the initial node's value is wanted, so the elimination
takes that node last, its value follows from its own pivot, and no other
node is solved; the best response's policy iteration, which reads every
value, solves every node.
The evaluation runs on integers from start to finish.  It reads every
weight in the integer form each ``Distribution`` keeps (``den`` and
``nums``), for the transition rows and the strategies' moves alike: each
node's row is mixed from those integers over one denominator (``_mix``),
and that integer row, scaled by its denominator, already is the node's
equation, which the solver reads as it is.  ``Fraction``s appear only for
the returned values; neither the distributions' ``Fraction`` views nor
``ProductChain.edges``, the ``Fraction`` view of the chain's rows, is
built unless something else reads it.

Monte Carlo simulation gives an independent statistical cross-check and
never decides anything.  It compiles the pair once into float cumulative
tables searched by bisection, each weight the correctly rounded quotient
of its integer numerator and denominator, stops a play once its outcome
is fixed, and advances the generator past the skipped steps as drawing
them would, so an estimate is a function of the seed and GENERATOR_ID
alone.  A play's
outcome is fixed at its first final state (inside the trailing window for
Buchi and co-Buchi), and also at its first node of the product from which
no final state is reachable: a support-only graph search marks those
nodes before the first play, and a play that meets one never visits a
final state again, so every objective's outcome is already known there.

The module also hosts an adversary oracle.  The fully informed best
response (a sound over-approximation of any observation-constrained
adversary) works on the adversary's decision process against Eve's
strategy: the sure-safe region, the greatest set of non-final nodes in
which the adversary can keep the play forever, settles both objectives,
whose values are one minus the maximal probability of reaching that
region, computed by policy iteration over the same exact solver, on
integer rows of the same form as the chain's.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .bitset import bits, mask_of
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

# objectives that hold with the probability of hitting their targets (the
# others with one minus it), and objectives read on the tail of a play
_HIT = (Objective.REACHABILITY, Objective.BUCHI)
_TAIL = (Objective.BUCHI, Objective.COBUCHI)


class _Compiled:
    """Index-level view of a strategy against a fixed arena.

    ``move[m]`` is the move at memory m as an integer row (den, {action
    index: num}), the strategy's ``Distribution.den`` and ``nums`` with the
    actions in name order, and ``update[m][t]`` is the memory after a step
    into state t, the update of t's observation block looked up once here.
    """

    def __init__(self, arena: Arena, strat: FiniteMemoryStrategy, owner: str):
        validate_strategy(arena, owner, strat)
        action_index = {a: i for i, a in enumerate(arena.actions(owner))}
        mem_index = {m: i for i, m in enumerate(strat.memory)}
        self.init = mem_index[strat.init_mem]
        moves = [strat.move[m] for m in strat.memory]
        self.move = [(dist.den, {action_index[a]: num for a, num in sorted(dist.nums.items())}) for dist in moves]
        block_of = arena.block_of(owner)
        self.update = [[mem_index[strat.update[m][b]] for b in block_of] for m in strat.memory]


def _transition_rows(arena: Arena) -> list:
    """The transition distributions as one flat list, the row of (s, e, a)
    at index (s * |E| + e) * |A| + a."""
    n_eve, n_adam = len(arena.eve_actions), len(arena.adam_actions)
    return [
        arena.transition[(s, e, a)]
        for s in range(arena.n_states)
        for e in range(n_eve)
        for a in range(n_adam)
    ]


def _mix(rows: list, reads) -> tuple[int, dict[int, int]]:
    """The mixture of the transition rows ``reads``, pairs (row index,
    integer weight), as (lcm, {successor: integer weight}): each weight is
    over the reads' common denominator times the lcm of the rows'
    denominators, and successors come in order of first appearance."""
    lcm = math.lcm(*[rows[k].den for k, _w in reads])
    out: dict[int, int] = {}
    get = out.get
    for k, w in reads:
        dist = rows[k]
        w *= lcm // dist.den
        for t, q in dist.nums.items():
            out[t] = get(t, 0) + w * q
    return lcm, out


class _LazyRows(dict):
    """The rows ``rows`` as ``compile`` turns them, keyed by index and each
    compiled when first read: a play reads only the transition rows of the
    states it reaches."""

    def __init__(self, rows: list, compile):
        super().__init__()
        self._rows = rows
        self._compile = compile

    def __missing__(self, k: int):
        row = self[k] = self._compile(self._rows[k])
        return row


@dataclass(frozen=True)
class ProductChain:
    """Markov chain induced by an arena and a pair of strategies.

    ``nodes[i]`` is a (state, eve memory, adam memory) triple.  ``rows[i]``
    is node i's row in integers over one denominator, (den, {successor
    node index: num}), each probability num / den, the nums summing to den.
    ``edges`` is the ``Fraction`` view of the rows, ``edges[i]`` mapping
    successors to exact probabilities in the same order; it is built when
    first read, and the evaluation itself never reads it.
    """

    nodes: tuple[tuple[int, int, int], ...]
    rows: tuple[tuple[int, dict[int, int]], ...]
    init: int
    final: frozenset[int]

    @cached_property
    def edges(self) -> tuple[dict[int, Fraction], ...]:
        return tuple({v: Fraction(w, den) for v, w in row.items()} for den, row in self.rows)


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

    A node's row is summed in integers over one denominator, from the
    integer weights of the moves and transition rows (``_mix``): the
    product of the two move rows' denominators and the lcm of the
    denominators of the transition rows the node reads.  The chain keeps that integer row
    (``ProductChain.rows``).  Raises ResourceLimit once the chain would exceed
    ``max_nodes`` nodes; without a cap the chain is at most states x memory
    x memory.  A cap below 0 is invalid input.
    """
    if max_nodes is not None and max_nodes < 0:
        raise ValidationError(f"product chain cap must be at least 0, got {max_nodes}")
    ce = _Compiled(arena, eve, EVE)
    ca = _Compiled(arena, adam, ADAM)
    trans = _transition_rows(arena)
    n_eve, n_adam = len(arena.eve_actions), len(arena.adam_actions)
    cap = math.inf if max_nodes is None else max_nodes
    start = (arena.init, ce.init, ca.init)
    nodes: list[tuple[int, int, int]] = [start]
    index = {start: 0}
    rows: list[tuple[int, dict[int, int]]] = []
    qi = 0
    while qi < len(nodes):
        s, me, ma = nodes[qi]
        qi += 1
        den_e, eve_row = ce.move[me]
        den_a, adam_row = ca.move[ma]
        reads = [((s * n_eve + e) * n_adam + a, pe * pa) for e, pe in eve_row.items() for a, pa in adam_row.items()]
        lcm, mix = _mix(trans, reads)
        den = den_e * den_a * lcm
        up_e, up_a = ce.update[me], ca.update[ma]
        out: dict[int, int] = {}
        for t, w in mix.items():
            node = (t, up_e[t], up_a[t])
            v = index.get(node)
            if v is None:
                v = len(nodes)
                if v >= cap:
                    raise ResourceLimit(f"product chain exceeds {max_nodes} nodes")
                nodes.append(node)
                index[node] = v
            out[v] = w
        rows.append((den, out))
    final = frozenset(i for i, (s, _me, _ma) in enumerate(nodes) if s in arena.final)
    return ProductChain(nodes=tuple(nodes), rows=tuple(rows), init=0, final=final)


# ---------------------------------------------------------------------------
# Graph machinery


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


def _reverse(rows) -> list[list[int]]:
    """The predecessors of every node of the integer rows ``rows``."""
    reverse: list[list[int]] = [[] for _ in rows]
    for u, (_den, row) in enumerate(rows):
        for v in row:
            reverse[v].append(u)
    return reverse


def _pin(rows, targets) -> tuple[set[int], set[int]]:
    """The 0/1 pinning of the absorption values of ``targets``: the nodes
    without a path to the targets (value 0), and the nodes that can reach
    one of those without passing a target (value below 1)."""
    reverse = _reverse(rows)
    zero = set(range(len(rows))) - _reachable(reverse, targets)
    return zero, _reachable(reverse, zero, targets)


def absorption_values(rows, targets: set[int], at=None) -> list[Fraction]:
    """Exact probability of ever hitting ``targets``, from every node, or
    from each node of the sequence ``at``, in its order.

    ``rows[u]`` is (den, {successor: num}) with positive integer nums
    summing to den, each probability num / den; an empty row makes u a
    dead end.  Nodes without a path to the targets get 0, nodes that
    cannot reach such a node without passing a target get 1, and only the
    rest (whose values lie strictly between) are unknowns, all of them one
    linear system (``_solve``) in which every other successor reads as
    exactly 0 or 1.  With ``at``, only the unknowns of ``at`` are solved:
    the system is eliminated with them last, and no other unknown gets a
    value; a node of ``at`` that is 0 or 1 needs no solve at all.
    """
    zero, below = _pin(rows, targets)
    nodes = range(len(rows)) if at is None else at
    unknowns = below - zero
    wanted = [u for u in nodes if u in unknowns]
    solved = _solve(sorted(unknowns), rows, zero, wanted) if wanted else {}
    return [_ZERO if u in zero else solved.get(u, _ONE) for u in nodes]


def _solve(unknowns: list[int], rows, zero: set[int], at) -> dict[int, Fraction]:
    """The values of the unknowns ``at`` from x_u = sum_v p_uv x_v over all
    of ``unknowns``, where every successor outside ``unknowns`` has the
    value 0 if it is in ``zero`` and 1 otherwise.

    The integer row is the equation scaled by its denominator:
    den x_u - sum_{v unknown} num_v x_v = sum_{v of value 1} num_v,
    kept sparse as a {column: coefficient} dict and an integer constant.

    Elimination takes the diagonal pivots in one static, fill-reducing
    order (cheapest first by the row's length times the number of rows
    holding the column, ties by column), with the columns of ``at`` last
    and no pivot search.  That is safe: every unknown has a path, through
    unknowns, to a node outside them, so P, the probabilities among the
    unknowns, is substochastic with spectral radius below 1, and the
    matrix den (I - P) is a nonsingular M-matrix.  Every Schur complement
    of a nonsingular M-matrix is again one, whatever the symmetric order
    of elimination, so each diagonal pivot stays positive; a pivot that is
    not, which only rows breaking the contract of ``absorption_values``
    can produce, is reported as a singular system.  A row update
    p * row - f * pivot row stays in integers and is divided by the gcd of
    its entries, constant included.  Once the other columns are
    eliminated, the last pivot row holds its pivot alone, and the rows of
    ``at`` hold columns of ``at`` only, so integer back-substitution runs
    over those trailing rows only, in reverse pivot order, each value a
    gcd-reduced (den, num) pair that becomes a ``Fraction`` only at the
    end; the other unknowns are never solved.  On these sparse rows (about
    three entries each) the elimination touches a few hundred entries
    where a dense one touches thousands; it is state elimination for
    Markov-chain reachability (Daws 2004) in integer arithmetic, which
    leaves the value of the state eliminated last.
    """
    col = {u: i for i, u in enumerate(unknowns)}
    k = len(unknowns)
    eqs: list[dict[int, int]] = []
    consts: list[int] = []
    for u in unknowns:
        den, row = rows[u]
        eq = {col[u]: den}
        const = 0
        for v, w in row.items():
            j = col.get(v)
            if j is not None:
                eq[j] = eq.get(j, 0) - w
            elif v not in zero:
                const += w
        eqs.append(eq)
        consts.append(const)
    holders: list[set[int]] = [set() for _ in range(k)]  # per column: the other rows holding it
    for r, eq in enumerate(eqs):
        for j in eq:
            if j != r:
                holders[j].add(r)
    last = {col[u] for u in at}
    order = sorted(range(k), key=lambda j: (j in last, len(eqs[j]) * (len(holders[j]) + 1), j))
    pivots = [0] * k
    for j in order:
        top = eqs[j]
        p = pivots[j] = top.pop(j)
        if p <= 0:
            raise ValidationError("singular linear system in exact solve")
        c_top = consts[j]
        for l in top:
            holders[l].discard(j)
        for r in holders[j]:
            row = eqs[r]
            f = row.pop(j)
            new = {l: a * p for l, a in row.items()}
            for l, b in top.items():
                if l in new:
                    new[l] -= f * b
                else:
                    new[l] = -f * b
                    holders[l].add(r)
            c = consts[r] * p - f * c_top
            g = math.gcd(c, *new.values())
            if g > 1:
                new = {l: a // g for l, a in new.items()}
                c //= g
            eqs[r] = new
            consts[r] = c
    xs: dict[int, tuple[int, int]] = {}  # per column of ``at``: (den, num) of x
    for j in reversed(order[k - len(last) :]):
        top = eqs[j]
        d = math.lcm(*(xs[l][0] for l in top))
        n = consts[j] * d - sum(a * xs[l][1] * (d // xs[l][0]) for l, a in top.items())
        d *= pivots[j]
        g = math.gcd(n, d)
        xs[j] = (d // g, n // g)
    return {unknowns[j]: Fraction(n, d) for j, (d, n) in xs.items()}


def _targets(chain: ProductChain, objective: Objective) -> set[int]:
    """The nodes whose hitting probability settles ``objective``: the final
    nodes, or for Buchi and co-Buchi the nodes from which Buchi holds
    almost surely, those that cannot reach a node without a path to a
    final node.

    Almost every play of a finite chain ends in a bottom strongly
    connected component and visits all of its nodes infinitely often, so
    Buchi holds almost surely from a node exactly when every node it
    reaches can still reach a final node, and its probability elsewhere
    is that of reaching such a node (Baier and Katoen 2008, section 10.1).
    """
    if objective not in _TAIL:
        return set(chain.final)
    reverse = _reverse(chain.rows)
    nodes = set(range(len(chain.rows)))
    return nodes - _reachable(reverse, nodes - _reachable(reverse, chain.final))


def _hit_probability(chain: ProductChain, targets: set[int]) -> Fraction:
    """Exact probability of hitting ``targets`` from the initial node,
    the only value solved for: the solve eliminates the initial node last
    (``absorption_values`` with ``at``)."""
    if chain.init in targets:
        return _ONE
    if not targets:
        return _ZERO
    return absorption_values(chain.rows, targets, (chain.init,))[0]


def objective_probability(chain: ProductChain, objective: Objective) -> Fraction:
    p = _hit_probability(chain, _targets(chain, objective))
    return p if objective in _HIT else _ONE - p


# ---------------------------------------------------------------------------
# Monte Carlo


# one sampled step draws three floats, and each float two 32-bit words of the
# generator: getrandbits(_STEP_BITS * n) consumes what n steps consume
_STEP_BITS = 192
_SKIP_CHUNK = 4096  # steps skipped per getrandbits call, bounding its integer


def _cdf(den: int, nums: dict) -> tuple[list[float], list]:
    """An integer row, each element's weight ``nums[x] / den``, as
    (cumulative floats, elements).

    Each weight is the integer quotient ``num / den``, the same correctly
    rounded float as ``float(Fraction(num, den))``.  The last cumulative is
    ``inf``, so ``bisect_right(cum, r)`` is the first element whose
    cumulative exceeds r, and the last element when rounding left every
    cumulative sum at or below r.
    """
    cum = list(accumulate([num / den for num in nums.values()]))
    cum[-1] = math.inf
    return cum, list(nums)


def _skip(rng: random.Random, steps: int) -> None:
    """Advance ``rng`` exactly as ``steps`` more sampled steps would."""
    while steps > 0:
        chunk = min(steps, _SKIP_CHUNK)
        rng.getrandbits(_STEP_BITS * chunk)
        steps -= chunk


def _dead_nodes(arena: Arena, ce: _Compiled, ca: _Compiled, rows, max_nodes: int) -> frozenset:
    """Of the nodes (state, eve memory, adam memory) reachable from the
    initial node, those from which no final state is reachable; none at all
    once the reachable nodes outnumber ``max_nodes``.

    The graph reads supports only: the successors of (s, me, ma) are
    (t, update_e[me][t], update_a[ma][t]) for every t in the support of a
    transition row (s, e, a), e in the support of Eve's move at me and a in
    the support of Adam's move at ma.  One backward search from the nodes
    at final states finds every node that can still reach one; the rest
    are dead (the "probability 0" precomputation, Baier and Katoen 2008,
    section 10.1).
    """
    if max_nodes < 1:
        return frozenset()
    n_eve, n_adam = len(arena.eve_actions), len(arena.adam_actions)
    supports: dict[int, int] = {}  # support masks of the rows read so far
    start = (arena.init, ce.init, ca.init)
    nodes = [start]
    index = {start: 0}
    reverse: list[list[int]] = [[]]
    for u, (s, me, ma) in enumerate(nodes):  # grows while it is walked
        post = 0
        for e in ce.move[me][1]:
            base = (s * n_eve + e) * n_adam
            for a in ca.move[ma][1]:
                mask = supports.get(base + a)
                if mask is None:
                    mask = supports[base + a] = mask_of(rows[base + a].nums)
                post |= mask
        up_e, up_a = ce.update[me], ca.update[ma]
        for t in bits(post):
            node = (t, up_e[t], up_a[t])
            v = index.get(node)
            if v is None:
                v = len(nodes)
                if v >= max_nodes:
                    return frozenset()
                nodes.append(node)
                index[node] = v
                reverse.append([])
            reverse[v].append(u)
    alive = _reachable(reverse, [v for v, (s, _me, _ma) in enumerate(nodes) if s in arena.final])
    return frozenset(node for v, node in enumerate(nodes) if v not in alive)


def _sampler(arena: Arena, eve: FiniteMemoryStrategy, adam: FiniteMemoryStrategy, max_nodes: int):
    """A function (horizon, rng, first) -> state sequence of one sampled play.

    The strategy pair is compiled once here into flat tables: a cumulative
    row per memory of each strategy, each memory's update indexed by
    successor state, and a final flag per state; the cumulative row of the
    transition at index (s * |E| + e) * |A| + a is compiled when a play
    first reads it.  Each step draws Eve's action, Adam's action and then
    the successor, in that order.  The play stops at the first final state
    at step ``first`` or later, and at the first dead node, one from which
    no final state is reachable (``_dead_nodes``, searched while the
    product has at most ``max_nodes`` nodes).  Monte Carlo knows the
    outcome at either stop: a play that meets a dead node never visits a
    final state again.
    The play then advances ``rng`` past the steps it skips.
    """
    ce = _Compiled(arena, eve, EVE)
    ca = _Compiled(arena, adam, ADAM)
    rows = _transition_rows(arena)
    dead = _dead_nodes(arena, ce, ca, rows, max_nodes)
    eve_cdf = [_cdf(den, row) for den, row in ce.move]
    adam_cdf = [_cdf(den, row) for den, row in ca.move]
    trans_cdf = _LazyRows(rows, lambda dist: _cdf(dist.den, dist.nums))
    up_e, up_a = ce.update, ca.update
    final = [s in arena.final for s in range(arena.n_states)]
    n_eve, n_adam = len(arena.eve_actions), len(arena.adam_actions)

    def play(horizon: int, rng: random.Random, first: int) -> list[int]:
        rand = rng.random
        s, me, ma = arena.init, ce.init, ca.init
        states = [s]
        if final[s] and first <= 0 or (s, me, ma) in dead:
            _skip(rng, horizon)
            return states
        for i in range(1, horizon + 1):
            cum, elems = eve_cdf[me]
            e = elems[bisect_right(cum, rand())]
            cum, elems = adam_cdf[ma]
            a = elems[bisect_right(cum, rand())]
            cum, elems = trans_cdf[(s * n_eve + e) * n_adam + a]
            s = elems[bisect_right(cum, rand())]
            me = up_e[me][s]
            ma = up_a[ma][s]
            states.append(s)
            if final[s] and i >= first or (s, me, ma) in dead:
                _skip(rng, horizon - i)
                break
        return states

    return play


def tail_window(horizon: int) -> int:
    """Length of the trailing window in which ``monte_carlo`` reads Buchi
    and co-Buchi: the last 10% of the horizon, at least one step."""
    return max(1, horizon // 10)


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
    final-state visits within the trailing window (``tail_window``) and
    flagged approximate.  A play stops as soon as its outcome is fixed: at
    its first final state, or for Buchi and co-Buchi at its first final
    state inside the window; and at the first node of the product from
    which no final state is reachable, after which every objective's
    outcome is fixed too (reach and Buchi miss, safety and co-Buchi hold).
    That second stop reads a support-only graph of the product, built only
    while it has at most ``samples * horizon + 1`` nodes, the most the run
    can visit.  The generator is then advanced exactly as the skipped
    steps would have advanced it, so the estimate is a function of
    ``seed`` and the generator identified by GENERATOR_ID alone, the same
    as if every play ran its full horizon.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    play = _sampler(arena, eve, adam, samples * horizon + 1)
    rng = random.Random(seed)
    first = horizon + 1 - tail_window(horizon) if objective in _TAIL else 0
    hit = objective in _HIT
    hits = 0
    for _ in range(samples):
        states = play(horizon, rng, first)
        hits += (len(states) > first and states[-1] in arena.final) == hit
    p_hat = Fraction(hits, samples)
    half_width = 1.96 * (float(p_hat) * (1.0 - float(p_hat)) / samples) ** 0.5
    return EvalResult(
        probability=p_hat,
        method="monte_carlo",
        samples=samples,
        half_width=half_width,
        approximate=objective in _TAIL,
    )


# ---------------------------------------------------------------------------
# Fully informed best response


class _Mdp:
    """Adversary decision process over (state, eve memory) nodes:
    ``trans[v][a]`` is node v's row under Adam's action a, in the integer
    form of ``ProductChain.rows``."""

    def __init__(self, arena: Arena, eve: FiniteMemoryStrategy):
        ce = _Compiled(arena, eve, EVE)
        rows = _transition_rows(arena)
        n_eve, n_adam = len(arena.eve_actions), len(arena.adam_actions)
        start = (arena.init, ce.init)
        nodes = [start]
        index = {start: 0}
        trans: list[list[tuple[int, dict[int, int]]]] = []
        qi = 0
        while qi < len(nodes):
            s, me = nodes[qi]
            qi += 1
            den_e, eve_row = ce.move[me]
            up = ce.update[me]
            per_action = []
            for a in range(n_adam):
                lcm, mix = _mix(rows, [((s * n_eve + e) * n_adam + a, pe) for e, pe in eve_row.items()])
                out: dict[int, int] = {}
                for t, w in mix.items():
                    node = (t, up[t])
                    v = index.get(node)
                    if v is None:
                        v = len(nodes)
                        nodes.append(node)
                        index[node] = v
                    out[v] = w
                per_action.append((den_e * lcm, out))
            trans.append(per_action)
        self.nodes = nodes
        self.trans = trans
        self.init = 0
        self.final = {i for i, (s, _me) in enumerate(nodes) if s in arena.final}


_MAX_PI_ROUNDS = 10_000
_DEAD_END = (1, {})


def _mdp_max_reach(mdp: _Mdp, targets: set[int], absorbing: set[int]) -> Fraction:
    """Maximal probability of reaching ``targets`` from the initial node,
    exact, where the nodes of ``absorbing`` are dead ends.

    Evaluation always computes the true (least-fixpoint) value of the
    current policy, so the iteration terminates at the optimum.  The
    improvement step compares in integers: with the values scaled to
    integers over their lcm, an action's value times that lcm is
    num / den, num = sum_t num_t * scaled_t, and two such ratios compare
    by cross-multiplication.
    """
    if mdp.init in targets:
        return _ONE
    n = len(mdp.nodes)
    free = [v for v in range(n) if v not in targets and v not in absorbing]
    policy = [0] * n
    for _ in range(_MAX_PI_ROUNDS):
        rows = [_DEAD_END if v in absorbing else mdp.trans[v][policy[v]] for v in range(n)]
        vals = absorption_values(rows, targets)
        scale = math.lcm(*(x.denominator for x in vals))
        scaled = [x.numerator * (scale // x.denominator) for x in vals]
        improved = False
        for v in free:
            best_a, best_num, best_den = policy[v], None, 1
            for a, (den, row) in enumerate(mdp.trans[v]):
                num = sum(w * scaled[t] for t, w in row.items())
                if best_num is None or num * best_den > best_num * den:
                    best_a, best_num, best_den = a, num, den
            if best_num > scaled[v] * best_den:
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
            if not any(all(t in safe for t in row) for _den, row in mdp.trans[v]):
                safe.discard(v)
                changed = True
    absorbing = mdp.final if objective is Objective.REACHABILITY else set()
    return EvalResult(probability=_ONE - _mdp_max_reach(mdp, safe, absorbing), method="exact")
