"""Independent oracles used only by the tests.

These deliberately avoid the package's own graph machinery: the attractor
works on raw successor tables, the end-component check enumerates subsets,
SCC cross-checks go through networkx, exact absorption probabilities
come from one dense Gauss-Jordan solve, and a candidate is folded into
Adam's game on exact weights rather than on support masks.  The
brute-force verdict walks the flat candidate enumeration and judges each
candidate on exact product chains, without Adam's belief graph.
"""

import random
from fractions import Fraction
from itertools import product
from typing import Iterator

import networkx as nx

from stochgames import (
    Arena,
    Distribution,
    FiniteMemoryStrategy,
    Objective,
    best_response_full_info,
    build_chain,
    build_knowledge_arena,
    enumerate_candidates,
    lower_strategy,
    parse_game,
)
from stochgames.evaluation import almost_sure
from stochgames.model import ADAM
from instances import make_doc


# ---------------------------------------------------------------------------
# Turn-based deterministic games and the classical attractor


def random_turn_based(seed: int, n_states: int = 4, n_actions: int = 2):
    """A turn-based deterministic reachability game with perfect information.

    Returns (arena, owner, table) where ``owner[s]`` names the player whose
    action matters at s and ``table[s][action]`` is the successor index.
    """
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(n_states)]
    owner = [rng.choice(["eve", "adam"]) for _ in range(n_states)]
    table = [[rng.randrange(n_states) for _ in range(n_actions)] for _ in range(n_states)]
    final = sorted(rng.sample(range(n_states), rng.randint(1, n_states - 1)))
    eve_actions = [f"a{i}" for i in range(n_actions)]
    adam_actions = [f"x{i}" for i in range(n_actions)]

    def rule(s, e, a):
        i = states.index(s)
        k = eve_actions.index(e) if owner[i] == "eve" else adam_actions.index(a)
        return {states[table[i][k]]: 1}

    discrete = [[s] for s in states]
    doc = make_doc(states, "s0", [states[f] for f in final], eve_actions, adam_actions, discrete, discrete, rule)
    return parse_game(doc), owner, table


def attractor_verdict(arena: Arena, owner, table) -> bool:
    """Classical attractor on the successor tables: can Eve force the final
    set in the turn-based deterministic game?"""
    n = len(owner)
    final = set(arena.final)
    attr = set(final)
    changed = True
    while changed:
        changed = False
        for s in range(n):
            if s in attr:
                continue
            succs = [table[s][k] for k in range(len(table[s]))]
            if owner[s] == "eve":
                pull = any(t in attr for t in succs)
            else:
                pull = all(t in attr for t in succs)
            if pull:
                attr.add(s)
                changed = True
    return arena.init in attr


# ---------------------------------------------------------------------------
# MDP criterion for positive safety under perfect information


def _support(dist):
    return list(dist.support)


def mdp_positive_safety(game) -> bool:
    """Positive safety in a perfectly observed 1.5-player game: there is an
    end component of non-final states reachable from init by a path of
    non-final states.  End components are found by subset enumeration."""
    arena = game.arena
    n = arena.n_states
    nonfinal = [s for s in range(n) if s not in arena.final]
    if arena.init in arena.final:
        return False
    n_actions = len(game.actions)

    def succs(s, a):
        return _support(game.step(s, a))

    ec_states = set()
    for mask in range(1, 1 << len(nonfinal)):
        comp = {nonfinal[i] for i in range(len(nonfinal)) if mask >> i & 1}
        allowed = {
            s: [a for a in range(n_actions) if all(t in comp for t in succs(s, a))]
            for s in comp
        }
        if any(not acts for acts in allowed.values()):
            continue
        graph = nx.DiGraph()
        graph.add_nodes_from(comp)
        for s in comp:
            for a in allowed[s]:
                for t in succs(s, a):
                    graph.add_edge(s, t)
        if len(comp) == 1:
            s = next(iter(comp))
            if graph.has_edge(s, s):
                ec_states.update(comp)
        elif nx.is_strongly_connected(graph):
            ec_states.update(comp)

    # non-final path search
    seen = {arena.init}
    queue = [arena.init]
    while queue:
        s = queue.pop()
        if s in ec_states:
            return True
        for a in range(n_actions):
            for t in succs(s, a):
                if t not in seen and t not in arena.final:
                    seen.add(t)
                    queue.append(t)
    return False


# ---------------------------------------------------------------------------
# Chain cross-checks via networkx


def nx_bottom_sccs(edges):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(edges)))
    for u, row in enumerate(edges):
        for v in row:
            graph.add_edge(u, v)
    comp_of = {}
    comps = list(nx.strongly_connected_components(graph))
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    bottoms = []
    for i, comp in enumerate(comps):
        if all(comp_of[v] == i for u in comp for v in edges[u]):
            bottoms.append(set(comp))
    return bottoms


def enumerate_policies(n_nodes: int, n_actions: int):
    return product(range(n_actions), repeat=n_nodes)


# ---------------------------------------------------------------------------
# Exact absorption probabilities by dense Gauss-Jordan elimination


def dense_absorption_values(edges, targets) -> list[Fraction]:
    """Probability, from every node, of ever hitting ``targets``.

    Every non-target node with a path to a target is an unknown of one
    dense system x_u - sum_v p_uv x_v = sum_{t in targets} p_ut, solved by
    Gauss-Jordan elimination in ``Fraction`` arithmetic; the other nodes
    get 0, which keeps the system non-singular.
    """
    n = len(edges)
    relevant = set(targets)
    changed = True
    while changed:
        changed = False
        for u in range(n):
            if u not in relevant and any(v in relevant for v in edges[u]):
                relevant.add(u)
                changed = True
    unknowns = [u for u in range(n) if u in relevant and u not in targets]
    pos = {u: i for i, u in enumerate(unknowns)}
    k = len(unknowns)
    a = [[Fraction(0)] * k for _ in range(k)]
    b = [Fraction(0)] * k
    for u in unknowns:
        i = pos[u]
        a[i][i] += 1
        for v, p in edges[u].items():
            if v in targets:
                b[i] += p
            elif v in pos:
                a[i][pos[v]] -= p
    for col in range(k):
        pivot = next(r for r in range(col, k) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = 1 / a[col][col]
        a[col] = [c * inv for c in a[col]]
        b[col] = b[col] * inv
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [cr - f * cc for cr, cc in zip(a[r], a[col])]
                b[r] = b[r] - f * b[col]
    values = [Fraction(0)] * n
    for t in targets:
        values[t] = Fraction(1)
    for u in unknowns:
        values[u] = b[pos[u]]
    return values


# ---------------------------------------------------------------------------
# Candidate fold on exact weights


def dense_fold(ka, cand) -> Arena:
    """Adam's game once Eve plays ``cand``, built from the weighted knowledge
    arena: at every knowledge state the rows of the pairs (e, S), e in the
    chosen set S, are mixed with weight 1/|S| each."""
    kaa = ka.arena
    pair_index = {pair: p for p, pair in enumerate(ka.eve_pairs)}
    transition = {}
    for u, ks in enumerate(ka.kstates):
        cmask = cand.strategy.choice[ks.know]
        pairs = [pair_index[(e, cmask)] for e in range(len(ka.base.eve_actions)) if cmask >> e & 1]
        share = Fraction(1, len(pairs))
        for a in range(len(kaa.adam_actions)):
            weights = {}
            for p in pairs:
                for t, q in kaa.transition[(u, p, a)].items():
                    weights[t] = weights.get(t, Fraction(0)) + share * q
            transition[(u, 0, a)] = Distribution(weights)
    return Arena(
        states=kaa.states,
        init=kaa.init,
        eve_actions=("*",),
        adam_actions=kaa.adam_actions,
        transition=transition,
        eve_obs=(tuple(range(len(kaa.states))),),
        adam_obs=kaa.adam_obs,
        final=kaa.final,
    )


# ---------------------------------------------------------------------------
# Brute-force verdict for tiny games


def _nonempty_subsets(items) -> list[tuple]:
    items = list(items)
    out = []
    for mask in range(1, 1 << len(items)):
        out.append(tuple(items[i] for i in range(len(items)) if mask >> i & 1))
    return out


def adam_uniform_strategies(arena: Arena, max_memory: int) -> Iterator[FiniteMemoryStrategy]:
    """All of Adam's uniform finite-memory strategies up to the memory bound."""
    n_blocks = len(arena.adam_obs)
    subsets = _nonempty_subsets(arena.adam_actions)
    for m in range(1, max_memory + 1):
        memory = tuple(f"m{i}" for i in range(m))
        for moves in product(subsets, repeat=m):
            for flat in product(range(m), repeat=m * n_blocks):
                update = {
                    memory[i]: {
                        b: memory[flat[i * n_blocks + b]] for b in range(n_blocks)
                    }
                    for i in range(m)
                }
                yield FiniteMemoryStrategy(
                    owner=ADAM,
                    memory=memory,
                    init_mem=memory[0],
                    move={memory[i]: Distribution.uniform(moves[i]) for i in range(m)},
                    update=update,
                )


def brute_force_verdict(
    arena: Arena,
    objective: Objective,
    adam_memory: int = 2,
    max_candidates: int = 10**5,
) -> str:
    """Independent yes/no/unknown oracle for tiny games.

    Enumerates the same knowledge-only uniform candidates as the solver.
    "yes" when some candidate survives the fully informed best response;
    "no" when every candidate is refuted by an explicit observation-based
    adversary within the memory bound; "unknown" otherwise.
    """
    ka = build_knowledge_arena(arena)
    lowered = []
    for cand in enumerate_candidates(ka, max_candidates):
        low = lower_strategy(arena, cand.strategy)
        if best_response_full_info(arena, low, objective).probability == 1:
            return "yes"
        lowered.append(low)
    for low in lowered:
        refuted = False
        for adam in adam_uniform_strategies(arena, adam_memory):
            chain = build_chain(arena, low, adam)
            if not almost_sure(chain, objective):
                refuted = True
                break
        if not refuted:
            return "unknown"
    return "no"
