"""Independent oracles used only by the tests.

These deliberately avoid the package's own graph machinery: the attractor
works on raw successor tables, the end-component check enumerates subsets,
SCC cross-checks go through networkx, exact absorption probabilities
come from one dense Gauss-Jordan solve, a distribution's weights are
checked with ``Fraction`` adds, a candidate is folded into Adam's game
on exact weights rather than on support masks, and the knowledge census
is counted on a closure over the paper's triples rather than read off the
support tables.  The product
chain and the adversary's decision process are built by summing
``Fraction`` weights edge by edge, and plays are sampled by a linear scan
over float cumulative rows, one step at a time to the full horizon.  The
candidates are enumerated in product order, independently of the solver's
positional ``_candidate_at``; the brute-force verdict walks that
enumeration and judges each candidate on exact product chains, without
Adam's belief graph.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator

import networkx as nx

from stochgames import (
    Arena,
    Distribution,
    FiniteMemoryStrategy,
    Objective,
    OneHalfGame,
    ResourceLimit,
    ValidationError,
    best_response_full_info,
    build_chain,
    build_knowledge_arena,
    lower_strategy,
    parse_game,
)
from stochgames.bitset import bits, block_masks, mask_of, split_masks
from stochgames.evaluation import almost_sure
from stochgames.model import ADAM, EVE
from instances import make_doc


# ---------------------------------------------------------------------------
# Weights


def distribution_error(weights) -> str | None:
    """The message ``Distribution(weights)`` raises, or None when it accepts
    them: each weight converted by ``Fraction`` and checked in order, then
    the total summed with ``Fraction`` adds."""
    total = Fraction(0)
    for elem, p in weights.items():
        p = Fraction(p)
        if p <= 0:
            return f"zero-weight or negative entry for {elem!r}; drop it or make it positive"
        total += p
    if not weights:
        return "distribution must have a non-empty support"
    if total != 1:
        return f"distribution weights sum to {total}, expected exactly 1"
    return None


# ---------------------------------------------------------------------------
# Steps and plays of an arena


def step_distribution(
    arena: Arena, s: int, eve_dist: Distribution, adam_dist: Distribution
) -> Distribution:
    """One-step successor distribution from ``s`` under mixed actions.

    ``eve_dist``/``adam_dist`` are distributions over action indices.  The
    result is the exact rational mixture of the transition function over the
    product of the two.
    """
    out: dict[int, Fraction] = {}
    for e, pe in eve_dist.items():
        for a, pa in adam_dist.items():
            for t, q in arena.transition[(s, e, a)].items():
                w = pe * pa * q
                out[t] = out.get(t, Fraction(0)) + w
    return Distribution(out)


def is_play_prefix(arena: Arena, states: Iterable[int]) -> bool:
    """True iff consecutive states are linked by a positive-probability step
    under some action pair."""
    seq = list(states)
    for s, t in zip(seq, seq[1:]):
        if not any(
            t in arena.transition[(s, e, a)]
            for e in range(len(arena.eve_actions))
            for a in range(len(arena.adam_actions))
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Strategy pairs on exact weights and by linear-scan sampling


def _compile(arena: Arena, strat: FiniteMemoryStrategy, owner: str):
    """(initial memory index, move rows, update rows) of a strategy: move
    rows list (action index, weight) in action-name order, update rows are
    indexed by observation block."""
    action_index = {a: i for i, a in enumerate(arena.actions(owner))}
    mem_index = {m: i for i, m in enumerate(strat.memory)}
    move = [[(action_index[a], p) for a, p in sorted(strat.move[m].items())] for m in strat.memory]
    n_blocks = len(arena.obs_blocks(owner))
    update = [[mem_index[strat.update[m][b]] for b in range(n_blocks)] for m in strat.memory]
    return mem_index[strat.init_mem], move, update


def fraction_chain(arena: Arena, eve, adam, max_nodes: int | None = None):
    """(nodes, edges, final) of the reachable product chain, each edge the
    ``Fraction`` sum of its one-step contributions; raises ResourceLimit
    when a node beyond ``max_nodes`` is discovered."""
    e_init, e_move, e_update = _compile(arena, eve, EVE)
    a_init, a_move, a_update = _compile(arena, adam, ADAM)
    e_block, a_block = arena.eve_block_of, arena.adam_block_of
    start = (arena.init, e_init, a_init)
    nodes = [start]
    index = {start: 0}
    edges = []
    for s, me, ma in nodes:  # grows while it is walked: breadth-first order
        out = {}
        for e, pe in e_move[me]:
            for a, pa in a_move[ma]:
                for t, q in arena.transition[(s, e, a)].items():
                    node = (t, e_update[me][e_block[t]], a_update[ma][a_block[t]])
                    if node not in index:
                        if max_nodes is not None and len(nodes) >= max_nodes:
                            raise ResourceLimit(f"product chain exceeds {max_nodes} nodes")
                        index[node] = len(nodes)
                        nodes.append(node)
                    v = index[node]
                    out[v] = out.get(v, Fraction(0)) + pe * pa * q
        edges.append(out)
    final = {v for v, (s, _me, _ma) in enumerate(nodes) if s in arena.final}
    return nodes, edges, final


def fraction_mdp(arena: Arena, eve):
    """(nodes, per-node rows by Adam action, final) of the adversary's
    decision process over (state, eve memory), on ``Fraction`` sums."""
    e_init, e_move, e_update = _compile(arena, eve, EVE)
    start = (arena.init, e_init)
    nodes = [start]
    index = {start: 0}
    trans = []
    for s, me in nodes:
        per_action = []
        for a in range(len(arena.adam_actions)):
            out = {}
            for e, pe in e_move[me]:
                for t, q in arena.transition[(s, e, a)].items():
                    node = (t, e_update[me][arena.eve_block_of[t]])
                    if node not in index:
                        index[node] = len(nodes)
                        nodes.append(node)
                    v = index[node]
                    out[v] = out.get(v, Fraction(0)) + pe * q
            per_action.append(out)
        trans.append(per_action)
    final = {v for v, (s, _me) in enumerate(nodes) if s in arena.final}
    return nodes, trans, final


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


def scan_sampler(arena: Arena, eve, adam):
    """A function (horizon, rng) -> state sequence of one sampled play; each
    step draws Eve's action, Adam's action and then the successor, each by a
    linear scan over a float cumulative row."""
    e_init, e_move, e_update = _compile(arena, eve, EVE)
    a_init, a_move, a_update = _compile(arena, adam, ADAM)
    eve_cdf = [_float_cdf(row) for row in e_move]
    adam_cdf = [_float_cdf(row) for row in a_move]
    trans_cdf = {key: _float_cdf(dist.items()) for key, dist in arena.transition.items()}

    def play(horizon: int, rng: random.Random) -> list[int]:
        s, me, ma = arena.init, e_init, a_init
        states = [s]
        for _ in range(horizon):
            e = _draw(eve_cdf[me], rng)
            a = _draw(adam_cdf[ma], rng)
            s = _draw(trans_cdf[(s, e, a)], rng)
            me = e_update[me][arena.eve_block_of[s]]
            ma = a_update[ma][arena.adam_block_of[s]]
            states.append(s)
        return states

    return play


def scan_estimate(
    arena: Arena, eve, adam, objective: Objective, samples: int, horizon: int, seed: int
) -> Fraction:
    """Share of ``samples`` full-horizon plays that satisfy ``objective``,
    reach and safety read on the whole play, Buchi and co-Buchi on its last
    max(1, horizon // 10) states."""
    play = scan_sampler(arena, eve, adam)
    rng = random.Random(seed)
    tail = objective in (Objective.BUCHI, Objective.COBUCHI)
    start = -max(1, horizon // 10) if tail else 0
    hit = objective in (Objective.REACHABILITY, Objective.BUCHI)
    wins = 0
    for _ in range(samples):
        seen = any(s in arena.final for s in play(horizon, rng)[start:])
        wins += seen == hit
    return Fraction(wins, samples)


# ---------------------------------------------------------------------------
# One-and-a-half-player games from weighted arenas


def refine_obs_by_final(arena: Arena, player: str) -> Arena:
    """Split every observation block of ``player`` into its non-final and
    final parts.  Idempotent; block order is preserved with the non-final
    part first."""
    blocks = tuple(
        part
        for block in arena.obs_blocks(player)
        for part in (
            tuple(s for s in block if s not in arena.final),
            tuple(s for s in block if s in arena.final),
        )
        if part
    )
    if blocks == arena.obs_blocks(player):
        return arena
    return replace(arena, **{"eve_obs" if player == EVE else "adam_obs": blocks})


def game_from_arena(arena: Arena, protagonist: str) -> tuple[OneHalfGame, Arena]:
    """The protagonist's game against chance in ``arena``, whose antagonist
    must have a single action, as support tables, together with the same
    game as an ``Arena`` with exact weights and the protagonist's partition
    refined by final-membership."""
    if protagonist not in (EVE, ADAM):
        raise ValidationError(f"protagonist must be 'eve' or 'adam', got {protagonist!r}")
    antagonist_actions = arena.adam_actions if protagonist == EVE else arena.eve_actions
    if len(antagonist_actions) != 1:
        raise ValidationError("the antagonist of a 1½-player game must have a single action")
    actions = arena.actions(protagonist)
    key = (lambda s, a: (s, a, 0)) if protagonist == EVE else (lambda s, a: (s, 0, a))
    final_mask = mask_of(arena.final)
    game = OneHalfGame(
        protagonist=protagonist,
        states=arena.states,
        actions=actions,
        post=tuple(
            tuple(mask_of(arena.transition[key(s, a)].support) for a in range(len(actions)))
            for s in range(arena.n_states)
        ),
        cells=split_masks(block_masks(arena.obs_blocks(protagonist)), final_mask),
        final_mask=final_mask,
        init=arena.init,
    )
    return game, refine_obs_by_final(arena, protagonist)


# ---------------------------------------------------------------------------
# Candidates in product order


def enumerate_candidates(ka, max_candidates: int = 10**7) -> Iterator[tuple[int, ...]]:
    """Yield every tuple of non-empty action subsets (bitmasks), one per
    reachable knowledge in ``ka.knowledges`` order.

    Canonical lexicographic order: knowledges in construction order, subsets
    by ascending bitmask.  Raises ResourceLimit when a candidate beyond the
    cap is requested, so a prefix of the stream can still be consumed.
    """
    k = len(ka.base.eve_actions)
    masks = range(1, 1 << k)
    for index, cand in enumerate(product(masks, repeat=len(ka.knowledges))):
        if index >= max_candidates:
            raise ResourceLimit(f"candidate enumeration exceeds cap of {max_candidates}", checked=max_candidates)
        yield cand


def knowledge_only(ka, cand) -> dict[int, int]:
    """The candidate as a strategy: action masks keyed by knowledge mask."""
    return dict(zip(ka.knowledges, cand))


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


def mdp_positive_safety(arena: Arena) -> bool:
    """Positive safety for Adam in a perfectly observed 1.5-player game,
    whose Eve has a single action: there is an end component of non-final
    states reachable from init by a path of non-final states.  End
    components are found by subset enumeration."""
    n = arena.n_states
    nonfinal = [s for s in range(n) if s not in arena.final]
    if arena.init in arena.final:
        return False
    n_actions = len(arena.adam_actions)

    def succs(s, a):
        return _support(arena.transition[(s, 0, a)])

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


def int_rows(edges):
    """``Fraction`` edge rows in the integer form ``absorption_values``
    reads: (den, {successor: num}) with den the lcm of the row's
    denominators and each probability num / den."""
    rows = []
    for row in edges:
        den = math.lcm(*(p.denominator for p in row.values()))
        rows.append((den, {v: p.numerator * (den // p.denominator) for v, p in row.items()}))
    return rows


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
    choice = knowledge_only(ka, cand)
    transition = {}
    for u, (_real, know) in enumerate(ka.kstates):
        cmask = choice[know]
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
# Knowledge census on the paper's triples


def triple_census(arena: Arena) -> tuple[int, int, int]:
    """(knowledge states, distinct knowledges, support edges) of the paper's
    knowledge arena on ``(real, know, last support)`` triples, by a
    breadth-first closure from ``(init, {init}, empty)`` that expands every
    triple under every support s: its successors are the triples
    ``(t, know', s)`` of the targets t of the actions of s, ``know'`` the
    states of t's block reachable from ``know`` under s."""
    n_adam = len(arena.adam_actions)
    block = {t: mask_of(b) for b in arena.eve_obs for t in b}
    start = (arena.init, 1 << arena.init, 0)
    triples, seen = [start], {start}
    edges = 0
    for real, know, _last in triples:  # grows while it is walked
        for dom in range(1, 1 << len(arena.eve_actions)):
            moves = [(e, a) for e in bits(dom) for a in range(n_adam)]
            after = mask_of(t for r in bits(know) for e, a in moves for t in arena.transition[(r, e, a)].support)
            succ = {(t, after & block[t], dom) for e, a in moves for t in arena.transition[(real, e, a)].support}
            edges += len(succ)
            for triple in succ - seen:
                seen.add(triple)
                triples.append(triple)
    return len(triples), len({know for _real, know, _last in triples}), edges


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
        low = lower_strategy(arena, knowledge_only(ka, cand))
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
