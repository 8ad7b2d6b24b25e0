"""Qualitative solver for games of one imperfectly informed player vs chance.

Positive winning for safety and co-Buchi objectives.  The protagonist is
whichever player has a real alphabet; the other side has a single action, so
the game is a partially observable Markov decision process.  Only supports
matter, so a game is given by bitmask tables: the successor mask of every
state and protagonist action, the final mask, and the protagonist's
observation cells; no game keeps weights (the tests build games from
weighted arenas, and fold candidates on exact weights, with their
oracles).  Beliefs are the protagonist's knowledges over game states;
every belief node is refined by final-membership so that "visits a final
state" is a property of the node.  The refinement is realized once and for
all by splitting the protagonist's observation partition along the final
set into those cells, which can only strengthen the protagonist's
information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Mapping

from .bitset import bits
from .errors import ResourceLimit
from .model import Distribution, FiniteMemoryStrategy

DEFAULT_BELIEF_CAP = 10**6


@dataclass(frozen=True, eq=False)
class OneHalfGame:
    """Game of the protagonist against chance, as support tables.

    ``post[s][a]`` is the mask of the states reachable from s under the
    protagonist's action a; ``cells`` are the protagonist's observation
    blocks split by final-membership (non-final part first), as masks.
    """

    protagonist: str
    states: tuple[str, ...]
    actions: tuple[str, ...]
    post: tuple[tuple[int, ...], ...]
    cells: tuple[int, ...]
    final_mask: int
    init: int

    @cached_property
    def n(self) -> int:
        return len(self.post)

    @cached_property
    def n_actions(self) -> int:
        return len(self.actions)

    def belief_successors(self, belief: int, action: int) -> tuple[int, ...]:
        """Refined successor beliefs: intersection with each observation
        cell."""
        post = 0
        for s in bits(belief):
            post |= self.post[s][action]
        return tuple(cell & post for cell in self.cells if cell & post)


@dataclass(frozen=True)
class BeliefGraph:
    """Deterministic graph of protagonist beliefs.

    ``succ[belief][action]`` lists the refined successor beliefs, one per
    compatible (observation block, final-part) cell; ``touching`` flags the
    beliefs made of final states.
    """

    nodes: tuple[int, ...]
    succ: Mapping[int, tuple[tuple[int, ...], ...]]
    touching: frozenset[int]


def build_belief_graph(g: OneHalfGame, max_beliefs: int = DEFAULT_BELIEF_CAP) -> BeliefGraph:
    """Closure of the belief space from all singleton beliefs, breadth first."""
    nodes: list[int] = [1 << s for s in range(g.n)]
    seen = set(nodes)
    succ: dict[int, tuple[tuple[int, ...], ...]] = {}
    for b in nodes:  # grows while it is walked
        rows = []
        for a in range(g.n_actions):
            row = g.belief_successors(b, a)
            rows.append(row)
            for c in row:
                if c not in seen:
                    if len(seen) >= max_beliefs:
                        raise ResourceLimit(f"belief graph exceeds {max_beliefs} nodes")
                    seen.add(c)
                    nodes.append(c)
        succ[b] = tuple(rows)
    touching = frozenset(b for b in nodes if b & g.final_mask)
    return BeliefGraph(nodes=tuple(nodes), succ=succ, touching=touching)


@dataclass(frozen=True, eq=False)
class PositivePlay:
    """The protagonist's positively winning play from the initial state.

    He plays the actions ``path_actions`` along the states ``path`` of a
    shortest path to a surely winning state, then, from that state's
    singleton belief, the sure choice ``choice`` of each belief of
    ``closure``: the beliefs that choice reaches, in discovery order.
    """

    game: OneHalfGame = field(repr=False)
    graph: BeliefGraph = field(repr=False)
    path: tuple[int, ...]
    path_actions: tuple[int, ...]
    closure: tuple[int, ...]
    choice: Mapping[int, int]

    @cached_property
    def footprint(self) -> int:
        """Mask of the states whose ``post`` rows the play reads: the states
        of the path and of every belief of the closure.

        Let another game have the same states, cells and final mask, and
        the same ``post`` rows at the footprint's states.  Each edge of the
        path is then an edge of that game, and the path avoids the same
        final states.  A belief's successors under an action depend on the
        rows of its own states only, so every belief of the closure has the
        same successors under its choice there.  The closure is thus the
        same graph, played by the same choice, and it stays surely winning.
        So the play wins positively from the initial state of that game
        too: the protagonist wins there, whatever its other rows are.
        """
        mask = 0
        for s in self.path:
            mask |= 1 << s
        for b in self.closure:
            mask |= b
        return mask


@dataclass(frozen=True)
class PositiveWinReport:
    """Result of a positive-winning analysis.

    ``play`` is present exactly when the game's initial state is
    positively winning; ``build_play`` finds it on first read.  ``witness``
    lowers it to a finite-memory strategy, and ``footprint`` gives the
    states it reads, each on first read.
    """

    winning_states: frozenset[int]
    sure_beliefs: frozenset[frozenset[int]]
    iterations: int
    build_play: Callable[[], PositivePlay] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def play(self) -> PositivePlay | None:
        return None if self.build_play is None else self.build_play()

    @cached_property
    def witness(self) -> FiniteMemoryStrategy | None:
        return None if self.play is None else _assemble_witness(self.play)

    @property
    def footprint(self) -> int | None:
        return None if self.play is None else self.play.footprint


def _first_action(graph: BeliefGraph, b: int, inside: set[int]) -> int | None:
    """Least action whose refined successors of ``b`` all lie in ``inside``."""
    for a, row in enumerate(graph.succ[b]):
        if all(c in inside for c in row):
            return a
    return None


def _shrink(graph: BeliefGraph, alive: set[int], kept: set[int]) -> int:
    """Delete from ``alive``, in place and sweep after sweep, the beliefs
    outside ``kept`` that have no action staying in ``alive``.

    Returns the number of sweeps that deleted something.
    """
    sweeps = 0
    while True:
        deleted = False
        for b in list(alive):
            if b not in kept and _first_action(graph, b, alive) is None:
                alive.discard(b)
                deleted = True
        if not deleted:
            return sweeps
        sweeps += 1


Layers = list[tuple[set[int], set[int]]]


def _sure_region(graph: BeliefGraph, through_final: bool) -> tuple[set[int], int, Layers]:
    """Beliefs from which the protagonist can surely avoid final-touching
    beliefs forever (safety) or visit them finitely often (co-Buchi), the
    observation being chosen adversarially.

    Returns (region, rounds, layers).  Co-Buchi is a least fixpoint over
    rounds: from z, the next set y keeps the beliefs that progress (have an
    action into z) and the non-touching beliefs that can stay in y; the
    layer (z, y) records the round.  Safety is the first round: no belief
    progresses into the empty z, as no successor row is empty.  Its rounds
    count the sweeps that deleted a belief.
    """
    nontouching = {b for b in graph.nodes if b not in graph.touching}
    if not through_final:
        return nontouching, _shrink(graph, nontouching, set()), [(set(), nontouching)]
    z: set[int] = set()
    layers: Layers = []
    while True:
        progress = {b for b in graph.nodes if _first_action(graph, b, z) is not None}
        y = progress | nontouching
        _shrink(graph, y, progress)
        if y == z:
            return z, len(layers), layers
        layers.append((z, y))
        z = y


def _winning_path(
    g: OneHalfGame, init: int, sure_states: set[int], through_final: bool
) -> tuple[list[int], list[int]] | None:
    """Shortest path of positive-probability edges from init to a surely
    winning state; restricted to non-final states unless ``through_final``.
    Ties are broken by canonical state and action order."""
    if not through_final and (g.final_mask >> init) & 1:
        return None
    if init in sure_states:
        return [init], []
    parent: dict[int, tuple[int, int]] = {}
    seen = {init}
    queue = [init]
    for s in queue:  # grows while it is walked
        least_action: dict[int, int] = {}
        for a, mask in enumerate(g.post[s]):
            for t in bits(mask):
                least_action.setdefault(t, a)
        for t, a in sorted(least_action.items()):
            if t in seen:
                continue
            if not through_final and (g.final_mask >> t) & 1:
                continue
            parent[t] = (s, a)
            if t in sure_states:
                path = [t]
                actions = []
                cur = t
                while cur != init:
                    p, act = parent[cur]
                    path.append(p)
                    actions.append(act)
                    cur = p
                return list(reversed(path)), list(reversed(actions))
            seen.add(t)
            queue.append(t)
    return None


def _belief_label(g: OneHalfGame, mask: int) -> str:
    return "b{" + ",".join(g.states[s] for s in bits(mask)) + "}"


def _positive_play(
    g: OneHalfGame,
    graph: BeliefGraph,
    sure_states: set[int],
    layers: Layers,
    through_final: bool,
) -> PositivePlay:
    found = _winning_path(g, g.init, sure_states, through_final)
    assert found is not None  # found only when the initial state wins
    path, path_actions = found
    # a belief that entered the region in round (z, y) moves into z if it
    # can, and otherwise stays in y; the rounds' y grow, so the first y
    # holding a belief is its round
    choice = {}
    closure = [1 << path[-1]]
    seen = set(closure)
    for b in closure:  # grows while it is walked
        z, y = next((z, y) for z, y in layers if b in y)
        a = _first_action(graph, b, z)
        choice[b] = a = _first_action(graph, b, y) if a is None else a
        for c in graph.succ[b][a]:
            if c not in seen:
                seen.add(c)
                closure.append(c)
    return PositivePlay(
        game=g,
        graph=graph,
        path=tuple(path),
        path_actions=tuple(path_actions),
        closure=tuple(closure),
        choice=choice,
    )


def _assemble_witness(play: PositivePlay) -> FiniteMemoryStrategy:
    g, graph = play.game, play.graph
    path_actions, closure, sure_choice = play.path_actions, play.closure, play.choice
    actions = g.actions
    n_blocks = len(g.cells)
    start_belief = closure[0]

    memory = [f"path{i}" for i in range(len(path_actions))]
    memory += [_belief_label(g, b) for b in closure]
    move = {}
    update = {}
    for i, a in enumerate(path_actions):
        name = f"path{i}"
        move[name] = Distribution.point(actions[a])
        nxt = f"path{i + 1}" if i + 1 < len(path_actions) else _belief_label(g, start_belief)
        update[name] = {b: nxt for b in range(n_blocks)}
    for b in closure:
        name = _belief_label(g, b)
        a = sure_choice[b]
        move[name] = Distribution.point(actions[a])
        row = {}
        by_cell = {c: _belief_label(g, c) for c in graph.succ[b][a]}
        for blk in range(n_blocks):
            target = name  # unreachable observations loop in place
            for c, label in by_cell.items():
                if c & g.cells[blk]:
                    target = label
                    break
            row[blk] = target
        update[name] = row
    init_mem = memory[0]
    return FiniteMemoryStrategy(
        owner=g.protagonist,
        memory=tuple(memory),
        init_mem=init_mem,
        move=move,
        update=update,
    )


def _positive(g: OneHalfGame, through_final: bool, max_beliefs: int) -> PositiveWinReport:
    graph = build_belief_graph(g, max_beliefs)
    sure, rounds, layers = _sure_region(graph, through_final)
    sure_states = {s for s in range(g.n) if (1 << s) in sure}

    # positively winning states are those connected to a surely winning
    # state; the connecting path avoids final states for safety and is
    # unrestricted for co-Buchi, so the search expands only such states
    pred: list[list[int]] = [[] for _ in range(g.n)]
    for s, row in enumerate(g.post):
        if through_final or not (g.final_mask >> s) & 1:
            reach = 0
            for mask in row:
                reach |= mask
            for t in bits(reach):
                pred[t].append(s)
    winning = set(sure_states)
    queue = list(winning)
    for t in queue:  # grows while it is walked
        for s in pred[t]:
            if s not in winning:
                winning.add(s)
                queue.append(s)

    return PositiveWinReport(
        winning_states=frozenset(winning),
        sure_beliefs=frozenset(frozenset(bits(b)) for b in sure),
        iterations=rounds,
        build_play=(
            partial(_positive_play, g, graph, sure_states, layers, through_final)
            if g.init in winning
            else None
        ),
    )


def positive_safety(g: OneHalfGame, max_beliefs: int = DEFAULT_BELIEF_CAP) -> PositiveWinReport:
    """States from which the protagonist wins safety with positive probability.

    A state is positively winning iff a path of non-final states leads to a
    state whose singleton belief is surely winning; the witness plays such a
    path and then the memoryless sure strategy.
    """
    return _positive(g, through_final=False, max_beliefs=max_beliefs)


def positive_cobuchi(g: OneHalfGame, max_beliefs: int = DEFAULT_BELIEF_CAP) -> PositiveWinReport:
    """Positive winning for co-Buchi: like safety, but the connecting path
    may traverse final states."""
    return _positive(g, through_final=True, max_beliefs=max_beliefs)
