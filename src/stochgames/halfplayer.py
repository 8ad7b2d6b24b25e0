"""Qualitative solver for games of one imperfectly informed player vs chance.

Positive winning for safety and co-Buchi objectives.  The protagonist is
whichever player has a real alphabet; the other side has a single action, so
the game is a partially observable Markov decision process.  Only supports
matter, so a game is given by bitmask tables: the successor mask of every
state and protagonist action, the final mask, and the protagonist's
observation cells; no game keeps weights or names (the tests build games
from weighted arenas, fold candidates on exact weights, and lower a
positively winning play to a finite-memory strategy with their
oracles).  Beliefs are the protagonist's knowledges over game states;
every belief node is refined by final-membership so that "visits a final
state" is a property of the node.  The refinement is realized once and for
all by splitting the protagonist's observation partition along the final
set into those cells, which can only strengthen the protagonist's
information.  A state is positively winning exactly when a path leads from
it to a state whose singleton belief is surely winning, so one backward
search from those states gives both the positive region and, by each
state's distance to them, the path of the protagonist's play.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Mapping

from .bitset import bits
from .errors import ResourceLimit

DEFAULT_BELIEF_CAP = 10**6


@dataclass(frozen=True, eq=False)
class OneHalfGame:
    """Game of the protagonist against chance, as support tables.

    ``post[s][a]`` is the mask of the states reachable from s under the
    protagonist's action a; ``cells`` are the protagonist's observation
    blocks split by final-membership (non-final part first), as masks;
    ``actions`` names the protagonist's actions.  The game does not say
    which player the protagonist is, nor name its states: only a strategy
    built from its play would read them, and the tests build those.
    """

    actions: tuple[str, ...]
    post: tuple[tuple[int, ...], ...]
    cells: tuple[int, ...]
    final_mask: int
    init: int

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
    compatible (observation block, final-part) cell.
    """

    nodes: tuple[int, ...]
    succ: Mapping[int, tuple[tuple[int, ...], ...]]


def build_belief_graph(g: OneHalfGame, max_beliefs: int = DEFAULT_BELIEF_CAP) -> BeliefGraph:
    """Closure of the belief space from all singleton beliefs, breadth first."""
    nodes: list[int] = [1 << s for s in range(len(g.post))]
    seen = set(nodes)
    succ: dict[int, tuple[tuple[int, ...], ...]] = {}
    for b in nodes:  # grows while it is walked
        rows = []
        for a in range(len(g.actions)):
            row = g.belief_successors(b, a)
            rows.append(row)
            for c in row:
                if c not in seen:
                    if len(seen) >= max_beliefs:
                        raise ResourceLimit(f"belief graph exceeds {max_beliefs} nodes")
                    seen.add(c)
                    nodes.append(c)
        succ[b] = tuple(rows)
    return BeliefGraph(nodes=tuple(nodes), succ=succ)


@dataclass(frozen=True, eq=False)
class PositivePlay:
    """The protagonist's positively winning play from the initial state.

    He plays the actions ``path_actions`` along the states ``path`` of the
    lexicographically least shortest path to a surely winning state, then,
    from that state's singleton belief, the sure choice ``choice`` of each
    belief of ``closure``: the beliefs that choice reaches, in discovery
    order.
    """

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

    ``sure_beliefs`` are the surely winning beliefs, as state masks.
    ``play`` is present exactly when the game's initial state is
    positively winning; ``build_play`` finds it on first read, and
    ``footprint`` gives the states it reads.
    """

    winning_states: frozenset[int]
    sure_beliefs: frozenset[int]
    iterations: int
    build_play: Callable[[], PositivePlay] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def play(self) -> PositivePlay | None:
        return None if self.build_play is None else self.build_play()

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


def _sure_region(graph: BeliefGraph, final_mask: int, through_final: bool) -> tuple[set[int], int, Layers]:
    """Beliefs from which the protagonist can surely avoid the beliefs
    touching ``final_mask`` forever (safety) or visit them finitely often
    (co-Buchi), the observation being chosen adversarially.

    Returns (region, rounds, layers).  Co-Buchi is a least fixpoint over
    rounds: from z, the next set y keeps the beliefs that progress (have an
    action into z) and the non-touching beliefs that can stay in y; the
    layer (z, y) records the round.  The rounds' z only grow, so a belief
    that progresses keeps progressing, and each round tests only the
    beliefs that did not yet.  Safety is the first round: no belief
    progresses into the empty z, as no successor row is empty.  Its rounds
    count the sweeps that deleted a belief.
    """
    nontouching = {b for b in graph.nodes if not b & final_mask}
    if not through_final:
        return nontouching, _shrink(graph, nontouching, set()), [(set(), nontouching)]
    z: set[int] = set()
    layers: Layers = []
    progress: set[int] = set()
    stuck = set(graph.nodes)
    while True:
        moved = {b for b in stuck if _first_action(graph, b, z) is not None}
        progress |= moved
        stuck -= moved
        y = progress | nontouching
        _shrink(graph, y, progress)
        if y == z:
            return z, len(layers), layers
        layers.append((z, y))
        z = y


def _positive_play(g: OneHalfGame, graph: BeliefGraph, dist: Mapping[int, int], layers: Layers) -> PositivePlay:
    """The play from ``g.init``, which must have a ``dist``.

    The path steps from each state s to the least successor t with
    ``dist[t] == dist[s] - 1``, by the least action reaching t, so it is
    the lexicographically least shortest path to a surely winning state:
    its next state must be one step closer, and the least such state
    begins the least path.  A breadth-first search from init that expands
    each state's successors in ascending order finds the same path: within
    a layer it queues states in the lexicographic order of their tree
    paths, so the first surely winning state it meets ends the least
    shortest path.  Under safety every state with a ``dist`` is non-final
    (the sure beliefs avoid final states, and the backward search expands
    non-final states only), so the walk enters no state the search skips.
    """
    s = g.init
    path, path_actions = [s], []
    while dist[s]:
        closer = dist[s] - 1
        s, a = min((t, a) for a, mask in enumerate(g.post[s]) for t in bits(mask) if dist.get(t) == closer)
        path.append(s)
        path_actions.append(a)
    # a belief that entered the region in round (z, y) moves into z if it
    # can, and otherwise stays in y; the rounds' y grow, so the first y
    # holding a belief is its round
    choice = {}
    closure = [1 << s]
    seen = set(closure)
    for b in closure:  # grows while it is walked
        z, y = next((z, y) for z, y in layers if b in y)
        a = _first_action(graph, b, z)
        choice[b] = a = _first_action(graph, b, y) if a is None else a
        for c in graph.succ[b][a]:
            if c not in seen:
                seen.add(c)
                closure.append(c)
    return PositivePlay(path=tuple(path), path_actions=tuple(path_actions), closure=tuple(closure), choice=choice)


def _positive(g: OneHalfGame, through_final: bool, max_beliefs: int) -> PositiveWinReport:
    graph = build_belief_graph(g, max_beliefs)
    sure, rounds, layers = _sure_region(graph, g.final_mask, through_final)

    # positively winning states are those connected to a surely winning
    # state; the connecting path avoids final states for safety and is
    # unrestricted for co-Buchi, so the search expands only such states;
    # dist[s] is the length of a shortest such path from s
    pred: list[list[int]] = [[] for _ in g.post]
    for s, row in enumerate(g.post):
        if through_final or not (g.final_mask >> s) & 1:
            reach = 0
            for mask in row:
                reach |= mask
            for t in bits(reach):
                pred[t].append(s)
    dist = {s: 0 for s in range(len(g.post)) if (1 << s) in sure}
    queue = list(dist)
    for t in queue:  # grows while it is walked
        for s in pred[t]:
            if s not in dist:
                dist[s] = dist[t] + 1
                queue.append(s)

    return PositiveWinReport(
        winning_states=frozenset(dist),
        sure_beliefs=frozenset(sure),
        iterations=rounds,
        build_play=partial(_positive_play, g, graph, dist, layers) if g.init in dist else None,
    )


def positive_safety(g: OneHalfGame, max_beliefs: int = DEFAULT_BELIEF_CAP) -> PositiveWinReport:
    """States from which the protagonist wins safety with positive probability.

    A state is positively winning iff a path of non-final states leads to a
    state whose singleton belief is surely winning; the report's ``play``
    follows the least shortest such path, read off the distances of the
    backward search that finds those states, and then the memoryless sure
    strategy.
    """
    return _positive(g, through_final=False, max_beliefs=max_beliefs)


def positive_cobuchi(g: OneHalfGame, max_beliefs: int = DEFAULT_BELIEF_CAP) -> PositiveWinReport:
    """Positive winning for co-Buchi: like safety, but the connecting path
    may traverse final states."""
    return _positive(g, through_final=True, max_beliefs=max_beliefs)
