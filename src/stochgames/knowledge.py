"""Belief tracking for the imperfectly informed protagonist.

The knowledge of Eve is the set of states she considers possible.  It is
updated deterministically from the observation block of the new state and
the support of the distribution she just played.  The knowledge arena makes
both pieces of information explicit in the state, so that strategies over it
may depend on knowledge alone; this module also provides the two strategy
translations between the base arena and the knowledge arena.

Knowledges are stored as bitmasks over the state index for O(1) set algebra
and canonical hashing.  The knowledge arena itself is built as bitmask
support tables, which is all the solver reads: whether a knowledge-only
strategy wins almost surely depends on supports only.  Its exact
``Fraction``-weighted ``Arena`` is derived from the base arena on first
access, for dumps and for evaluating lifted strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from operator import or_
from typing import Iterable, Mapping

from .bitset import bits, block_masks, mask_of, split_masks
from .errors import InconsistentObservation, ResourceLimit, ValidationError
from .model import ADAM, EVE, Arena, Distribution, FiniteMemoryStrategy, validate_strategy

DEFAULT_KNOWLEDGE_CAP = 10**6


@dataclass(frozen=True)
class Knowledge:
    """Non-empty set of states the player considers possible."""

    mask: int

    def __post_init__(self):
        if self.mask <= 0:
            raise ValidationError("knowledge must be a non-empty state set")

    @classmethod
    def of(cls, states: Iterable[int]) -> "Knowledge":
        return cls(mask_of(states))

    @property
    def states(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __contains__(self, s: int) -> bool:
        return bool(self.mask >> s & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def issubset(self, other: "Knowledge") -> bool:
        return self.mask & ~other.mask == 0

    def label(self, arena: Arena) -> str:
        return "{" + ",".join(arena.states[s] for s in self.states) + "}"


@dataclass(frozen=True)
class KnowledgeState:
    """Real state plus Eve's knowledge and the domain of her last move.

    ``dom`` is a bitmask over Eve's actions; 0 is the distinguished empty
    sentinel used only by the initial state, before Eve has played anything.
    """

    real: int
    know: Knowledge
    dom: int

    def __post_init__(self):
        if self.real not in self.know:
            raise ValidationError("real state must belong to the knowledge")


@dataclass(frozen=True)
class KnowledgeOnlyStrategy:
    """Strategy that looks at the current knowledge alone.

    Maps each knowledge to a non-empty set of Eve's actions (bitmask); the
    emitted distribution is uniform over that set.
    """

    choice: Mapping[Knowledge, int]

    def __post_init__(self):
        for k, mask in self.choice.items():
            if mask <= 0:
                raise ValidationError(f"empty action set for knowledge {k}")


@dataclass(frozen=True)
class KnowledgeArena:
    """Arena over (real state, knowledge, last domain) triples, as support
    tables.

    Knowledge state 0 is the initial one.  ``post[u][s - 1][a]`` is the mask
    of the knowledge states reachable from u when Eve plays uniformly over
    the action set of bitmask s and Adam plays a: the next knowledge depends
    on the support she played, not on the action drawn from it.
    ``position[u]`` is the index of u's knowledge in ``knowledges``;
    ``final_mask`` marks the knowledge states whose real state is final;
    ``adam_cells`` are Adam's observation blocks (the base block of the real
    state) split by final-membership, as masks.  ``arena`` is the same game
    as a full ``Arena`` with the base arena's weights, built on first use:
    Eve's letters there are the playable (action, support) pairs
    ``eve_pairs``, grouped by support in ascending order; Adam keeps his
    alphabet.
    """

    base: Arena
    kstates: tuple[KnowledgeState, ...]
    knowledges: tuple[Knowledge, ...]
    post: tuple[tuple[tuple[int, ...], ...], ...]
    position: tuple[int, ...]
    final_mask: int
    adam_cells: tuple[int, ...]

    @cached_property
    def census(self) -> tuple[int, int, int]:
        """(knowledge states, distinct knowledges, support edges)."""
        edges = sum(reduce(or_, chain.from_iterable(rows), 0).bit_count() for rows in self.post)
        return (len(self.kstates), len(self.knowledges), edges)

    @cached_property
    def eve_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((e, dom) for dom in range(1, 1 << len(self.base.eve_actions)) for e in bits(dom))

    def pair_name(self, action: int, dom: int) -> str:
        return f"{self.base.eve_actions[action]}|{_dom_label(self.base, dom)}"

    @cached_property
    def state_names(self) -> tuple[str, ...]:
        return tuple(_kstate_name(self.base, ks) for ks in self.kstates)

    @cached_property
    def arena(self) -> Arena:
        base = self.base
        kstates = self.kstates
        eve_block_masks = block_masks(base.eve_obs)
        index = {(ks.real, ks.know.mask, ks.dom): v for v, ks in enumerate(kstates)}
        transition: dict[tuple[int, int, int], Distribution] = {}
        for u, ks in enumerate(kstates):
            for p, (e, dom) in enumerate(self.eve_pairs):
                after = successors(base.post, ks.know.mask, dom)
                for a in range(len(base.adam_actions)):
                    dist = base.transition[(ks.real, e, a)]
                    targets = {
                        index[(t, after & eve_block_masks[base.eve_block_of[t]], dom)]: q
                        for t, q in dist.items()
                    }
                    transition[(u, p, a)] = Distribution(dict(sorted(targets.items())))
        return Arena(
            states=self.state_names,
            init=0,
            eve_actions=tuple(self.pair_name(e, dom) for e, dom in self.eve_pairs),
            adam_actions=base.adam_actions,
            transition=transition,
            eve_obs=tuple(tuple(bits(m)) for m in _obs_groups(base, kstates, EVE).values()),
            adam_obs=tuple(tuple(bits(m)) for m in _obs_groups(base, kstates, ADAM).values()),
            final=frozenset(bits(self.final_mask)),
        )


def _obs_groups(base: Arena, kstates, player: str) -> dict:
    """Observation blocks of ``player`` on the knowledge states, as masks
    keyed by what the player sees, in order of first appearance: Eve sees
    (knowledge, domain), Adam the base block of the real state."""
    groups: dict = {}
    for v, ks in enumerate(kstates):
        key = (ks.know.mask, ks.dom) if player == EVE else base.adam_block_of[ks.real]
        groups[key] = groups.get(key, 0) | 1 << v
    return groups


def _dom_label(arena: Arena, dom: int) -> str:
    return "{" + ",".join(arena.eve_actions[i] for i in bits(dom)) + "}"


def _kstate_name(arena: Arena, ks: KnowledgeState) -> str:
    return f"{arena.states[ks.real]}|{ks.know.label(arena)}|{_dom_label(arena, ks.dom)}"


def successors(post, kmask: int, dom: int) -> int:
    """States reachable in one step from some state of ``kmask`` under some
    action of ``dom`` and any Adam action, given the arena's ``post`` table."""
    acc = 0
    for r in bits(kmask):
        row = post[r]
        for e in bits(dom):
            acc |= row[e]
    return acc


def knowledge_update(arena: Arena, k: Knowledge, obs_block: int, dom: Iterable[int]) -> Knowledge:
    """New knowledge after observing block ``obs_block`` having played a
    distribution with support ``dom``.

    Returns the set of states in the observed block that are reachable from
    some state of ``k`` under some action of ``dom`` and any adam action.
    Raises InconsistentObservation when that set is empty.
    """
    dom_mask = dom if isinstance(dom, int) else mask_of(dom)
    if dom_mask == 0:
        raise ValueError("dom must be non-empty")
    result = successors(arena.post, k.mask, dom_mask) & mask_of(arena.eve_obs[obs_block])
    if result == 0:
        raise InconsistentObservation(
            f"observation block {obs_block} cannot follow knowledge {k.label(arena)} under the played domain"
        )
    return Knowledge(result)


def build_knowledge_arena(arena: Arena, max_states: int = DEFAULT_KNOWLEDGE_CAP) -> KnowledgeArena:
    """Breadth-first closure of the knowledge arena from (init, {init}, empty).

    Eve's alphabet consists of the playable (action, support) pairs: pairs
    whose action lies in the support.  Letters with the action outside the
    support can never carry probability under a well-formed distribution, so
    dropping them keeps the transition function total without changing any
    strategy or any probability.  Knowledge states are numbered in order of
    discovery, targets in the order of the base distributions.  A cap below
    0 is invalid input.
    """
    if max_states < 0:
        raise ValidationError(f"knowledge arena cap must be at least 0, got {max_states}")
    n_eve = len(arena.eve_actions)
    eve_block_masks = block_masks(arena.eve_obs)
    block_mask_of = [eve_block_masks[b] for b in arena.eve_block_of]
    n_adam = len(arena.adam_actions)

    init_know = Knowledge(1 << arena.init)
    kstates: list[KnowledgeState] = [KnowledgeState(real=arena.init, know=init_know, dom=0)]
    index: dict[tuple[int, int, int], int] = {(arena.init, init_know.mask, 0): 0}
    knowledges: dict[int, Knowledge] = {init_know.mask: init_know}
    post: list[tuple[tuple[int, ...], ...]] = []

    while len(post) < len(kstates):
        ks = kstates[len(post)]
        kmask = ks.know.mask
        rows = []
        for dom in range(1, 1 << n_eve):
            # the successor knowledge of a target depends only on the played
            # domain and the target's block, not on the action drawn from it
            after = successors(arena.post, kmask, dom)
            bit_of: dict[int, int] = {}
            row = [0] * n_adam
            for e in bits(dom):
                for a in range(n_adam):
                    for t, _q in arena.transition[(ks.real, e, a)].items():
                        bit = bit_of.get(t)
                        if bit is None:
                            know_mask = after & block_mask_of[t]
                            v = index.get((t, know_mask, dom))
                            if v is None:
                                v = len(kstates)
                                if v >= max_states:
                                    raise ResourceLimit(f"knowledge arena exceeds {max_states} states")
                                know = knowledges.setdefault(know_mask, Knowledge(know_mask))
                                kstates.append(KnowledgeState(real=t, know=know, dom=dom))
                                index[(t, know_mask, dom)] = v
                            bit = bit_of[t] = 1 << v
                        row[a] |= bit
            rows.append(tuple(row))
        post.append(tuple(rows))

    final_mask = mask_of(v for v, ks in enumerate(kstates) if ks.real in arena.final)
    position_of = {mask: j for j, mask in enumerate(knowledges)}
    return KnowledgeArena(
        base=arena,
        kstates=tuple(kstates),
        knowledges=tuple(knowledges.values()),
        post=tuple(post),
        position=tuple(position_of[ks.know.mask] for ks in kstates),
        final_mask=final_mask,
        adam_cells=split_masks(_obs_groups(arena, kstates, ADAM).values(), final_mask),
    )


def lift_strategy(ka: KnowledgeArena, strat: FiniteMemoryStrategy) -> FiniteMemoryStrategy:
    """Translate an Eve strategy on the base arena to the knowledge arena.

    Each move distribution d becomes the well-formed distribution that plays
    (action, support of d) with the same weights; memory is preserved and
    updates are re-keyed through the knowledge-arena observation blocks.
    """
    base = ka.base
    validate_strategy(base, EVE, strat)

    move = {}
    for m, dist in strat.move.items():
        supp = mask_of(base.eve_action_index[a] for a in dist.support)
        move[m] = Distribution(
            {ka.pair_name(base.eve_action_index[a], supp): p for a, p in dist.items()}
        )

    base_block = [base.eve_block_of[next(bits(kmask))] for kmask, _dom in _obs_groups(base, ka.kstates, EVE)]
    update = {m: {kb: strat.update[m][b] for kb, b in enumerate(base_block)} for m in strat.memory}
    return FiniteMemoryStrategy(
        owner=EVE, memory=strat.memory, init_mem=strat.init_mem, move=move, update=update
    )


def adapt_adam_strategy(ka: KnowledgeArena, strat: FiniteMemoryStrategy) -> FiniteMemoryStrategy:
    """Re-key an Adam strategy to the knowledge arena's observation blocks.

    Adam observes exactly what he observes in the base arena, so this only
    translates block indices; moves and memory are untouched.
    """
    validate_strategy(ka.base, ADAM, strat)
    base_block = list(_obs_groups(ka.base, ka.kstates, ADAM))
    update = {m: {kb: strat.update[m][b] for kb, b in enumerate(base_block)} for m in strat.memory}
    return FiniteMemoryStrategy(
        owner=ADAM, memory=strat.memory, init_mem=strat.init_mem, move=strat.move, update=update
    )


def lower_strategy(arena: Arena, phi: KnowledgeOnlyStrategy) -> FiniteMemoryStrategy:
    """Turn a knowledge-only strategy into a transducer on the base arena.

    The memory is the set of reachable (knowledge, domain) pairs; the update
    applies the knowledge update on the fly and the move is uniform over the
    chosen action set of the current knowledge.
    """
    eve_block_masks = block_masks(arena.eve_obs)

    initial = (Knowledge(1 << arena.init), 0)
    mems: list[tuple[Knowledge, int]] = [initial]
    seen = {initial}
    update_raw: dict[tuple[Knowledge, int], dict[int, tuple[Knowledge, int]]] = {}
    for mem in mems:  # grows while it is walked: breadth-first order
        know, _dom = mem
        if know not in phi.choice:
            raise ValidationError(f"knowledge-only strategy undefined for knowledge {know.label(arena)}")
        played = phi.choice[know]
        after = successors(arena.post, know.mask, played)
        row = {}
        for b, block_mask in enumerate(eve_block_masks):
            result = after & block_mask
            if result == 0:
                row[b] = mem  # observation impossible under this strategy
                continue
            succ = (Knowledge(result), played)
            row[b] = succ
            if succ not in seen:
                seen.add(succ)
                mems.append(succ)
        update_raw[mem] = row

    def name(mem: tuple[Knowledge, int]) -> str:
        know, dom = mem
        return f"{know.label(arena)}|{_dom_label(arena, dom)}"

    move = {
        name(mem): Distribution.uniform(
            arena.eve_actions[i] for i in bits(phi.choice[mem[0]])
        )
        for mem in mems
    }
    update = {
        name(mem): {b: name(target) for b, target in update_raw[mem].items()} for mem in mems
    }
    return FiniteMemoryStrategy(
        owner=EVE,
        memory=tuple(name(mem) for mem in mems),
        init_mem=name(initial),
        move=move,
        update=update,
    )
