"""Belief tracking for the imperfectly informed protagonist.

The knowledge of Eve is the set of states she considers possible.  It is
updated deterministically from the observation block of the new state and
the support of the distribution she just played.  The knowledge arena makes
both pieces of information explicit in the state, so that strategies over it
may depend on knowledge alone; this module also provides the two strategy
translations between the base arena and the knowledge arena.

A knowledge is a bitmask over the state index, and an action set a
bitmask over Eve's actions, for O(1) set algebra and canonical hashing; a
knowledge-only strategy is a mapping from knowledge masks to action masks.
The knowledge arena itself is built as bitmask support tables on the
(real state, knowledge) classes of its states, which is all the solver
reads: whether a knowledge-only strategy wins almost surely depends on
supports only, and not on the support Eve last played.  Its exact
``Fraction``-weighted ``Arena`` is derived from the base arena on first
access, for dumps and for evaluating lifted strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Mapping

from .bitset import bits, block_masks, label, mask_of, split_masks
from .errors import InconsistentObservation, ResourceLimit, ValidationError
from .model import ADAM, EVE, Arena, Distribution, FiniteMemoryStrategy, validate_strategy

DEFAULT_KNOWLEDGE_CAP = 10**6


@dataclass(frozen=True)
class KnowledgeArena:
    """Arena over (real state, knowledge, last domain) triples, with the
    solver's support tables on their (real state, knowledge) classes.

    In a knowledge state ``(real, know, dom)``, ``know`` is the mask of the
    states Eve considers possible, which holds ``real``, and ``dom`` the
    mask of the action set she last played; 0 is the distinguished empty
    sentinel of the initial state, knowledge state 0, before she has played
    anything.  ``kstates`` are these triples in order of discovery, the
    paper's arena, which ``census`` counts and ``arena`` weighs.

    A triple's successors do not read its ``dom``: they depend on the real
    state, the knowledge, the support played and Adam's action only.  So
    the triples of one ``(real, know)`` class have the same rows, the same
    Adam cell (the base block of ``real``) and the same final flag, and
    Eve's knowledge-only strategies cannot tell them apart.  The tables the
    solver reads are indexed by class: ``classes`` are the ``(real, know)``
    pairs in order of their first triple, class 0 holding triple 0, and
    ``class_of[v]`` is the class of triple v.  ``post[c][s - 1][a]`` is the
    mask of the classes reachable from c when Eve plays uniformly over the
    action set of bitmask s and Adam plays a: the next knowledge depends on
    the support she played, not on the action drawn from it.
    ``knowledges`` are the distinct knowledge masks in order of discovery,
    and ``position[c]`` is the index of c's knowledge among them;
    ``final_mask`` marks the classes whose real state is final;
    ``adam_cells`` are Adam's observation blocks split by final-membership,
    as masks of classes.  ``arena`` is the game on the triples as a full
    ``Arena`` with the base arena's weights, built on first use: Eve's
    letters there are the playable (action, support) pairs ``eve_pairs``,
    grouped by support in ascending order; Adam keeps his alphabet.
    """

    base: Arena
    kstates: tuple[tuple[int, int, int], ...]
    classes: tuple[tuple[int, int], ...]
    class_of: tuple[int, ...]
    knowledges: tuple[int, ...]
    post: tuple[tuple[tuple[int, ...], ...], ...]
    position: tuple[int, ...]
    final_mask: int
    adam_cells: tuple[int, ...]

    @cached_property
    def census(self) -> tuple[int, int, int]:
        """(knowledge states, distinct knowledges, support edges), counted
        on the triples.  A triple's successors under support s are the
        triples ``(t, know, s)`` of the classes its class reaches under s,
        and different supports give different triples, so its edges are
        the sum over s of its class's successor count under s."""
        edges = [sum(reduce(or_, rows, 0).bit_count() for rows in table) for table in self.post]
        return (len(self.kstates), len(self.knowledges), sum(edges[c] for c in self.class_of))

    @cached_property
    def eve_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((e, dom) for dom in range(1, 1 << len(self.base.eve_actions)) for e in bits(dom))

    def pair_name(self, action: int, dom: int) -> str:
        return f"{self.base.eve_actions[action]}|{label(self.base.eve_actions, dom)}"

    @cached_property
    def class_names(self) -> tuple[str, ...]:
        states = self.base.states
        return tuple(f"{states[real]}|{label(states, know)}" for real, know in self.classes)

    @cached_property
    def arena(self) -> Arena:
        base = self.base
        kstates = self.kstates
        states, actions = base.states, base.eve_actions
        eve_block_masks = block_masks(base.eve_obs)
        index = {ks: v for v, ks in enumerate(kstates)}
        transition: dict[tuple[int, int, int], Distribution] = {}
        for u, (real, know, _dom) in enumerate(kstates):
            for p, (e, dom) in enumerate(self.eve_pairs):
                after = successors(base.post, know, dom)
                for a in range(len(base.adam_actions)):
                    dist = base.transition[(real, e, a)]
                    targets = {
                        index[(t, after & eve_block_masks[base.eve_block_of[t]], dom)]: q
                        for t, q in dist.items()
                    }
                    transition[(u, p, a)] = Distribution(dict(sorted(targets.items())))
        return Arena(
            states=tuple(
                f"{states[real]}|{label(states, know)}|{label(actions, dom)}" for real, know, dom in kstates
            ),
            init=0,
            eve_actions=tuple(self.pair_name(e, dom) for e, dom in self.eve_pairs),
            adam_actions=base.adam_actions,
            transition=transition,
            eve_obs=tuple(tuple(bits(m)) for m in _obs_groups(base, kstates, EVE).values()),
            adam_obs=tuple(tuple(bits(m)) for m in _obs_groups(base, kstates, ADAM).values()),
            final=frozenset(v for v, (real, _know, _dom) in enumerate(kstates) if real in base.final),
        )


def _obs_groups(base: Arena, states, player: str) -> dict:
    """Observation blocks of ``player`` on the knowledge states (triples) or
    their classes, as masks keyed by what the player sees, in order of
    first appearance: Eve sees what follows the real state (knowledge and
    domain of a triple), Adam the base block of the real state."""
    groups: dict = {}
    for v, ks in enumerate(states):
        key = ks[1:] if player == EVE else base.adam_block_of[ks[0]]
        groups[key] = groups.get(key, 0) | 1 << v
    return groups


def successors(post, kmask: int, dom: int) -> int:
    """States reachable in one step from some state of ``kmask`` under some
    action of ``dom`` and any Adam action, given the arena's ``post`` table."""
    acc = 0
    for r in bits(kmask):
        row = post[r]
        for e in bits(dom):
            acc |= row[e]
    return acc


def knowledge_update(arena: Arena, know: int, obs_block: int, dom: int) -> int:
    """New knowledge after observing block ``obs_block`` having played a
    distribution with support ``dom``.

    ``know`` is a state mask and ``dom`` an action mask.  Returns the mask
    of the states in the observed block that are reachable from some state
    of ``know`` under some action of ``dom`` and any adam action.  A
    ``know`` that is not a non-empty set of the arena's states, an
    ``obs_block`` that is not one of Eve's blocks, or a ``dom`` outside 1
    to 2^k - 1 is invalid input; raises InconsistentObservation when the
    result is empty.
    """
    if not 0 < know < 1 << arena.n_states:
        raise ValidationError(f"knowledge must be a non-empty set of the {arena.n_states} states")
    if not 0 <= obs_block < len(arena.eve_obs):
        raise ValidationError(f"observation block must be one of Eve's {len(arena.eve_obs)} blocks")
    m = (1 << len(arena.eve_actions)) - 1
    if not 0 < dom <= m:
        raise ValidationError(f"played domain must be an action set in 1..{m}")
    result = successors(arena.post, know, dom) & mask_of(arena.eve_obs[obs_block])
    if result == 0:
        raise InconsistentObservation(
            f"observation block {obs_block} cannot follow knowledge {label(arena.states, know)} under the played domain"
        )
    return result


def build_knowledge_arena(arena: Arena, max_states: int = DEFAULT_KNOWLEDGE_CAP) -> KnowledgeArena:
    """Breadth-first closure of the knowledge arena from (init, {init}, empty).

    Eve's alphabet consists of the playable (action, support) pairs: pairs
    whose action lies in the support.  Letters with the action outside the
    support can never carry probability under a well-formed distribution, so
    dropping them keeps the transition function total without changing any
    strategy or any probability.  Knowledge states are numbered in order of
    discovery, targets in the order of the base distributions.  Each
    ``(real, know)`` class is expanded once, when it is reached: its other
    triples have the same successors, so expanding them would discover
    nothing, and the triples come out in the order a triple-by-triple
    closure gives them.  ``max_states`` caps the triples; a cap below 0 is
    invalid input.
    """
    if max_states < 0:
        raise ValidationError(f"knowledge arena cap must be at least 0, got {max_states}")
    n_eve = len(arena.eve_actions)
    eve_block_masks = block_masks(arena.eve_obs)
    block_mask_of = [eve_block_masks[b] for b in arena.eve_block_of]
    n_adam = len(arena.adam_actions)

    kstates: list[tuple[int, int, int]] = [(arena.init, 1 << arena.init, 0)]
    seen = {kstates[0]}
    classes: list[tuple[int, int]] = [(arena.init, 1 << arena.init)]
    class_index = {classes[0]: 0}
    class_of = [0]
    position_of: dict[int, int] = {1 << arena.init: 0}  # knowledge -> its index
    post: list[tuple[tuple[int, ...], ...]] = []

    for real, kmask in classes:  # grows while it is walked
        rows = []
        for dom in range(1, 1 << n_eve):
            # the successor knowledge of a target depends only on the played
            # domain and the target's block, not on the action drawn from it
            after = successors(arena.post, kmask, dom)
            bit_of: dict[int, int] = {}
            row = [0] * n_adam
            for e in bits(dom):
                for a in range(n_adam):
                    for t, _q in arena.transition[(real, e, a)].items():
                        bit = bit_of.get(t)
                        if bit is None:
                            pair = (t, after & block_mask_of[t])
                            c = class_index.get(pair)
                            if c is None:
                                c = class_index[pair] = len(classes)
                                classes.append(pair)
                                position_of.setdefault(pair[1], len(position_of))
                            ks = (*pair, dom)
                            if ks not in seen:
                                if len(kstates) >= max_states:
                                    raise ResourceLimit(f"knowledge arena exceeds {max_states} states")
                                seen.add(ks)
                                kstates.append(ks)
                                class_of.append(c)
                            bit = bit_of[t] = 1 << c
                        row[a] |= bit
            rows.append(tuple(row))
        post.append(tuple(rows))

    final_mask = mask_of(c for c, (t, _know) in enumerate(classes) if t in arena.final)
    return KnowledgeArena(
        base=arena,
        kstates=tuple(kstates),
        classes=tuple(classes),
        class_of=tuple(class_of),
        knowledges=tuple(position_of),
        post=tuple(post),
        position=tuple(position_of[know] for _t, know in classes),
        final_mask=final_mask,
        adam_cells=split_masks(_obs_groups(arena, classes, ADAM).values(), final_mask),
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


def lower_strategy(arena: Arena, choice: Mapping[int, int]) -> FiniteMemoryStrategy:
    """Turn a knowledge-only strategy into a transducer on the base arena.

    ``choice`` maps knowledge masks to the mask of the action set Eve plays
    uniformly there.  An action set outside 1 to 2^k - 1 is invalid input,
    and so is a knowledge the strategy reaches without one.  The memory is
    the set of reachable (knowledge, domain) mask pairs; the update applies
    the knowledge update on the fly and the move is uniform over the chosen
    action set of the current knowledge.
    """
    m = (1 << len(arena.eve_actions)) - 1
    if not all(0 < acts <= m for acts in choice.values()):
        raise ValidationError(f"knowledge-only strategy must choose action sets in 1..{m}")
    eve_block_masks = block_masks(arena.eve_obs)

    initial = (1 << arena.init, 0)
    mems: list[tuple[int, int]] = [initial]
    seen = {initial}
    update_raw: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
    for mem in mems:  # grows while it is walked: breadth-first order
        know, _dom = mem
        if know not in choice:
            raise ValidationError(
                f"knowledge-only strategy undefined for knowledge {label(arena.states, know)}"
            )
        played = choice[know]
        after = successors(arena.post, know, played)
        row = {}
        for b, block_mask in enumerate(eve_block_masks):
            result = after & block_mask
            if result == 0:
                row[b] = mem  # observation impossible under this strategy
                continue
            succ = (result, played)
            row[b] = succ
            if succ not in seen:
                seen.add(succ)
                mems.append(succ)
        update_raw[mem] = row

    names = {
        (know, dom): f"{label(arena.states, know)}|{label(arena.eve_actions, dom)}" for know, dom in mems
    }
    return FiniteMemoryStrategy(
        owner=EVE,
        memory=tuple(names.values()),
        init_mem=names[initial],
        move={
            name: Distribution.uniform(arena.eve_actions[i] for i in bits(choice[know]))
            for (know, _dom), name in names.items()
        },
        update={names[mem]: {b: names[t] for b, t in row.items()} for mem, row in update_raw.items()},
    )
