"""Belief tracking for the imperfectly informed protagonist.

The knowledge of Eve is the set of states she considers possible.  It is
updated deterministically from the observation block of the new state and
the support of the distribution she just played.  The knowledge arena pairs
each real state with Eve's knowledge, and her letters name the support she
plays, so that strategies over it may depend on knowledge alone.  This
module also lowers a knowledge-only strategy to a witness on the base
arena whose memory is Eve's knowledge: the next knowledge reads the
support of the current knowledge's choice, which the knowledge already
determines, so the support she last played need not be remembered.  (The
tests keep the knowledge update and the strategy translations between the
base arena and the knowledge arena as their references.)

A knowledge is a bitmask over the state index, and an action set a
bitmask over Eve's actions, for O(1) set algebra and canonical hashing; a
knowledge-only strategy is a mapping from knowledge masks to action masks.
The knowledge arena itself is built as bitmask support tables, which is
all the solver reads: whether a knowledge-only strategy wins almost surely
depends on supports only.  Its exact ``Fraction``-weighted ``Arena`` is
derived from the base arena on first access; only ``knowledge --dump``
and the tests read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul, or_
from typing import Mapping

from .bitset import bits, block_masks, label, mask_of, split_masks
from .errors import ResourceLimit, ValidationError
from .model import ADAM, EVE, Arena, Distribution, FiniteMemoryStrategy

DEFAULT_KNOWLEDGE_CAP = 10**6


@dataclass(frozen=True)
class KnowledgeArena:
    """Arena over (real state, knowledge) pairs, as the solver's support
    tables.

    In a knowledge state ``(real, know)``, ``know`` is the mask of the
    states Eve considers possible, which holds ``real``.  ``kstates`` are
    these pairs in order of discovery, knowledge state 0 the initial
    ``(init, {init})``.  The paper's states also carry the support Eve last
    played; it is left out here, because a state's rows do not read it
    and Eve's knowledge-only strategies cannot see it.
    ``post[u][s - 1][a]`` is the mask of the knowledge states reachable
    from u when Eve plays uniformly over the action set of bitmask s and
    Adam plays a: the next knowledge depends on the support she played,
    not on the action drawn from it.  ``knowledges`` are the distinct
    knowledge masks in order of discovery, and ``position[u]`` is the
    index of u's knowledge among them; ``final_mask`` marks the knowledge
    states whose real state is final; ``adam_cells`` are Adam's
    observation blocks split by final-membership, as masks of knowledge
    states.  ``arena`` is the game on the pairs as a full ``Arena`` with
    the base arena's weights, built on first use: Eve observes the
    knowledge, and her letters there are the playable (action, support)
    pairs ``eve_pairs``, grouped by support in ascending order; Adam keeps
    his alphabet and his observation of the real state.  ``arena``,
    ``eve_pairs``, ``pair_name`` and ``state_names`` serve only
    ``knowledge --dump`` and the tests: no solve reads them.
    """

    base: Arena
    kstates: tuple[tuple[int, int], ...]
    knowledges: tuple[int, ...]
    post: tuple[tuple[tuple[int, ...], ...], ...]
    position: tuple[int, ...]
    final_mask: int
    adam_cells: tuple[int, ...]

    @cached_property
    def census(self) -> tuple[int, int, int]:
        """(knowledge states, distinct knowledges, support edges) of the
        paper's arena on ``(real, know, last support)`` triples; perfbench
        bins its corpora by these counts.  Pair u stands for one triple per
        support s under which some pair reaches it, and the initial pair
        also for the initial triple, before any support; each of them has
        u's support edges: the sum over s of the pairs u reaches under s."""
        reached = [0] * len(self.post[0])  # the pairs reached under each support
        edges = []
        for table in self.post:
            masks = [reduce(or_, rows, 0) for rows in table]
            reached = list(map(or_, reached, masks))
            edges.append(sum(m.bit_count() for m in masks))
        copies = [1] + [0] * (len(self.post) - 1)
        for mask in reached:
            for u in bits(mask):
                copies[u] += 1
        return (sum(copies), len(self.knowledges), sum(map(mul, copies, edges)))

    @cached_property
    def eve_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((e, dom) for dom in range(1, 1 << len(self.base.eve_actions)) for e in bits(dom))

    def pair_name(self, action: int, dom: int) -> str:
        return f"{self.base.eve_actions[action]}|{label(self.base.eve_actions, dom)}"

    @cached_property
    def state_names(self) -> tuple[str, ...]:
        states = self.base.states
        return tuple(f"{states[real]}|{label(states, know)}" for real, know in self.kstates)

    @cached_property
    def arena(self) -> Arena:
        base = self.base
        eve_block_masks = block_masks(base.eve_obs)
        index = {ks: u for u, ks in enumerate(self.kstates)}
        transition: dict[tuple[int, int, int], Distribution] = {}
        for u, (real, know) in enumerate(self.kstates):
            for p, (e, dom) in enumerate(self.eve_pairs):
                after = successors(base.post, know, dom)
                for a in range(len(base.adam_actions)):
                    dist = base.transition[(real, e, a)]
                    targets = {index[(t, after & eve_block_masks[base.eve_block_of[t]])]: q for t, q in dist.items()}
                    transition[(u, p, a)] = Distribution(dict(sorted(targets.items())))
        return Arena(
            states=self.state_names,
            init=0,
            eve_actions=tuple(self.pair_name(e, dom) for e, dom in self.eve_pairs),
            adam_actions=base.adam_actions,
            transition=transition,
            eve_obs=tuple(tuple(bits(m)) for m in _obs_groups(base, self.kstates, EVE).values()),
            adam_obs=tuple(tuple(bits(m)) for m in _obs_groups(base, self.kstates, ADAM).values()),
            final=frozenset(bits(self.final_mask)),
        )


def _obs_groups(base: Arena, kstates, player: str) -> dict:
    """Observation blocks of ``player`` on the knowledge states, as masks
    keyed by what the player sees, in order of first appearance: Eve sees
    the knowledge, Adam the base block of the real state."""
    groups: dict = {}
    for u, (real, know) in enumerate(kstates):
        key = know if player == EVE else base.adam_block_of[real]
        groups[key] = groups.get(key, 0) | 1 << u
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


def build_knowledge_arena(arena: Arena, max_states: int = DEFAULT_KNOWLEDGE_CAP) -> KnowledgeArena:
    """Breadth-first closure of the knowledge arena from (init, {init}).

    Eve's alphabet consists of the playable (action, support) pairs: pairs
    whose action lies in the support.  Letters with the action outside the
    support can never carry probability under a well-formed distribution, so
    dropping them keeps the transition function total without changing any
    strategy or any probability.  Knowledge states are numbered in order of
    discovery, targets in the order of the base distributions.
    ``max_states`` caps the knowledge states; a cap below 0 is invalid
    input.  Every knowledge state stores one row per support, so the build
    is refused before it starts when the 2^k - 1 supports alone exceed
    ``max_states``.
    """
    if max_states < 0:
        raise ValidationError(f"knowledge arena cap must be at least 0, got {max_states}")
    if max_states == 0:  # not even the initial state fits
        raise ResourceLimit("knowledge arena exceeds 0 states")
    n_eve = len(arena.eve_actions)
    supports = (1 << n_eve) - 1
    if supports > max_states:
        raise ResourceLimit(f"knowledge arena needs {supports} support rows per state, more than the cap of {max_states}")
    eve_block_masks = block_masks(arena.eve_obs)
    block_mask_of = [eve_block_masks[b] for b in arena.eve_block_of]
    n_adam = len(arena.adam_actions)

    kstates: list[tuple[int, int]] = [(arena.init, 1 << arena.init)]
    index = {kstates[0]: 0}
    position_of: dict[int, int] = {1 << arena.init: 0}  # knowledge -> its index
    post: list[tuple[tuple[int, ...], ...]] = []

    for real, kmask in kstates:  # grows while it is walked
        rows = []
        for dom in range(1, supports + 1):
            # the successor knowledge of a target depends only on the played
            # domain and the target's block, not on the action drawn from it
            after = successors(arena.post, kmask, dom)
            bit_of: dict[int, int] = {}
            row = [0] * n_adam
            for e in bits(dom):
                for a in range(n_adam):
                    for t in arena.transition[(real, e, a)].nums:
                        bit = bit_of.get(t)
                        if bit is None:
                            ks = (t, after & block_mask_of[t])
                            v = index.get(ks)
                            if v is None:
                                if len(kstates) >= max_states:
                                    raise ResourceLimit(f"knowledge arena exceeds {max_states} states")
                                v = index[ks] = len(kstates)
                                kstates.append(ks)
                                position_of.setdefault(ks[1], len(position_of))
                            bit = bit_of[t] = 1 << v
                        row[a] |= bit
            rows.append(tuple(row))
        post.append(tuple(rows))

    final_mask = mask_of(u for u, (t, _know) in enumerate(kstates) if t in arena.final)
    return KnowledgeArena(
        base=arena,
        kstates=tuple(kstates),
        knowledges=tuple(position_of),
        post=tuple(post),
        position=tuple(position_of[know] for _t, know in kstates),
        final_mask=final_mask,
        adam_cells=split_masks(_obs_groups(arena, kstates, ADAM).values(), final_mask),
    )


def lower_strategy(arena: Arena, choice: Mapping[int, int]) -> FiniteMemoryStrategy:
    """Turn a knowledge-only strategy into a transducer on the base arena.

    ``choice`` maps knowledge masks to the mask of the action set Eve plays
    uniformly there.  An action set outside 1 to 2^k - 1 is invalid input,
    and so is a knowledge the strategy reaches without one.  The memory is
    the knowledges reachable from ``{init}`` in breadth-first order, each
    named by its label, such as ``{s0,s1}``: memory ``know`` plays
    uniformly over ``choice[know]`` and on block b moves to the knowledge
    update of ``know`` under that action set.  Knowledge is all the memory
    the strategy needs: the update reads the support of the current
    knowledge's choice, which the memory already determines.
    """
    m = (1 << len(arena.eve_actions)) - 1
    if not all(0 < acts <= m for acts in choice.values()):
        raise ValidationError(f"knowledge-only strategy must choose action sets in 1..{m}")
    eve_block_masks = block_masks(arena.eve_obs)

    knows = [1 << arena.init]
    names = {knows[0]: label(arena.states, knows[0])}
    update: dict[str, dict[int, str]] = {}
    for know in knows:  # grows while it is walked: breadth-first order
        if know not in choice:
            raise ValidationError(
                f"knowledge-only strategy undefined for knowledge {label(arena.states, know)}"
            )
        after = successors(arena.post, know, choice[know])
        row = update[names[know]] = {}
        for b, block_mask in enumerate(eve_block_masks):
            succ = after & block_mask or know  # an impossible observation keeps the memory
            if succ not in names:
                names[succ] = label(arena.states, succ)
                knows.append(succ)
            row[b] = names[succ]

    return FiniteMemoryStrategy(
        owner=EVE,
        memory=tuple(names.values()),
        init_mem=names[knows[0]],
        move={names[k]: Distribution.uniform(arena.eve_actions[i] for i in bits(choice[k])) for k in knows},
        update=update,
    )
