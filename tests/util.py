"""Shared helpers for building random strategies in tests."""

import random
from fractions import Fraction

from stochgames import Arena, Distribution, FiniteMemoryStrategy


def random_distribution(rng: random.Random, elems, max_denominator: int = 6) -> Distribution:
    elems = list(elems)
    denom = rng.randint(1, max_denominator)
    size = rng.randint(1, min(len(elems), denom))
    support = rng.sample(elems, size)
    cuts = sorted(rng.sample(range(1, denom), size - 1)) if size > 1 else []
    weights, prev = {}, 0
    for elem, cut in zip(support, cuts + [denom]):
        weights[elem] = Fraction(cut - prev, denom)
        prev = cut
    return Distribution(weights)


def random_strategy(
    arena: Arena, owner: str, rng: random.Random, max_memory: int = 2, min_memory: int = 1
) -> FiniteMemoryStrategy:
    actions = arena.actions(owner)
    n_blocks = len(arena.obs_blocks(owner))
    m = rng.randint(min_memory, max_memory)
    memory = tuple(f"m{i}" for i in range(m))
    move = {name: random_distribution(rng, actions) for name in memory}
    update = {name: {b: memory[rng.randrange(m)] for b in range(n_blocks)} for name in memory}
    return FiniteMemoryStrategy(owner=owner, memory=memory, init_mem=memory[0], move=move, update=update)
