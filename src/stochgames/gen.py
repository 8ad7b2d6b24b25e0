"""Seeded random game generation.

Distributions use small random rationals (denominators <= 8) so exact
arithmetic downstream stays fast; triples not drawn by the density get a
default self-loop, keeping the transition function total.  Output is fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .model import Arena, Distribution

_EVE_NAMES = "abcdefgh"
_ADAM_NAMES = "xyzuvwpq"


@dataclass(frozen=True)
class GenParams:
    state_count: int
    eve_action_count: int
    adam_action_count: int
    transition_density: float
    eve_blocks: int
    adam_blocks: int
    final_count: int
    seed: int

    def __post_init__(self):
        for field in ("state_count", "eve_action_count", "adam_action_count", "eve_blocks", "adam_blocks"):
            if getattr(self, field) < 1:
                raise ValidationError(f"{field} must be >= 1")
        if not 0 < self.transition_density <= 1:
            raise ValidationError("transition_density must lie in (0,1]")
        if self.eve_blocks > self.state_count or self.adam_blocks > self.state_count:
            raise ValidationError("block counts cannot exceed the state count")
        if not 0 <= self.final_count <= self.state_count:
            raise ValidationError("final_count must lie in [0, state_count]")


def _names(alphabet: str, prefix: str, count: int) -> tuple[str, ...]:
    if count <= len(alphabet):
        return tuple(alphabet[:count])
    return tuple(f"{prefix}{i}" for i in range(count))


def _random_partition(rng: random.Random, n: int, blocks: int) -> tuple[tuple[int, ...], ...]:
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), blocks - 1)) if blocks > 1 else []
    out = []
    prev = 0
    for cut in cuts + [n]:
        out.append(tuple(sorted(order[prev:cut])))
        prev = cut
    return tuple(out)


def _random_distribution(rng: random.Random, n: int) -> Distribution:
    denom = rng.randint(1, 8)
    size = rng.randint(1, min(n, denom))
    support = rng.sample(range(n), size)
    cuts = sorted(rng.sample(range(1, denom), size - 1)) if size > 1 else []
    weights = {}
    prev = 0
    for t, cut in zip(support, cuts + [denom]):
        weights[t] = Fraction(cut - prev, denom)
        prev = cut
    return Distribution(weights)


def generate_arena(params: GenParams) -> Arena:
    rng = random.Random(params.seed)
    n = params.state_count
    states = tuple(f"s{i}" for i in range(n))
    eve_actions = _names(_EVE_NAMES, "a", params.eve_action_count)
    adam_actions = _names(_ADAM_NAMES, "x", params.adam_action_count)
    eve_obs = _random_partition(rng, n, params.eve_blocks)
    adam_obs = _random_partition(rng, n, params.adam_blocks)
    final = frozenset(rng.sample(range(n), params.final_count))
    transition = {}
    for s in range(n):
        for e in range(len(eve_actions)):
            for a in range(len(adam_actions)):
                if rng.random() <= params.transition_density:
                    transition[(s, e, a)] = _random_distribution(rng, n)
                else:
                    transition[(s, e, a)] = Distribution.point(s)
    return Arena(
        states=states,
        init=0,
        eve_actions=eve_actions,
        adam_actions=adam_actions,
        transition=transition,
        eve_obs=eve_obs,
        adam_obs=adam_obs,
        final=final,
    )


def random_params(
    seed: int,
    max_states: int = 4,
    max_actions: int = 2,
    max_blocks: int = 2,
) -> GenParams:
    """Parameters for a desk-scale random game, themselves drawn from ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    return GenParams(
        state_count=n,
        eve_action_count=rng.randint(1, max_actions),
        adam_action_count=rng.randint(1, max_actions),
        transition_density=rng.choice([0.3, 0.5, 0.8, 1.0]),
        eve_blocks=rng.randint(1, min(max_blocks, n)),
        adam_blocks=rng.randint(1, min(max_blocks, n)),
        final_count=rng.randint(1, n - 1),
        seed=rng.randrange(2**32),
    )
