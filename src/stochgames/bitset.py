"""Sets of small non-negative integers (states, actions) as int bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Members of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def label(names, mask: int) -> str:
    """The members of ``mask`` by name, as ``{a,b}``."""
    return "{" + ",".join(names[i] for i in bits(mask)) + "}"


def block_masks(blocks: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """One mask per block of a partition, in block order."""
    return tuple(mask_of(block) for block in blocks)


def split_masks(masks: Iterable[int], by: int) -> tuple[int, ...]:
    """Each mask split into its part outside ``by``, then its part inside;
    empty parts are dropped."""
    return tuple(part for m in masks for part in (m & ~by, m & by) if part)
