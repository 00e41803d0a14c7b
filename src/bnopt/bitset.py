"""Variable sets as plain int bitmasks (bit i = variable i) of any width."""

from __future__ import annotations

from typing import Iterable, Iterator


def full_mask(n: int) -> int:
    """Mask with all n variables set."""
    return (1 << n) - 1


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set-bit indices in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def format_set(mask: int, names: list[str]) -> str:
    return "{" + ",".join(names[i] for i in bits(mask)) + "}"

