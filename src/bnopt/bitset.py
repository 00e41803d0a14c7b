"""Variable sets as plain int bitmasks (bit i = variable i, n <= 64)."""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_VARS = 64


def full_mask(n: int) -> int:
    """Mask with all n variables set."""
    if not 0 <= n <= MAX_VARS:
        raise ValueError(f"variable count {n} outside supported range 0..{MAX_VARS}")
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


def popcount(mask: int) -> int:
    return mask.bit_count()


def is_subset(a: int, b: int) -> bool:
    """True iff every bit of a is set in b."""
    return a & ~b == 0


def format_set(mask: int, names: list[str]) -> str:
    return "{" + ",".join(names[i] for i in bits(mask)) + "}"


def bit_string(mask: int, nbits: int) -> str:
    """Render bits 0..nbits-1 as a left-to-right string, bit 0 first."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(nbits))
