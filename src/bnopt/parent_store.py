"""Bit-vector cursors over score tables.

A cursor holds an int validity row over a table's entries (bit i set =
entry i usable); excluding a candidate parent clears the bits of every
entry containing it, and the lowest set bit is always the best score over
the remaining pool. Cursors are persistent values: excluding returns a new
cursor and shares the underlying table, so sibling search branches can
keep a common ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bitset import bits
from .dataset import DataError
from .scoring import ScoreTable


@dataclass(frozen=True, eq=False)
class ExclusionCursor:
    table: ScoreTable
    valid: int = field(repr=False)  # bit i = entry i usable
    excluded: int = 0               # variables ruled out so far

    def __len__(self) -> int:
        return len(self.table)


def cursor_new(table: ScoreTable) -> ExclusionCursor:
    """Fresh cursor with every entry admissible."""
    return ExclusionCursor(table, (1 << len(table)) - 1, 0)


def cursor_exclude(c: ExclusionCursor, y: int) -> ExclusionCursor:
    """Rule out y as a candidate parent; returns a new cursor."""
    if y == c.table.variable:
        raise ValueError("cannot exclude the table's own variable")
    if c.excluded >> y & 1:
        raise ValueError(f"variable {y} already excluded")
    if not 0 <= y < c.table.n:
        raise ValueError(f"variable index {y} out of range")
    return ExclusionCursor(c.table, c.valid & ~c.table.rows[y],
                           c.excluded | 1 << y)


def cursor_best(c: ExclusionCursor) -> tuple[float, int]:
    """Entry at the lowest set bit: BestScore over all still-admissible
    candidate pools. Only a table without the empty parent set can run out
    of admissible entries."""
    if not c.valid:
        raise _no_empty_set(c.table)
    return c.table.entry((c.valid & -c.valid).bit_length() - 1)


def best_in(table: ScoreTable, candidates: int) -> tuple[float, int]:
    """One-shot BestScore(X, candidates): the rows of every non-candidate
    OR-ed together mark the inadmissible entries, and the lowest zero bit
    is the answer.

    The table's own variable never appears in any entry, so its (zero) row
    is OR-ed in harmlessly; callers only guarantee candidates does not
    contain the variable.
    """
    if candidates >> table.variable & 1:
        raise ValueError("candidate set must not contain the variable itself")
    hit = 0
    for y in bits(((1 << table.n) - 1) & ~candidates):
        hit |= table.rows[y]
    i = (~hit & (hit + 1)).bit_length() - 1
    if i >= len(table):
        raise _no_empty_set(table)
    return table.entry(i)


def _no_empty_set(table: ScoreTable) -> DataError:
    return DataError(f"score table of variable {table.variable} has no "
                      "admissible entry: the empty parent set is missing")
