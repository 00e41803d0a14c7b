"""The sparse parent store: per-variable score tables and their queries.

A ScoreTable keeps one variable's possibly-optimal parent sets sorted
ascending by score, next to one int bit row per variable (bit i set =
entry i contains that variable). Sortedness makes the first entry whose
parents fit inside a candidate pool the best one, so BestScore(X, U) is
the lowest entry not hit by the row of any variable outside U (best_in);
best_score_naive finds the same entry by a front-to-back scan and is the
reference the bit queries are tested against.

Exclusion cursors serve ordering-based hill climbing: a cursor holds an
int validity row over a table's entries, excluding a candidate parent
clears the bits of every entry containing it, and the lowest set bit is
always the best score over the remaining pool. Cursors are persistent
values: excluding returns a new cursor and shares the underlying table, so
sibling search branches can keep a common ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .bitset import bits, is_subset
from .dataset import DataError


@dataclass(eq=False)
class ScoreTable:
    """Sorted unique pruned (score, parent set) list for one variable, with
    per-variable exclusion bit rows.

    Bit i of rows[y] is set iff variable y is in entry i's parent set.
    """

    variable: int
    n: int
    scores: list[float] = field(repr=False)      # ascending
    parent_sets: list[int] = field(repr=False)   # bitmasks, parallel to scores
    rows: list[int] = field(repr=False)          # one int per variable

    def __len__(self) -> int:
        return len(self.parent_sets)

    @classmethod
    def from_entries(
        cls, variable: int, n: int, entries: Sequence[tuple[float, int]]
    ) -> "ScoreTable":
        """Build a table from (score, parent mask) pairs kept in the given
        order (callers pass them already sorted)."""
        if not entries:
            raise ValueError("a score table needs at least the empty parent set")
        scores = [float(s) for s, _ in entries]
        parent_sets = [p for _, p in entries]
        rows = [0] * n
        for i, p in enumerate(parent_sets):
            for y in bits(p):
                rows[y] |= 1 << i
        return cls(variable, n, scores, parent_sets, rows)


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
    i = (c.valid & -c.valid).bit_length() - 1
    return c.table.scores[i], c.table.parent_sets[i]


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
    return table.scores[i], table.parent_sets[i]


def best_score_naive(table: ScoreTable, candidates: int) -> tuple[float, int]:
    """Front-to-back scan: first entry whose parents fit inside candidates.

    Sortedness makes it the minimum; reference implementation for best_in
    and the cursors.
    """
    if candidates >> table.variable & 1:
        raise ValueError("candidate set must not contain the variable itself")
    for score, pa in zip(table.scores, table.parent_sets):
        if is_subset(pa, candidates):
            return score, pa
    raise _no_empty_set(table)


def _no_empty_set(table: ScoreTable) -> DataError:
    return DataError(f"score table of variable {table.variable} has no "
                      "admissible entry: the empty parent set is missing")
