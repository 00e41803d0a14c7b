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

A ScoreSet names the tables of one dataset, and the score file is its form
on disk: write_score_file and read_score_file round-trip it bit for bit.
Nothing here needs numpy, so a run that starts from a score file never
loads the ingest and scoring modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .bitset import bits, is_subset, mask_of, popcount


class DataError(ValueError):
    """Bad input: malformed files, empty results, constant columns, score
    tables a search cannot use."""


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


@dataclass
class ScoreSet:
    """Named score tables for a whole dataset, in variable order."""

    names: list[str]
    tables: list[ScoreTable]

    @property
    def n(self) -> int:
        return len(self.names)


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


# ------------------------------------------------------------- score file IO
#
# Line 1:        n <n>
# Per variable:  var <name> <m>
#                <score> <k> <parent name>*k        (m lines, sorted order)
# Scores are written with 17 significant digits so reads are bit-identical.


def format_score_file(scores: ScoreSet) -> str:
    for name in scores.names:
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"variable name {name!r} not representable")
    chunks = [f"n {scores.n}\n"]
    for name, table in zip(scores.names, scores.tables):
        chunks.append(f"var {name} {len(table)}\n")
        for i, pa in enumerate(table.parent_sets):
            parents = " ".join(scores.names[y] for y in bits(pa))
            k = popcount(pa)
            chunks.append(f"{table.scores[i]:.17g} {k}" +
                          (f" {parents}\n" if k else "\n"))
    return "".join(chunks)


def write_score_file(path, scores: ScoreSet) -> None:
    with open(path, "w") as f:
        f.write(format_score_file(scores))


def read_score_file(path) -> ScoreSet:
    """Parse a score file back into tables.

    Syntax errors, an empty header, duplicate variable names, truncated or
    overlong blocks, non-finite scores and parent names that are unknown or
    the block's own variable raise ValueError naming the line;
    ordering and pruning invariants are the verifier's job.
    """
    with open(path) as f:
        lines = [(no, ln.split()) for no, ln in enumerate(f, 1) if ln.strip()]
    head = lines[0][1] if lines else []
    if len(head) != 2 or head[0] != "n" or not head[1].isdigit():
        raise ValueError(f"{path}: not a score file (missing 'n <count>' header)")
    n = int(head[1])

    def bad(no: int, what: str) -> ValueError:
        return ValueError(f"{path}: line {no}: {what}")

    if n == 0:
        raise bad(lines[0][0], "header declares no variables")

    # group lines into blocks first so parent references can point forward;
    # an entry line never starts with 'var' (its first token is a score)
    heads: list[tuple[int, str, int]] = []
    bodies: list[list[tuple[int, list[str]]]] = []
    for no, toks in lines[1:]:
        if toks[0] == "var":
            if len(toks) != 3 or not toks[2].isdigit():
                raise bad(no, "expected 'var <name> <entries>', "
                              f"got {' '.join(toks)!r}")
            if any(toks[1] == nm for _, nm, _ in heads):
                raise bad(no, f"duplicate variable name {toks[1]!r}")
            heads.append((no, toks[1], int(toks[2])))
            bodies.append([])
        elif not heads:
            raise bad(no, f"expected 'var' block, got {' '.join(toks)!r}")
        else:
            bodies[-1].append((no, toks))
    if len(heads) != n:
        raise bad(lines[-1][0], f"file has {len(heads)} variable blocks, "
                                f"header says {n}")
    index = {nm: i for i, (_, nm, _) in enumerate(heads)}
    tables = []
    for x, ((no, name, m), body) in enumerate(zip(heads, bodies)):
        if len(body) != m:
            raise bad(no, f"block for {name} declares {m} entries "
                          f"but has {len(body)}")
        entries = []
        for eno, toks in body:
            try:
                score, k = float(toks[0]), int(toks[1])
            except (ValueError, IndexError):
                raise bad(eno, f"bad entry line {' '.join(toks)!r}") from None
            if not math.isfinite(score):
                raise bad(eno, f"non-finite score {toks[0]!r}")
            if len(toks) != 2 + k:
                raise bad(eno, f"bad entry line {' '.join(toks)!r}")
            for t in toks[2:]:
                if t not in index:
                    raise bad(eno, f"unknown parent {t!r}")
                if t == name:
                    raise bad(eno, f"{name} listed as its own parent")
            entries.append((score, mask_of(index[t] for t in toks[2:])))
        tables.append(ScoreTable.from_entries(x, n, entries))
    return ScoreSet([nm for _, nm, _ in heads], tables)
