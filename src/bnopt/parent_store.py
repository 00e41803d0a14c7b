"""The sparse parent store: per-variable score tables and their queries.

A ScoreTable keeps one variable's possibly-optimal parent sets as one list
of (score, unique bitmask) entries sorted ascending by score, the sparse
representation of Yuan & Malone (JAIR 2013). Sortedness makes the first
entry whose parents fit inside a candidate pool the best one, so
BestScore(X, U) is a front-to-back first-fit scan (best_in). The paper
answers it by OR-ing one bit vector per excluded variable; in pure Python on
these short tables the scan is faster, so no bit vectors are kept.

The ScoreTable constructor, the one way to build a table, checks that
every table draws its parents from the other variables, has finite
scores, is sorted ascending and holds the empty parent set. The empty set
fits every pool, so no query can run past it: each has an answer.

Ordering-based hill climbing rules candidate parents out one at a time:
cursor_exclude adds one variable to an int mask of the ruled-out ones, and
best_in over the variables the mask leaves answers the position.

Scores are added by ordered_sum, left to right from 0.0: sum() compensates
rounding on Python 3.12+, which would make reports differ between versions.
Two sums of the same scores added in other orders can differ in the last
bits; every test of two sums for equality allows tie_band of one of them.

A ScoreSet names the tables of one dataset, and the score file is its form
on disk: write_score_file and read_score_file round-trip it bit for bit.
Nothing here needs numpy, so a run that starts from a score file never
loads the ingest and scoring modules.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .bitset import bits, mask_of


class DataError(ValueError):
    """Bad input: malformed files, empty results, constant columns, score
    tables a search cannot use."""


class ScoreTable:
    """Sorted unique pruned (score, parent set) list for one variable.

    entries holds the given (score, parent mask) pairs in the given order,
    each score a Python float. Raises DataError when a mask holds the
    variable itself or a bit at or above n, a score is not finite (NaN or
    infinite), the scores do not ascend (ties pass) or mask 0 (the empty
    parent set) is missing, so the first fitting entry of every candidate
    pool exists and is its best.
    """

    def __init__(self, variable: int, n: int,
                 entries: Sequence[tuple[float, int]]):
        self.variable = variable
        self.n = n
        self.entries = [(float(s), pa) for s, pa in entries]
        forbidden = -1 << n | 1 << variable  # negative masks included
        prev, empty = -math.inf, False
        for i, (score, pa) in enumerate(self.entries):
            if pa & forbidden:
                raise DataError(f"score table of variable {variable} names a "
                                f"parent outside the other {n - 1} variables "
                                f"at entry {i} (mask {pa:#b})")
            if not math.isfinite(score):
                raise DataError(f"score table of variable {variable} has the "
                                f"non-finite score {score!r} at entry {i}")
            if prev > score:
                raise DataError(f"score table of variable {variable} is "
                                f"not in ascending order at entry {i}")
            prev, empty = score, empty or not pa
        if not empty:
            raise DataError(f"score table of variable {variable} lacks the "
                            "empty parent set")

    def __len__(self) -> int:
        return len(self.entries)


# relative band within which two differently ordered sums count as tied
G_EPS = 1e-12


def tie_band(x: float) -> float:
    """How far a differently ordered sum may lie from x and still equal it."""
    return G_EPS * max(1.0, abs(x))


def ordered_sum(values: Iterable[float]) -> float:
    """values added one at a time, left to right, from 0.0."""
    total = 0.0
    for v in values:
        total += v
    return total


class ScoreSet:
    """Named score tables for a whole dataset, in variable order."""

    def __init__(self, names: list[str], tables: list[ScoreTable]):
        self.names = names
        self.tables = tables

    @property
    def n(self) -> int:
        return len(self.names)


def cursor_exclude(table: ScoreTable, excluded: int, y: int) -> int:
    """The mask excluded with y ruled out as a candidate parent of table's
    variable. Raises ValueError when y is that variable, out of range or
    already excluded."""
    if y == table.variable:
        raise ValueError("cannot exclude the table's own variable")
    if not 0 <= y < table.n:
        raise ValueError(f"variable index {y} out of range")
    if excluded >> y & 1:
        raise ValueError(f"variable {y} already excluded")
    return excluded | 1 << y


def best_in(table: ScoreTable, candidates: int) -> tuple[float, int]:
    """One-shot BestScore(X, candidates): the first entry whose parents
    all lie inside candidates (at the latest the empty parent set).
    Raises ValueError when candidates holds the table's own variable.
    """
    if candidates >> table.variable & 1:
        raise ValueError("candidate set must not contain the variable itself")
    out = ~candidates
    for entry in table.entries:
        if not entry[1] & out:
            return entry


# ------------------------------------------------------------- score file IO
#
# Line 1:        n <n>
# Per variable:  var <name> <m>
#                <score> <k> <parent name>*k        (m lines, sorted order)
# Scores are written with 17 significant digits so reads are bit-identical.


def check_names(names: list[str]) -> None:
    """Raise ValueError for the first name a score file cannot hold: an
    empty one, one with whitespace, or a repeat of an earlier one."""
    for i, name in enumerate(names):
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"variable name {name!r} not representable")
        if name in names[:i]:
            raise ValueError(f"duplicate variable name {name!r}")


def format_score_file(scores: ScoreSet) -> str:
    """The score file of scores; raises ValueError for names that
    read_score_file would refuse or that do not match the tables one to
    one, and for a non-finite score."""
    check_names(scores.names)
    if len(scores.names) != len(scores.tables):
        raise ValueError(f"{len(scores.names)} variable names for "
                         f"{len(scores.tables)} score tables")
    chunks = [f"n {scores.n}\n"]
    for name, table in zip(scores.names, scores.tables):
        chunks.append(f"var {name} {len(table)}\n")
        for score, pa in table.entries:
            if not math.isfinite(score):
                raise ValueError(f"block for {name}: non-finite score "
                                 f"{score!r}")
            parents = " ".join(scores.names[y] for y in bits(pa))
            k = pa.bit_count()
            chunks.append(f"{score:.17g} {k}" +
                          (f" {parents}\n" if k else "\n"))
    return "".join(chunks)


def write_score_file(path, scores: ScoreSet) -> None:
    text = format_score_file(scores)  # before open, so a refusal keeps path
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def undecodable(path, e: UnicodeDecodeError) -> DataError:
    """The one-line error for a file whose bytes are not text."""
    return DataError(f"{path}: not {e.encoding} text ({e.reason})")


def _is_header(toks: list[str]) -> bool:
    return len(toks) == 2 and toks[0] == "n" and toks[1].isdigit()


def is_score_file(path) -> bool:
    """Whether the first non-blank line of path is a score-file header; a
    file that cannot be opened or decoded raises DataError naming path.
    Like every reader here, it skips a leading UTF-8 byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            for line in f:
                if line.strip():
                    return _is_header(line.split())
    except OSError as e:
        raise DataError(f"{path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise undecodable(path, e) from None
    return False


def read_score_file(path) -> ScoreSet:
    """Parse a score file back into tables.

    Every malformed file raises DataError naming path: undecodable bytes;
    syntax errors, an empty header, duplicate variable names, truncated or
    overlong blocks, non-finite scores, parent names that are unknown, the
    block's own variable or repeated within a line, and a parent set listed
    twice in a block, each naming the line; and a block whose scores do not
    ascend or that lacks the empty parent set (the ScoreTable constructor),
    naming the block's line and variable. Pruning invariants are the
    verifier's job.
    """
    try:
        with open(path, encoding="utf-8-sig") as f:
            lines = [(no, ln.split()) for no, ln in enumerate(f, 1)
                     if ln.strip()]
    except UnicodeDecodeError as e:
        raise undecodable(path, e) from None
    head = lines[0][1] if lines else []
    if not _is_header(head):
        raise DataError(f"{path}: not a score file (missing 'n <count>' header)")

    def bad(no: int, what: str) -> DataError:
        return DataError(f"{path}: line {no}: {what}")

    # _is_header accepts any str.isdigit token; int() takes only decimals
    if not head[1].isdecimal():
        raise bad(lines[0][0], f"variable count {head[1]!r} is not a number")
    n = int(head[1])
    if n == 0:
        raise bad(lines[0][0], "header declares no variables")

    # group lines into blocks first so parent references can point forward;
    # an entry line never starts with 'var' (its first token is a score)
    heads: list[tuple[int, str, int]] = []
    bodies: list[list[tuple[int, list[str]]]] = []
    for no, toks in lines[1:]:
        if toks[0] == "var":
            if len(toks) != 3 or not toks[2].isdecimal():
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
        line_of: dict[int, int] = {}  # parent mask -> line number
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
            pa = mask_of(index[t] for t in toks[2:])
            if pa.bit_count() != k:
                raise bad(eno, f"a parent is named twice in {' '.join(toks)!r}")
            if pa in line_of:
                raise bad(eno, f"parent set of line {line_of[pa]} listed again")
            line_of[pa] = eno
            entries.append((score, pa))
        try:
            tables.append(ScoreTable(x, n, entries))
        except DataError as e:
            raise DataError(f"{path}: line {no}: block for {name}: {e}") \
                from None
    return ScoreSet([nm for _, nm, _ in heads], tables)
