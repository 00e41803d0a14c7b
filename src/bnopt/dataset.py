"""Ingestion of delimited data files into discretized datasets.

Pipeline: load_delimited -> drop_incomplete -> binarize_mean. Numeric
columns are split into two states around the column mean (computed after
incomplete records are removed); other columns are coded categorically in
first-appearance order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bitset import bits
from .parent_store import DataError, ordered_sum, undecodable

DEFAULT_MISSING_TOKENS = frozenset({"?", ""})

# Guard on the contingency-table size of one parent set, read when checked;
# parent sets inside the record-count in-degree limit stay far below this.
CELL_LIMIT = 1 << 22


@dataclass
class RawTable:
    """Tokenized delimited file; None marks a missing cell."""

    column_names: list[str]
    cells: list[list[str | None]]

    @property
    def n_rows(self) -> int:
        return len(self.cells)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Complete, discretized records. rows is an (N, n) int64 array of value
    indices; immutable once built."""

    names: list[str]
    arity: list[int]
    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.rows.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def N(self) -> int:
        return int(self.rows.shape[0])

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct records as an (n, D) array of contiguous columns,
        and each one's multiplicity as float64 bincount weights (they sum
        to N). Computed on first use, once per dataset."""
        ordered = self.rows[np.lexsort(self.rows.T)]
        starts = np.flatnonzero(np.concatenate(
            ([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
        weights = np.diff(np.append(starts, self.N)).astype(np.float64)
        return np.ascontiguousarray(ordered[starts].T), weights


def load_delimited(
    path,
    delimiter: str = ",",
    missing_tokens=DEFAULT_MISSING_TOKENS,
    header: bool = True,
) -> RawTable:
    """Read a delimited text file into a RawTable.

    Tokens in missing_tokens become absent cells. A row whose cell count
    differs from the header is rejected with its 1-based record number, a
    header that names a column twice with the name, and bytes that are not
    text with the path. A leading UTF-8 byte-order mark is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            records = list(csv.reader(f, delimiter=delimiter))
    except UnicodeDecodeError as e:
        raise undecodable(path, e) from None
    records = [r for r in records if r]  # ignore fully blank lines
    if not records:
        raise DataError(f"{path}: no records")
    if header:
        names = [t.strip() for t in records[0]]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise DataError(f"{path}: header names column {name!r} twice")
        body = records[1:]
        if not body:
            raise DataError(f"{path}: no records")
        offset = 2
    else:
        names = [f"X{i + 1}" for i in range(len(records[0]))]
        body = records
        offset = 1
    ncol = len(names)
    cells: list[list[str | None]] = []
    for i, rec in enumerate(body):
        if len(rec) != ncol:
            raise DataError(
                f"{path}: row {i + offset} has {len(rec)} cells, expected {ncol}"
            )
        cells.append([None if t in missing_tokens else t
                      for t in map(str.strip, rec)])
    return RawTable(names, cells)


def drop_incomplete(raw: RawTable) -> RawTable:
    """Keep only rows with no absent cells, preserving order."""
    kept = [row for row in raw.cells if None not in row]
    if not kept:
        raise DataError("all records incomplete: empty dataset")
    return RawTable(list(raw.column_names), kept)


def _parse_numeric(col: list[str]) -> list[float] | None:
    try:
        vals = list(map(float, col))
    except ValueError:
        return None
    return vals if all(map(math.isfinite, vals)) else None


def binarize_mean(raw: RawTable) -> Dataset:
    """Discretize a complete table.

    Numeric columns become binary: 0 strictly below the column mean, 1
    otherwise. Non-numeric columns get category codes in first-appearance
    order. A column that ends up with a single state is an error.
    """
    ncol = len(raw.column_names)
    nrow = len(raw.cells)
    if nrow == 0:
        raise DataError("empty dataset")
    coded = np.empty((nrow, ncol), dtype=np.int64)
    arity = []
    for j in range(ncol):
        col = [row[j] for row in raw.cells]
        if None in col:
            raise DataError(f"column {raw.column_names[j]!r} has missing cells; "
                            "drop_incomplete first")
        vals = _parse_numeric(col)
        if vals is not None:
            mean = ordered_sum(vals) / nrow  # in row order
            codes = [0 if v < mean else 1 for v in vals]
        else:
            seen: dict[str, int] = {}
            codes = []
            for tok in col:
                if tok not in seen:
                    seen[tok] = len(seen)
                codes.append(seen[tok])
        k = len(set(codes))
        if k < 2:
            raise DataError(f"column {raw.column_names[j]!r} is constant")
        coded[:, j] = codes
        arity.append(k)
    return Dataset(list(raw.column_names), arity, coded)


def load_dataset(
    path,
    delimiter: str = ",",
    missing_tokens=DEFAULT_MISSING_TOKENS,
    header: bool = True,
) -> Dataset:
    """load_delimited + drop_incomplete + binarize_mean; every DataError
    names the file."""
    raw = load_delimited(path, delimiter=delimiter,
                         missing_tokens=missing_tokens, header=header)
    try:
        return binarize_mean(drop_incomplete(raw))
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def check_cell_limit(x: int, pa: int, cells: int) -> None:
    """Raise DataError when the counts of x given pa need more than
    CELL_LIMIT cells."""
    if cells > CELL_LIMIT:
        raise DataError(
            f"contingency table for X{x} given {pa.bit_count()} parents needs "
            f"{cells} cells, over the limit {CELL_LIMIT}")


def counts(data: Dataset, x: int, pa: int) -> np.ndarray:
    """Contingency counts N(x, pa) as an (arity[x], prod parent arities)
    array; column order follows mixed-radix codes over ascending parent
    index."""
    if not 0 <= x < data.n:
        raise ValueError(f"variable index {x} out of range")
    if pa >> data.n:
        raise ValueError("parent set contains out-of-range variables")
    if pa >> x & 1:
        raise ValueError(f"X{x} cannot be its own parent")
    pa_list = list(bits(pa))
    rx = data.arity[x]
    npa = 1
    for y in pa_list:
        npa *= data.arity[y]
    check_cell_limit(x, pa, rx * npa)
    codes = np.zeros(data.N, dtype=np.int64)
    stride = 1
    for y in pa_list:
        codes += data.rows[:, y] * stride
        stride *= data.arity[y]
    joint = np.bincount(codes * rx + data.rows[:, x], minlength=npa * rx)
    return joint.reshape(npa, rx).T.copy()
