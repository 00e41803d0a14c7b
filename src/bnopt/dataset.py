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

import numpy as np

from .bitset import bits
from .parent_store import DataError, undecodable

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
    text with the path.
    """
    try:
        with open(path, newline="") as f:
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
        cells.append([None if t.strip() in missing_tokens else t.strip() for t in rec])
    return RawTable(names, cells)


def drop_incomplete(raw: RawTable) -> RawTable:
    """Keep only rows with no absent cells, preserving order."""
    kept = [row for row in raw.cells if all(c is not None for c in row)]
    if not kept:
        raise DataError("all records incomplete: empty dataset")
    return RawTable(list(raw.column_names), kept)


def _parse_numeric(col: list[str]) -> list[float] | None:
    vals = []
    for tok in col:
        try:
            v = float(tok)
        except ValueError:
            return None
        if not math.isfinite(v):
            return None
        vals.append(v)
    return vals


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
        if any(c is None for c in col):
            raise DataError(f"column {raw.column_names[j]!r} has missing cells; "
                            "drop_incomplete first")
        vals = _parse_numeric(col)
        if vals is not None:
            mean = sum(vals) / nrow
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
    """load_delimited + drop_incomplete + binarize_mean."""
    return binarize_mean(drop_incomplete(load_delimited(
        path, delimiter=delimiter, missing_tokens=missing_tokens, header=header)))


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
