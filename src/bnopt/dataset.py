"""Ingestion of delimited data files into discretized datasets.

Pipeline: load_delimited -> drop_incomplete -> binarize_mean. Numeric
columns are split into two states around the column mean (computed after
incomplete records are removed); other columns are coded categorically in
first-appearance order.
"""

from __future__ import annotations

import csv
import itertools
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
    """Tokenized delimited file; None marks a missing cell. load_delimited
    gives equal records one shared cells list, so edit a row by replacing
    it, not in place."""

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

    @cached_property
    def count_terms(self) -> np.ndarray:
        """c * log2(c) for every cell count c from 0 to N, with 0.0 for
        0 and 1, as float64. The logarithms are libm's (math.log2): numpy's
        log2 differs from it in the last bit at some counts, depending on
        the CPU features numpy dispatches to, and scores must not. Computed
        on first use, once per dataset."""
        return np.array([0.0, 0.0] + [c * math.log2(c)
                                      for c in range(2, self.N + 1)])


def load_delimited(
    path,
    delimiter: str = ",",
    missing_tokens=DEFAULT_MISSING_TOKENS,
    header: bool = True,
) -> RawTable:
    """Read a delimited text file into a RawTable.

    Tokens in missing_tokens become absent cells. A file of one column is
    rejected with the path, a row whose cell count differs from the header
    with its 1-based record number, a header that names a column twice
    with the name, bytes that are not text with the path, and a field the
    csv reader refuses with the path and line. A leading UTF-8 byte-order
    mark is skipped. Each distinct record is stripped and missing-tested
    once; equal records share one cells list.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f, delimiter=delimiter)
            records = filter(None, reader)  # ignore fully blank lines
            try:
                return _tabulate(path, records, missing_tokens, header)
            except (DataError, csv.Error) as e:
                f.read()  # bytes that are not text win wherever they are
                if isinstance(e, DataError):
                    raise
                raise DataError(
                    f"{path}: line {reader.line_num}: {e}") from None
    except UnicodeDecodeError as e:
        raise undecodable(path, e) from None


def _tabulate(path, records, missing_tokens, header: bool) -> RawTable:
    first = next(records, None)
    if first is None:
        raise DataError(f"{path}: no records")
    if header:
        names = [t.strip() for t in first]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise DataError(f"{path}: header names column {name!r} twice")
        offset = 2
    else:
        names = [f"X{i + 1}" for i in range(len(first))]
        records = itertools.chain([first], records)
        offset = 1
    ncol = len(names)
    if ncol < 2:  # a score file whose header is lost reads as one column
        raise DataError(f"{path}: one column; a data file needs at least "
                        "two, a score file its 'n <count>' header")
    seen: dict[tuple[str, ...], list[str | None]] = {}
    cells: list[list[str | None]] = []
    for i, rec in enumerate(records, offset):
        key = tuple(rec)
        row = seen.get(key)
        if row is None:  # equal records have equal lengths
            if len(rec) != ncol:
                raise DataError(
                    f"{path}: row {i} has {len(rec)} cells, expected {ncol}")
            row = seen[key] = [None if t in missing_tokens else t
                               for t in map(str.strip, rec)]
        cells.append(row)
    if not cells:
        raise DataError(f"{path}: no records")
    return RawTable(names, cells)


def drop_incomplete(raw: RawTable) -> RawTable:
    """Keep only rows with no absent cells, preserving order. Equal
    records share one cells list, so each list is tested once."""
    complete: dict[int, bool] = {}
    kept = []
    for row in raw.cells:
        ok = complete.get(id(row))
        if ok is None:
            ok = complete[id(row)] = None not in row
        if ok:
            kept.append(row)
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
    order. A column that ends up with a single state is an error. Each
    distinct record is parsed and coded once; the mean still adds every
    row's value in row order.
    """
    ncol = len(raw.column_names)
    nrow = len(raw.cells)
    if nrow == 0:
        raise DataError("empty dataset")
    # distinct records in first-appearance order, and each row's one; a
    # record is known by its cells list, which load_delimited shares
    # between equal records
    by_list = dict(zip(map(id, raw.cells), raw.cells))
    distinct = list(by_list.values())
    slot = dict(zip(by_list, range(len(distinct))))
    index = list(map(slot.__getitem__, map(id, raw.cells)))
    del by_list, slot
    coded = np.empty((len(distinct), ncol), dtype=np.int64)
    arity = []
    for j in range(ncol):
        col = [rec[j] for rec in distinct]
        if None in col:
            raise DataError(f"column {raw.column_names[j]!r} has missing cells; "
                            "drop_incomplete first")
        vals = _parse_numeric(col)
        if vals is not None:
            # every row's value, in row order
            mean = ordered_sum(map(vals.__getitem__, index)) / nrow
            codes = [0 if v < mean else 1 for v in vals]
        else:
            # a category first appears in the record that first appears
            # with it, so coding the distinct records in order keeps the
            # rows' first-appearance order
            seen: dict[str, int] = {}
            codes = [seen.setdefault(tok, len(seen)) for tok in col]
        k = len(set(codes))
        if k < 2:
            raise DataError(f"column {raw.column_names[j]!r} is constant")
        coded[:, j] = codes
        arity.append(k)
    return Dataset(list(raw.column_names), arity, coded[index])


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
