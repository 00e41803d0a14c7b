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
from fractions import Fraction
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
    """Tokenized delimited file. records holds the cells of each distinct
    record once, in first-appearance order, with None for a missing cell;
    index[i] is the record number of row i."""

    column_names: list[str]
    records: list[list[str | None]]
    index: list[int]

    @property
    def n_rows(self) -> int:
        return len(self.index)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Complete, discretized records. rows is an (N, n) array of value
    indices of any integer dtype (load_dataset stores the narrowest
    unsigned one that holds every arity, uint8 for binary data); immutable
    once built. distinct and counts widen them to int64 before any
    arithmetic."""

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
        to N). The columns are int64 whatever the dtype of rows, so codes
        built from them do not wrap. Computed on first use, once per
        dataset."""
        ordered = self.rows[np.lexsort(self.rows.T)]
        starts = np.flatnonzero(np.concatenate(
            ([True], (ordered[1:] != ordered[:-1]).any(axis=1))))
        weights = np.diff(np.append(starts, self.N)).astype(np.float64)
        cols = np.ascontiguousarray(ordered[starts].T, dtype=np.int64)
        return cols, weights

    @cached_property
    def count_terms(self) -> np.ndarray:
        """c * log2(c) for every cell count c from 0 to N, with 0.0 for
        0 and 1, as float64. The logarithms are libm's (math.log2): numpy's
        log2 differs from it in the last bit at some counts, depending on
        the CPU features numpy dispatches to, and scores must not. Filled
        straight from the generator, with no list of N floats. Computed on
        first use, once per dataset."""
        terms = itertools.chain((0.0, 0.0), (c * math.log2(c)
                                             for c in range(2, self.N + 1)))
        return np.fromiter(terms, dtype=np.float64, count=self.N + 1)


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
    mark, and every line that is empty or holds one all-whitespace field,
    are skipped. Each distinct record is stripped and missing-tested once.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f, delimiter=delimiter)
            records = (r for r in reader if len(r) > 1 or r and r[0].strip())
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
    seen: dict[tuple[str, ...], int] = {}
    distinct: list[list[str | None]] = []
    index: list[int] = []
    for i, rec in enumerate(records, offset):
        key = tuple(rec)
        r = seen.get(key)
        if r is None:  # equal records have equal lengths
            if len(rec) != ncol:
                raise DataError(
                    f"{path}: row {i} has {len(rec)} cells, expected {ncol}")
            r = seen[key] = len(distinct)
            distinct.append([None if t in missing_tokens else t
                             for t in map(str.strip, rec)])
        index.append(r)
    if not index:
        raise DataError(f"{path}: no records")
    return RawTable(names, distinct, index)


def drop_incomplete(raw: RawTable) -> RawTable:
    """Keep only rows with no absent cells, preserving order. Each record
    is tested once; the complete ones keep their order and are renumbered."""
    complete = [None not in rec for rec in raw.records]
    renumber = list(itertools.accumulate(complete, initial=0))
    index = [renumber[r] for r in raw.index if complete[r]]
    if not index:
        raise DataError("all records incomplete: empty dataset")
    return RawTable(list(raw.column_names),
                    list(itertools.compress(raw.records, complete)), index)


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
    row's value in row order, and where that sum overflows a value is
    coded 0 when it lies strictly below the exact mean. The rows are
    stored in the narrowest unsigned dtype that holds every code: uint8
    up to 256 states, uint16 up to 65,536.
    """
    ncol = len(raw.column_names)
    nrow = raw.n_rows
    if nrow == 0:
        raise DataError("empty dataset")
    coded = np.empty((len(raw.records), ncol), dtype=np.int64)
    arity = []
    for j in range(ncol):
        col = [rec[j] for rec in raw.records]
        if None in col:
            raise DataError(f"column {raw.column_names[j]!r} has missing cells; "
                            "drop_incomplete first")
        vals = _parse_numeric(col)
        if vals is not None:
            # every row's value, in row order
            mean = ordered_sum(map(vals.__getitem__, raw.index)) / nrow
            if math.isfinite(mean):
                codes = [0 if v < mean else 1 for v in vals]
            else:
                # the sum overflowed: compare with the exact mean instead
                count = np.bincount(raw.index, minlength=len(vals)).tolist()
                total = sum(Fraction(v) * c for v, c in zip(vals, count))
                codes = [0 if Fraction(v) * nrow < total else 1 for v in vals]
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
    narrow = coded.astype(np.min_scalar_type(max(arity) - 1))
    return Dataset(list(raw.column_names), arity, narrow[raw.index])


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
        # rebound, so load_delimited's row index is freed before binarizing
        raw = drop_incomplete(raw)
        return binarize_mean(raw)
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
    codes = data.rows[:, x].astype(np.int64)
    stride = rx
    for y in pa_list:
        codes += data.rows[:, y].astype(np.int64) * stride
        stride *= data.arity[y]
    joint = np.bincount(codes, minlength=npa * rx)
    return joint.reshape(npa, rx).T.copy()
