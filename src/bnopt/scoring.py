"""MDL local scores and the score tables built from them.

A family's entropy term is a difference of two set sums: N*H(x|pa) =
T(pa) - T(pa | {x}), where T(S) sums c*log2(c) over the count table of
the variable set S with math.fsum, which is exactly rounded, so T depends
on the counts and not on their cell order.

A score table keeps only the candidate parent sets that can be optimal for
some candidate pool: supersets whose score is not strictly better than every
proper subset are dropped, and sets larger than the record-count in-degree
limit are never scored at all. One pass counts each variable set once and
scores from its T the family of every member x with the other members
as parents; a family is dropped as it arrives when a kept family of a
subset scores as well, so no unpruned score is held. The kept families
are sorted once into each variable's ScoreTable (parent store), and a
dataset's tables into a ScoreSet, which the parent store also writes to
and reads from score files. Only data-file input needs this module.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .dataset import Dataset, check_cell_limit, counts
from .parent_store import ScoreSet, ScoreTable


def _set_term(data: Dataset, table: np.ndarray) -> float:
    """T of one count table of data: the exactly rounded sum of its cells'
    c * log2(c) (Dataset.count_terms)."""
    cells = table.astype(np.intp).ravel()
    return math.fsum(data.count_terms[cells].tolist())


def mdl_local_score(data: Dataset, x: int, pa: int) -> float:
    """MDL score of variable x with parent set pa, in bits (lower is better):
    T(pa) - T(pa | {x}) + log2(N)/2 * (arity[x]-1) * prod(parent arities)."""
    joint = counts(data, x, pa)  # (x value, parent config)
    rx, npa = joint.shape
    nh = _set_term(data, joint.sum(axis=0)) - _set_term(data, joint)
    return nh + math.log2(data.N) / 2.0 * (rx - 1) * npa


def parent_limit(N: int) -> int:
    """In-degree bound floor(log2(2N / log2 N)) implied by the MDL penalty."""
    if N < 2:
        raise ValueError("need at least 2 records")
    return math.floor(math.log2(2.0 * N / math.log2(N)))


def _entry_sort_key(entry: tuple[float, int]):
    # equal scores: smaller set first, then ascending bitmask
    return (entry[0], entry[1].bit_count(), entry[1])


def family_scores(data: Dataset,
                  limit: int) -> Iterator[tuple[int, int, float]]:
    """Yield (x, pa, score) for every family of x with pa of at most limit
    parents; each score equals mdl_local_score's bit for bit, and each
    family comes after the families of x with every proper subset of pa.

    The variable sets S of 1..limit + 1 variables are walked depth first
    in increasing mask order: a child adds a variable y below S's lowest,
    and its codes over the distinct records are y's column plus y's arity
    times S's codes. Each S is counted once, with the multiplicities as
    bincount weights (float64 sums of integer weights are exact), and
    yields each member's family from T(S) and T(S\\{x}). T is kept for
    every set that can serve as a parent set; the walk reaches every
    subset of S before S.
    """
    if limit < 0:
        raise ValueError("negative parent limit")
    cols, weights = data.distinct
    arity = data.arity
    half_log_n = math.log2(data.N) / 2.0
    max_size = min(limit, data.n - 1) + 1
    T = {0: float(data.count_terms[data.N])}

    def visit(S: int, members: tuple[int, ...], codes: np.ndarray,
              cells: int):
        t = _set_term(data, np.bincount(codes, weights, minlength=cells))
        for x in members:
            rx = arity[x]
            pa = S ^ 1 << x
            yield x, pa, T[pa] - t + half_log_n * (rx - 1) * (cells // rx)
        if len(members) == max_size:
            return
        T[S] = t
        for y in range(members[0]):
            r = arity[y]
            check_cell_limit(y, S, cells * r)
            yield from visit(S | 1 << y, (y, *members), codes * r + cols[y],
                             cells * r)

    for y in range(data.n):
        check_cell_limit(y, 0, arity[y])
        yield from visit(1 << y, (y,), cols[y], arity[y])


def build_score_tables(
    data: Dataset, max_parents: int | None = None
) -> ScoreSet:
    """Score tables for every variable; the in-degree limit defaults to
    parent_limit(N) and may only be tightened.

    A family joins its variable's kept list only when no kept subset
    scores as well (at or below its score). family_scores delivers every
    subset first, so each list keeps exactly the families that score
    strictly below every proper subset, without any raw score being
    held; each list is sorted once, when its ScoreTable is built.
    """
    limit = parent_limit(data.N)
    if max_parents is not None:
        if max_parents > limit:
            raise ValueError(
                f"max parents {max_parents} above the record-count limit {limit}")
        limit = max_parents
    kept: list[list[tuple[float, int]]] = [[] for _ in range(data.n)]
    for x, pa, score in family_scores(data, limit):
        for s, sub in kept[x]:
            if sub & pa == sub and s <= score:
                break  # a kept subset scores as well
        else:
            kept[x].append((score, pa))
    tables = [ScoreTable(x, data.n, sorted(entries, key=_entry_sort_key))
              for x, entries in enumerate(kept)]
    return ScoreSet(list(data.names), tables)
