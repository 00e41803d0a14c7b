"""MDL local scores and the score tables built from them.

A score table keeps only the candidate parent sets that can be optimal for
some candidate pool: supersets whose score is not strictly better than every
proper subset are dropped, and sets larger than the record-count in-degree
limit are never scored at all. One pass counts each variable set once and
scores from that table the family of every member x with the other members
as parents; each family is pruned as it arrives, against the kept families
of its subsets, so no unpruned score is held. The kept entries go into a
ScoreTable of the parent store (sorted ascending by score), and the tables
of a dataset into a ScoreSet, which the parent store also writes to and
reads from score files. Only data-file input needs this module.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Iterator

import numpy as np

from .dataset import Dataset, check_cell_limit, counts
from .parent_store import ScoreSet, ScoreTable


# Queued cells of one shape that trigger a batched entropy evaluation.
BATCH_CELLS = 2048


def _nh_bits(joints: np.ndarray, count_terms: np.ndarray) -> np.ndarray:
    """N*H(x|pa) in bits for each (parent config, x value) count table of an
    (m, configs, arity[x]) stack; count_terms is the dataset's c * log2(c)
    table (Dataset.count_terms).

    N*H(x|pa) = sum N(pa) log2 N(pa) - sum N(x,pa) log2 N(x,pa). Cells with
    a count of 0 or 1 add an exact 0.0, and the terms are summed one at a
    time (marginal terms, then joint terms, each in index order), so the
    float result does not depend on how many tables share the call.
    """
    m, npa, _ = joints.shape
    cells = np.concatenate([joints.sum(axis=2), joints.reshape(m, -1)],
                           axis=1)
    terms = count_terms[cells.astype(np.intp)]
    terms[:, npa:] *= -1.0
    return np.add.accumulate(terms, axis=1)[:, -1]


def mdl_local_score(data: Dataset, x: int, pa: int) -> float:
    """MDL score of variable x with parent set pa, in bits (lower is better):
    N*H(x|pa) + log2(N)/2 * (arity[x]-1) * prod(parent arities)."""
    joint = counts(data, x, pa).T  # (parent config, x value)
    npa, rx = joint.shape
    penalty = math.log2(data.N) / 2.0 * (rx - 1) * npa
    return float(_nh_bits(joint[np.newaxis], data.count_terms)[0]) + penalty


def parent_limit(N: int) -> int:
    """In-degree bound floor(log2(2N / log2 N)) implied by the MDL penalty."""
    if N < 2:
        raise ValueError("need at least 2 records")
    return math.floor(math.log2(2.0 * N / math.log2(N)))


def _entry_sort_key(score: float, pa: int):
    # equal scores: smaller set first, then ascending bitmask
    return (score, pa.bit_count(), pa)


def family_scores(data: Dataset,
                  limit: int) -> Iterator[tuple[int, int, float]]:
    """Yield (x, pa, score) for every family of x with pa of at most limit
    parents; each score equals mdl_local_score's bit for bit, and each
    family comes after the families of x with every proper subset of pa.

    The variable sets S of 1..limit + 1 variables are walked depth first
    in increasing mask order: a child adds a variable y below S's lowest,
    and its codes over the distinct records are y's column plus y's arity
    times S's codes, so the lowest variable counts least, as in counts().
    Each S is counted once, with the multiplicities as bincount weights
    (float64 sums of integer weights are exact), and its table is queued
    by shape. When a queue holds BATCH_CELLS cells, every queue is scored,
    smaller sets first: per member x, the tables are laid out again as
    (configuration of S\\{x}, x) and their entropies evaluated together.
    """
    if limit < 0:
        raise ValueError("negative parent limit")
    cols, weights = data.distinct
    arity = data.arity
    half_log_n = math.log2(data.N) / 2.0
    count_terms = data.count_terms
    max_size = min(limit, data.n - 1) + 1
    # shape (arities, lowest variable first) -> each set's mask and
    # members (ascending), and its count table
    queued: dict[tuple[int, ...], tuple[list[tuple[int, tuple[int, ...]]],
                                        list[np.ndarray]]] = {}

    def flush() -> list[tuple[int, int, float]]:
        families = []
        for shape in sorted(queued, key=len):
            sets, tables = queued[shape]
            m, size = len(sets), len(shape)
            stacked = np.stack(tables).reshape(m, *shape[::-1])
            for i, rx in enumerate(shape):
                axes = list(range(size + 1))
                axes.append(axes.pop(size - i))  # x's axis last
                joints = stacked.transpose(axes).reshape(m, -1, rx)
                penalty = half_log_n * (rx - 1) * joints.shape[1]
                nhs = _nh_bits(joints, count_terms).tolist()
                for (S, members), nh in zip(sets, nhs):
                    x = members[i]
                    families.append((x, S ^ 1 << x, nh + penalty))
        queued.clear()
        return families

    def visit(S: int, members: tuple[int, ...], codes: np.ndarray,
              shape: tuple[int, ...], cells: int):
        sets, tables = queued.setdefault(shape, ([], []))
        sets.append((S, members))
        tables.append(np.bincount(codes, weights, minlength=cells))
        if len(sets) * cells >= BATCH_CELLS:
            yield flush()
        if len(members) == max_size:
            return
        for y in range(members[0]):
            r = arity[y]
            check_cell_limit(y, S, cells * r)
            yield from visit(S | 1 << y, (y, *members), codes * r + cols[y],
                             (r, *shape), cells * r)

    for y in range(data.n):
        check_cell_limit(y, 0, arity[y])
        for families in visit(1 << y, (y,), cols[y], (arity[y],), arity[y]):
            yield from families
    yield from flush()


def build_score_tables(
    data: Dataset, max_parents: int | None = None
) -> ScoreSet:
    """Score tables for every variable; the in-degree limit defaults to
    parent_limit(N) and may only be tightened.

    A family joins its variable's kept list only when its score is
    strictly below the first kept subset's (the best, as in best_in).
    family_scores delivers every subset first, so each list keeps exactly
    the families that score strictly below every proper subset, without
    any raw score being held.
    """
    limit = parent_limit(data.N)
    if max_parents is not None:
        if max_parents > limit:
            raise ValueError(
                f"max parents {max_parents} above the record-count limit {limit}")
        limit = max_parents
    kept: list[list[tuple[float, int, int]]] = [[] for _ in range(data.n)]
    for x, pa, score in family_scores(data, limit):
        for best, _, sub in kept[x]:
            if sub & pa == sub:
                break
        else:
            best = math.inf
        if score < best:
            insort(kept[x], _entry_sort_key(score, pa))
    tables = [ScoreTable(x, data.n, [(s, pa) for s, _, pa in entries])
              for x, entries in enumerate(kept)]
    return ScoreSet(list(data.names), tables)
