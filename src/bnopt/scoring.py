"""MDL local scores and the score tables built from them.

A score table keeps only the candidate parent sets that can be optimal for
some candidate pool: supersets whose score is not strictly better than every
proper subset are dropped, and sets larger than the record-count in-degree
limit are never scored at all. The kept entries go into a ScoreTable of the
parent store (sorted ascending by score), and the tables of a dataset into
a ScoreSet, which the parent store also writes to and reads from score
files. Only data-file input needs this module.
"""

from __future__ import annotations

import math

import numpy as np

from .bitset import bits
from .dataset import Dataset, check_cell_limit, counts
from .parent_store import ScoreSet, ScoreTable


# Queued cells of one shape that trigger a batched entropy evaluation.
BATCH_CELLS = 2048


def _nh_bits(joints: np.ndarray) -> np.ndarray:
    """N*H(x|pa) in bits for each (parent config, x value) count table of an
    (m, configs, arity[x]) stack.

    N*H(x|pa) = sum N(pa) log2 N(pa) - sum N(x,pa) log2 N(x,pa). Cells with
    a count of 0 or 1 add an exact 0.0, and the terms are summed one at a
    time (marginal terms, then joint terms, each in index order), so the
    float result does not depend on how many tables share the call.
    """
    m, npa, _ = joints.shape
    cells = np.concatenate([joints.sum(axis=2), joints.reshape(m, -1)],
                           axis=1).astype(np.float64)
    terms = cells * np.log2(np.maximum(cells, 1.0))
    terms[:, npa:] *= -1.0
    return np.add.accumulate(terms, axis=1)[:, -1]


def mdl_local_score(data: Dataset, x: int, pa: int) -> float:
    """MDL score of variable x with parent set pa, in bits (lower is better):
    N*H(x|pa) + log2(N)/2 * (arity[x]-1) * prod(parent arities)."""
    joint = counts(data, x, pa).T  # (parent config, x value)
    npa, rx = joint.shape
    penalty = math.log2(data.N) / 2.0 * (rx - 1) * npa
    return float(_nh_bits(joint[np.newaxis])[0]) + penalty


def parent_limit(N: int) -> int:
    """In-degree bound floor(log2(2N / log2 N)) implied by the MDL penalty."""
    if N < 2:
        raise ValueError("need at least 2 records")
    return math.floor(math.log2(2.0 * N / math.log2(N)))


def _entry_sort_key(score: float, pa: int):
    # equal scores: smaller set first, then ascending bitmask
    return (score, pa.bit_count(), pa)


def prune_scores(raw: dict[int, float]) -> list[tuple[float, int]]:
    """Keep the possibly-optimal parent sets of a raw (mask -> score) map.

    A set survives only when its score is strictly better than every proper
    subset's; on ties the superset is dropped. The sweep runs in ascending
    cardinality, propagating best-so-far down the lattice, so each set is
    compared against the best of all its subsets. Result sorted ascending.
    """
    best: dict[int, float] = {}
    kept: list[tuple[float, int]] = []
    for pa in sorted(raw, key=int.bit_count):
        s = raw[pa]
        best_sub = math.inf
        for y in bits(pa):
            b = best[pa ^ (1 << y)]
            if b < best_sub:
                best_sub = b
        if s < best_sub or pa == 0:
            kept.append((s, pa))
        best[pa] = min(s, best_sub)
    kept.sort(key=lambda e: _entry_sort_key(*e))
    return kept


def score_parent_sets(data: Dataset, x: int, limit: int) -> dict[int, float]:
    """MDL score of every parent set of x up to the in-degree limit, as a
    (parent mask -> score) map; each equals mdl_local_score's bit for bit.

    The sets are walked depth first, adding parents in ascending index
    order, so a set's joint codes are its prefix's codes plus one column
    times the prefix's cell count: the mixed-radix order of counts(). The
    codes run over the distinct records, each counted with its multiplicity
    as a bincount weight; float64 sums of integer weights are exact. Count
    tables are queued by shape and scored BATCH_CELLS cells at a time.
    """
    if not 0 <= x < data.n:
        raise ValueError(f"variable index {x} out of range")
    if limit < 0:
        raise ValueError("negative parent limit")
    others = [y for y in range(data.n) if y != x]
    limit = min(limit, len(others))
    rx = data.arity[x]
    cols, weights = data.distinct
    penalty_per_config = math.log2(data.N) / 2.0 * (rx - 1)
    raw: dict[int, float] = {}
    queued: dict[int, tuple[list[int], list[np.ndarray]]] = {}

    def flush(npa: int) -> None:
        masks, joints = queued.pop(npa)
        for pa, nh in zip(masks, _nh_bits(np.stack(joints)).tolist()):
            raw[pa] = nh + penalty_per_config * npa

    def visit(pa: int, codes: np.ndarray, npa: int, start: int,
              size: int) -> None:
        masks, joints = queued.setdefault(npa, ([], []))
        masks.append(pa)
        joints.append(np.bincount(codes, weights, minlength=npa * rx)
                      .reshape(npa, rx))
        if len(masks) * npa * rx >= BATCH_CELLS:
            flush(npa)
        if size == limit:
            return
        for j in range(start, len(others)):
            y = others[j]
            child = pa | 1 << y
            check_cell_limit(x, child, npa * data.arity[y] * rx)
            visit(child, codes + cols[y] * (npa * rx),
                  npa * data.arity[y], j + 1, size + 1)

    check_cell_limit(x, 0, rx)
    visit(0, cols[x], 1, 0, 0)
    for npa in list(queued):
        flush(npa)
    return raw


def build_score_table(data: Dataset, x: int, limit: int) -> ScoreTable:
    """Score all parent sets of x up to the in-degree limit and keep the
    possibly-optimal ones (see prune_scores)."""
    return ScoreTable(x, data.n,
                      prune_scores(score_parent_sets(data, x, limit)))


def build_score_tables(
    data: Dataset, max_parents: int | None = None
) -> ScoreSet:
    """Score tables for every variable; the in-degree limit defaults to
    parent_limit(N) and may only be tightened."""
    limit = parent_limit(data.N)
    if max_parents is not None:
        if max_parents > limit:
            raise ValueError(
                f"max parents {max_parents} above the record-count limit {limit}")
        limit = max_parents
    tables = [build_score_table(data, x, limit) for x in range(data.n)]
    return ScoreSet(list(data.names), tables)
