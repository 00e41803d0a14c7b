"""Correctness gate for ``bnopt learn`` reports, independent of bnopt.

The reference optimum comes from a forward dynamic program over all 2^n
order-graph nodes, vectorized with numpy, on the score file that
``bnopt score`` wrote for the same input. No bnopt code is used here, so a
defect shared by the solvers and ``bnopt.dp_oracle`` still shows.
"""

from __future__ import annotations

import json

import numpy as np

REL_TOL = 1e-9
MAX_VARS = 20  # 2^n float64 per variable in the reference program


class ScoreFile:
    """Parsed score file: variable names and, per variable, a map from
    parent-set bitmask to its score."""

    def __init__(self, path):
        with open(path) as f:
            lines = [ln.split() for ln in f if ln.strip()]
        if not lines or lines[0][0] != "n":
            raise ValueError(f"{path}: missing 'n <count>' header")
        n = int(lines[0][1])
        blocks = []
        pos = 1
        for _ in range(n):
            head = lines[pos]
            if head[0] != "var":
                raise ValueError(f"{path}: expected a 'var' line, got {head}")
            m = int(head[2])
            blocks.append((head[1], lines[pos + 1:pos + 1 + m]))
            pos += 1 + m
        self.names = [name for name, _ in blocks]
        index = {nm: i for i, nm in enumerate(self.names)}
        self.tables: list[dict[int, float]] = []
        for name, entries in blocks:
            table = {}
            for toks in entries:
                if len(toks) != 2 + int(toks[1]):
                    raise ValueError(f"{path}: bad entry {toks} of {name}")
                mask = 0
                for t in toks[2:]:
                    mask |= 1 << index[t]
                table[mask] = float(toks[0])
            self.tables.append(table)

    @property
    def n(self) -> int:
        return len(self.names)

    def entries(self) -> int:
        return sum(len(t) for t in self.tables)


def reference_optimum(sf: ScoreFile) -> float:
    """Minimum total score over all DAGs whose parent sets are table
    entries: best[x, U] is the best entry of x inside U (a subset-min
    transform), then dist[U] = min over x in U of dist[U-x] + best[x, U-x],
    layer by layer in popcount order."""
    n = sf.n
    if n > MAX_VARS:
        raise ValueError(f"reference program limited to {MAX_VARS} variables")
    size = 1 << n
    best = np.full((n, size), np.inf)
    for x, table in enumerate(sf.tables):
        for mask, score in table.items():
            if mask >> x & 1:
                raise ValueError(f"{sf.names[x]} lists itself as a parent")
            best[x, mask] = min(best[x, mask], score)
    for b in range(n):
        v = best.reshape(n, -1, 2, 1 << b)
        np.minimum(v[:, :, 1, :], v[:, :, 0, :], out=v[:, :, 1, :])
    masks = np.arange(size, dtype=np.int64)
    layers = np.zeros(size, dtype=np.int64)  # popcount of each mask
    for b in range(n):
        layers += masks >> b & 1
    dist = np.full(size, np.inf)
    dist[0] = 0.0
    for k in range(1, n + 1):
        layer = masks[layers == k]
        d = np.full(layer.size, np.inf)
        for x in range(n):
            has = (layer >> x & 1).astype(bool)
            prev = layer[has] ^ (1 << x)
            d[has] = np.minimum(d[has], dist[prev] + best[x, prev])
        dist[layer] = d
    return float(dist[-1])


def _is_dag(parents: list[int]) -> bool:
    n = len(parents)
    indeg = [bin(p).count("1") for p in parents]
    children = [[x for x in range(n) if parents[x] >> y & 1] for y in range(n)]
    ready = [x for x in range(n) if indeg[x] == 0]
    seen = 0
    while ready:
        y = ready.pop()
        seen += 1
        for x in children[y]:
            indeg[x] -= 1
            if indeg[x] == 0:
                ready.append(x)
    return seen == n


def report_problems(stdout: bytes, sf: ScoreFile, ref: float) -> list[str]:
    """Every way the report misses the contract; empty when it is correct."""
    try:
        rep = json.loads(stdout)
        total = float(rep["total_score"])
        by_name = rep["parents"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable report: {e}"]
    if list(by_name) != sf.names:
        return [f"variables {list(by_name)} differ from {sf.names}"]
    index = {nm: i for i, nm in enumerate(sf.names)}
    problems = []
    parents = []
    entry_sum = 0.0
    for x, name in enumerate(sf.names):
        mask = 0
        for p in by_name[name]:
            if p not in index:
                problems.append(f"{name} has unknown parent {p!r}")
                continue
            mask |= 1 << index[p]
        parents.append(mask)
        if mask not in sf.tables[x]:
            problems.append(f"parents {by_name[name]} of {name} are not a "
                            "table entry")
        else:
            entry_sum += sf.tables[x][mask]
    tol = REL_TOL * abs(ref)
    if not abs(total - ref) <= tol:
        problems.append(f"total_score {total!r} is not the optimum {ref!r}")
    if not problems and not abs(entry_sum - total) <= tol:
        problems.append(f"entry scores sum to {entry_sum!r}, "
                        f"not total_score {total!r}")
    if not _is_dag(parents):
        problems.append("parents form a directed cycle")
    return problems
