"""Independent reference computations used by the tests.

Everything here is written from first principles with plain dicts and
loops so it shares no code path with the package: per-cell CSV ingest,
entropy-based local scores, parent-set pruning, brute-force best-score
queries, the one-pass greedy dynamic-PDB cover, subset-lattice shortest
paths and full DAG enumeration.
"""

import csv
import itertools
import math


def ingest(path, missing=("?", ""), header=True):
    """(names, arity, rows) of a comma-separated file of two or more
    columns, one cell at a time: strip every cell, test it for a missing
    token, drop incomplete rows, then code each column (finite floats
    split at their row-order mean, anything else categorical in
    first-appearance order). An input error raises ValueError with the
    text load_dataset gives."""
    def fail(what):
        raise ValueError(f"{path}: {what}")

    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            records = [r for r in csv.reader(f) if r]
    except UnicodeDecodeError as e:
        fail(f"not utf-8 text ({e.reason})")
    if not records:
        fail("no records")
    if header:
        names = [t.strip() for t in records[0]]
    else:
        names = [f"X{i + 1}" for i in range(len(records[0]))]
    for i in range(len(names)):
        if names[i] in names[:i]:
            fail(f"header names column {names[i]!r} twice")
    if len(names) < 2:
        fail("one column; a data file needs at least two, a score file its "
             "'n <count>' header")
    first_row = 2 if header else 1
    records = records[first_row - 1:]
    if not records:
        fail("no records")
    table = []
    for number, rec in enumerate(records, first_row):
        if len(rec) != len(names):
            fail(f"row {number} has {len(rec)} cells, expected {len(names)}")
        row = []
        for token in rec:
            token = token.strip()
            row.append(None if token in missing else token)
        table.append(row)
    table = [row for row in table if None not in row]
    if not table:
        fail("all records incomplete: empty dataset")
    columns, arity = [], []
    for j, name in enumerate(names):
        tokens = [row[j] for row in table]
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            values = None
        if values is not None and all(math.isfinite(v) for v in values):
            mean = 0.0
            for v in values:
                mean += v
            mean /= len(values)
            codes = [0 if v < mean else 1 for v in values]
        else:
            order = []
            for t in tokens:
                if t not in order:
                    order.append(t)
            codes = [order.index(t) for t in tokens]
        if len(set(codes)) < 2:
            fail(f"column {name!r} is constant")
        columns.append(codes)
        arity.append(len(set(codes)))
    return names, arity, [list(r) for r in zip(*columns)]


def local_score(rows, arity, x, pa):
    """MDL local score from raw value-index rows: N*H(x|pa) + penalty."""
    pa = tuple(sorted(pa))
    joint = {}
    for r in rows:
        key = (r[x],) + tuple(r[y] for y in pa)
        joint[key] = joint.get(key, 0) + 1
    pac = {}
    for key, c in joint.items():
        pac[key[1:]] = pac.get(key[1:], 0) + c
    nh = 0.0
    for key, c in joint.items():
        nh -= c * math.log2(c / pac[key[1:]])
    k = arity[x] - 1
    for y in pa:
        k *= arity[y]
    return nh + math.log2(len(rows)) / 2.0 * k


def all_scores(rows, arity, x, limit):
    """Raw (frozenset -> score) map over every in-limit parent set of x."""
    n = len(arity)
    others = [y for y in range(n) if y != x]
    out = {}
    for k in range(min(limit, len(others)) + 1):
        for pa in itertools.combinations(others, k):
            out[frozenset(pa)] = local_score(rows, arity, x, pa)
    return out


def prune_scores(raw):
    """Keep the possibly-optimal parent sets of a raw (mask -> score) map,
    as a list of (score, mask) pairs.

    A set survives only when its score is strictly better than every proper
    subset's; on ties the superset is dropped. The sweep runs in ascending
    cardinality, propagating best-so-far down the lattice, so each set is
    compared against the best of all its subsets. Result sorted ascending
    by score, then by set size, then by mask.
    """
    best = {}
    kept = []
    for pa in sorted(raw, key=int.bit_count):
        s = raw[pa]
        best_sub = math.inf
        for y in range(pa.bit_length()):
            if pa >> y & 1 and best[pa ^ 1 << y] < best_sub:
                best_sub = best[pa ^ 1 << y]
        if s < best_sub or pa == 0:
            kept.append((s, pa))
        best[pa] = min(s, best_sub)
    kept.sort(key=lambda e: (e[0], e[1].bit_count(), e[1]))
    return kept


def best_score(raw, cands):
    """Brute-force min over all scored subsets of cands."""
    best = math.inf
    for pa, s in raw.items():
        if pa <= cands and s < best:
            best = s
    return best


def distances_to_goal(raw_per_var, n):
    """Backward DP over the full subset lattice: frozenset -> distance."""
    V = frozenset(range(n))
    dist = {V: 0.0}
    for size in range(n - 1, -1, -1):
        for u in itertools.combinations(range(n), size):
            U = frozenset(u)
            dist[U] = min(
                best_score(raw_per_var[x], U) + dist[U | {x}] for x in V - U)
    return dist


def optimal_by_dag_enumeration(rows, arity):
    """Global optimum by scoring every labeled DAG (feasible for n <= 4)."""
    n = len(arity)
    choices = []
    for x in range(n):
        others = [y for y in range(n) if y != x]
        choices.append([c for k in range(n)
                        for c in itertools.combinations(others, k)])
    best = math.inf
    count = 0
    for combo in itertools.product(*choices):
        if not _is_acyclic(combo, n):
            continue
        count += 1
        total = sum(local_score(rows, arity, x, combo[x]) for x in range(n))
        if total < best:
            best = total
    return best, count


def is_acyclic(parents):
    """Whether per-variable parent bitmasks (a learned network's parents)
    form a DAG."""
    n = len(parents)
    return _is_acyclic([[y for y in range(n) if p >> y & 1] for p in parents],
                       n)


def _is_acyclic(parent_lists, n):
    indeg = [len(p) for p in parent_lists]
    children = [[] for _ in range(n)]
    for x, ps in enumerate(parent_lists):
        for y in ps:
            children[y].append(x)
    queue = [x for x in range(n) if indeg[x] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return seen == n


def fitting_minimum(scores, parent_sets, cands):
    """Order-independent BestScore: the least (score, parent mask) over
    every entry whose parents all lie inside the candidate mask."""
    return min((s, pa) for s, pa in zip(scores, parent_sets)
               if pa & ~cands == 0)


def greedy_order(diffs):
    """Stored dynamic-PDB patterns (mask -> differential) in greedy order:
    descending differential, then fewer variables, then ascending mask."""
    return sorted(diffs.items(),
                  key=lambda it: (-it[1], bin(it[0]).count("1"), it[0]))


def greedy_cover(order, h0, U):
    """One-pass greedy dynamic-PDB value of node U: the singletons of the
    variables outside U added in ascending order (as sum() adds them up to
    Python 3.11), then, in order, the differential of every pattern that
    still fits inside the uncovered variables."""
    remaining = 0
    value = 0.0
    for x in range(len(h0)):
        if not U >> x & 1:
            remaining |= 1 << x
            value += h0[x]
    for P, diff in order:
        if P & remaining == P:
            remaining ^= P
            value += diff
            if not remaining:
                break
    return value
