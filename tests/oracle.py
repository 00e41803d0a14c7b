"""Independent reference computations used by the tests.

Everything here is written from first principles with plain dicts and
loops so it shares no code path with the package: entropy-based local
scores, brute-force best-score queries, the one-pass greedy dynamic-PDB
cover, subset-lattice shortest paths and full DAG enumeration.
"""

import itertools
import math


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
