"""Exhaustive references and the checks built on them.

dp_oracle and exact_distances_to_goal walk all 2^n nodes and refuse n
above DP_MAX_VARS; the checks walk as many, so callers keep n within it.
Checks report violations with a concrete counterexample instead of raising.
They compare sums within parent_store.tie_band of the reference value, as
the searches do, so no verdict depends on the scale of the scores.
"""

from __future__ import annotations

import math
from array import array
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .bitset import bits, format_set, full_mask, mask_of
from .heuristics import (DynamicHeuristic, SimpleHeuristic, StaticHeuristic,
                         default_grouping, pattern_costs)
from .parent_store import ScoreSet, ScoreTable, best_in, tie_band
from .search import LearnedNetwork, _order_from_preds, reconstruct

# dataset and scoring load numpy; only a data-file check imports them, so
# verifying a score file never loads numpy
if TYPE_CHECKING:
    from .dataset import Dataset

DP_MAX_VARS = 20
DYNAMIC_K = (2, 3)


def check_exhaustive(n: int) -> None:
    """Raise ValueError when n exceeds DP_MAX_VARS (read at each call)."""
    if n > DP_MAX_VARS:
        raise ValueError(f"{n} variables exceed the exhaustive limit "
                         f"{DP_MAX_VARS}")


def dp_oracle(tables: Sequence[ScoreTable]) -> tuple[LearnedNetwork, float]:
    """Forward dynamic programming over all 2^n nodes; exact optimum."""
    n = tables[0].n
    check_exhaustive(n)
    size = 1 << n
    dist = array("d", [math.inf]) * size
    dist[0] = 0.0
    predv = array("b", [-1]) * size
    for U in range(size):
        d = dist[U]
        for x in bits((size - 1) & ~U):
            nd = d + best_in(tables[x], U)[0]
            child = U | 1 << x
            if nd < dist[child]:
                dist[child] = nd
                predv[child] = x
    opt = dist[size - 1]
    net = reconstruct(tables, _order_from_preds(predv.__getitem__, size - 1),
                      opt)
    return net, opt


def exact_distances_to_goal(tables: Sequence[ScoreTable]) -> list[float]:
    """Backward DP; entry [U] is the shortest distance from node U to the
    goal (indexed by bitmask), i.e. the cost of the pattern V\\U."""
    n = tables[0].n
    check_exhaustive(n)
    full = full_mask(n)
    cost = pattern_costs(tables, full, n)
    return [cost[full ^ U] for U in range(1 << n)]


def pattern_cost_exact(P: int, tables: Sequence[ScoreTable]) -> float:
    """Exact cost of a pattern: shortest distance from the node V\\P to the
    goal, by dynamic programming over the 2^|P| sub-lattice above V\\P.

    Reference implementation; heuristics.pattern_costs must agree with it.
    """
    if P == 0:
        raise ValueError("empty pattern")
    n = tables[0].n
    base = full_mask(n) & ~P
    dist = {0: 0.0}
    members = list(bits(P))
    for size in range(len(members)):
        for combo in combinations(members, size):
            S = mask_of(combo)
            d = dist[S]
            for x in members:
                if S >> x & 1:
                    continue
                nd = d + best_in(tables[x], base | S)[0]
                child = S | 1 << x
                if child not in dist or nd < dist[child]:
                    dist[child] = nd
    return dist[P]


def check_table_shape(scores: ScoreSet) -> list[str]:
    """Antichain after pruning: no kept set scores no better than one of
    its subsets (the ScoreTable constructor has checked the ascending
    order and the empty parent set)."""
    out = []
    for name, t in zip(scores.names, scores.tables):
        for si, pi in t.entries:
            for sj, pj in t.entries:
                if pi != pj and pi & ~pj == 0 and si <= sj:
                    out.append(
                        f"table {name}: {format_set(pj, scores.names)} kept "
                        f"although subset {format_set(pi, scores.names)} "
                        "scores no worse")
    return out


def check_best_score(scores: ScoreSet,
                     data: Dataset | None = None) -> list[str]:
    """For every variable and candidate pool, in ascending mask order:
    best_in answers a fitting entry scoring the full-scan minimum, and the
    brute-force score minimum when the raw data is available."""
    out = []
    n = scores.n
    where = lambda x, cands: (f"variable {scores.names[x]}, candidates "
                              f"{format_set(cands, scores.names)}")
    raw = None
    if data is not None:
        from .scoring import mdl_local_score, parent_limit
        limit = parent_limit(data.N)
        raw = [{pa: mdl_local_score(data, x, pa) for pa in range(1 << n)
                if not pa >> x & 1 and pa.bit_count() <= limit}
               for x in range(n)]
    for x, t in enumerate(scores.tables):
        for cands in range(1 << n):
            if cands >> x & 1:
                continue
            got = best_in(t, cands)
            full_min = min(s for s, pa in t.entries if pa & ~cands == 0)
            if got[0] != full_min or got[1] & ~cands:
                out.append(f"best-score: first hit {got} is not a fitting "
                           f"list minimum {full_min} at {where(x, cands)}")
            elif raw is not None:
                brute = min(s for pa, s in raw[x].items()
                            if pa & ~cands == 0)
                if abs(got[0] - brute) > tie_band(brute):
                    out.append(f"best-score: sparse store gives {got[0]}, "
                               f"exhaustive rescoring gives {brute} at "
                               f"{where(x, cands)}")
    return out


def check_heuristics(scores: ScoreSet) -> list[str]:
    """Admissibility, dominance over the simple bound, arc consistency of
    the simple and static bounds, and exact pattern costs."""
    out = []
    tables = scores.tables
    n = scores.n
    full = full_mask(n)
    dist = exact_distances_to_goal(tables)
    dynamic = [(f"dynamic k={k}", DynamicHeuristic(tables, k))
               for k in DYNAMIC_K if k <= n]
    static = StaticHeuristic(tables, default_grouping(n))
    bounds = [("simple", SimpleHeuristic(tables)), *dynamic,
              ("static auto", static)]
    values = [(label, array("d", map(h.value, range(1 << n))))
              for label, h in bounds]
    for label, hv in values:
        for U in range(1 << n):
            if hv[U] > dist[U] + tie_band(dist[U]):
                out.append(f"admissibility: {label} overestimates at "
                           f"{format_set(U, scores.names)}: {hv[U]} > "
                           f"{dist[U]}")
                break
    simple = values[0][1]
    for label, hv in values[1:]:
        for U in range(1 << n):
            if hv[U] < simple[U] - tie_band(simple[U]):
                out.append(f"dominance: {label} below the simple bound at "
                           f"{format_set(U, scores.names)}")
                break
    for label, hv in (values[0], values[-1]):
        for U in range(1 << n):
            for x in bits(full & ~U):
                via_x = best_in(tables[x], U)[0] + hv[U | 1 << x]
                if hv[U] > via_x + tie_band(via_x):
                    out.append(f"consistency: {label} violates the arc "
                               f"inequality at {format_set(U, scores.names)} "
                               f"+ {scores.names[x]}")
    stored = [(label, P, cost) for label, h in dynamic
              for P, (cost, _) in h.patterns.items()]
    stored += [("static auto", P, cost) for costs in static.costs
               for P, cost in costs.items() if P]
    for label, P, cost in stored:
        exact = pattern_cost_exact(P, tables)
        if abs(cost - exact) > tie_band(exact):
            out.append(f"pattern cost: {label} stores {cost} for "
                       f"{format_set(P, scores.names)}, exact {exact}")
    return out


def run_all(scores: ScoreSet, data: Dataset | None = None,
            ) -> tuple[bool, list[str]]:
    """All exhaustive checks; (ok, report lines)."""
    lines = []
    ok = True
    checks = [("table shape", check_table_shape(scores)),
              ("best score", check_best_score(scores, data)),
              ("heuristics", check_heuristics(scores))]
    for label, violations in checks:
        if violations:
            ok = False
            lines.append(f"FAIL {label} ({len(violations)} violation(s))")
            lines.extend("  " + v for v in violations[:20])
        else:
            lines.append(f"PASS {label}")
    return ok, lines
