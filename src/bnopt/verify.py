"""Exhaustive invariant checks at small n, used by the verify command.

Every check walks the complete order graph or candidate-set lattice, so
callers must keep n within the guard. Checks report human-readable
violations with a concrete counterexample instead of raising.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from .bitset import bits, format_set, full_mask
from .heuristics import (DynamicHeuristic, SimpleHeuristic, StaticHeuristic,
                         default_grouping, pattern_cost_exact)
from .parent_store import ScoreSet, best_in
from .search import exact_distances_to_goal

# dataset and scoring load numpy; only a data-file check imports them, so
# verifying a score file never loads numpy
if TYPE_CHECKING:
    from .dataset import Dataset

TOL = 1e-9
DYNAMIC_K = (2, 3)


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
                if abs(got[0] - brute) > TOL:
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
    bounds = [("simple", SimpleHeuristic(tables)), *dynamic,
              ("static auto", StaticHeuristic(tables, default_grouping(n)))]
    values = [(label, array("d", map(h.value, range(1 << n))))
              for label, h in bounds]
    for label, hv in values:
        for U in range(1 << n):
            if hv[U] > dist[U] + TOL:
                out.append(f"admissibility: {label} overestimates at "
                           f"{format_set(U, scores.names)}: {hv[U]} > "
                           f"{dist[U]}")
                break
    simple = values[0][1]
    for label, hv in values[1:]:
        for U in range(1 << n):
            if hv[U] < simple[U] - TOL:
                out.append(f"dominance: {label} below the simple bound at "
                           f"{format_set(U, scores.names)}")
                break
    for label, hv in (values[0], values[-1]):
        for U in range(1 << n):
            for x in bits(full & ~U):
                if hv[U] > best_in(tables[x], U)[0] + hv[U | 1 << x] + TOL:
                    out.append(f"consistency: {label} violates the arc "
                               f"inequality at {format_set(U, scores.names)} "
                               f"+ {scores.names[x]}")
    for label, h in dynamic:
        for P, (cost, _) in h.patterns.items():
            exact = pattern_cost_exact(P, tables)
            if abs(cost - exact) > TOL:
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
