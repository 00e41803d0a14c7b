"""Exhaustive invariant checks at small n, used by the verify command.

Every check walks the complete order graph or candidate-set lattice, so
callers must keep n within the guard. Checks report human-readable
violations with a concrete counterexample instead of raising.
"""

from __future__ import annotations

from itertools import combinations

from .bitset import bits, format_set, full_mask, is_subset, mask_of
from .dataset import Dataset
from .heuristics import (DynamicHeuristic, SimpleHeuristic, StaticHeuristic,
                         default_grouping, pattern_cost_exact)
from .parent_store import (ScoreSet, best_in, best_score_naive, cursor_best,
                           cursor_exclude, cursor_new)
from .scoring import mdl_local_score, parent_limit
from .search import exact_distances_to_goal

TOL = 1e-9


def check_table_shape(scores: ScoreSet) -> list[str]:
    """Antichain after pruning: no kept set scores no better than one of
    its subsets (ScoreTable.from_entries has checked the ascending order
    and the empty parent set when the table was built)."""
    out = []
    for name, t in zip(scores.names, scores.tables):
        for i, pi in enumerate(t.parent_sets):
            for j, pj in enumerate(t.parent_sets):
                if i != j and pi != pj and is_subset(pi, pj) \
                        and t.scores[i] <= t.scores[j]:
                    out.append(
                        f"table {name}: {format_set(pj, scores.names)} kept "
                        f"although subset {format_set(pi, scores.names)} "
                        "scores no worse")
    return out


def check_cursor_equivalence(scores: ScoreSet, data: Dataset | None = None,
                             ) -> list[str]:
    """For every variable and candidate pool: one-shot bit query == cursor
    chain (both exclusion orders) == first-hit scan == full-scan minimum,
    and == brute-force score minimum when the raw data is available."""
    out = []
    n = scores.n
    raw = None
    limit = None
    if data is not None:
        limit = parent_limit(data.N)
        raw = [{pa: mdl_local_score(data, x, pa)
                for k in range(min(limit, n - 1) + 1)
                for pa in map(mask_of, combinations(
                    [y for y in range(n) if y != x], k))}
               for x in range(n)]
    for x, t in enumerate(scores.tables):
        others = [y for y in range(n) if y != x]
        for m in range(1 << len(others)):
            cands = mask_of(others[j] for j in range(len(others)) if m >> j & 1)
            got = best_in(t, cands)
            naive = best_score_naive(t, cands)
            excl = [y for y in others if not cands >> y & 1]
            c_fwd = cursor_new(t)
            for y in excl:
                c_fwd = cursor_exclude(c_fwd, y)
            c_rev = cursor_new(t)
            for y in reversed(excl):
                c_rev = cursor_exclude(c_rev, y)
            full_min = min((s, pa) for s, pa in zip(t.scores, t.parent_sets)
                           if is_subset(pa, cands))
            where = (f"variable {scores.names[x]}, candidates "
                     f"{format_set(cands, scores.names)}")
            if not (got == naive == cursor_best(c_fwd) == cursor_best(c_rev)):
                out.append(f"cursor-equivalence: query paths disagree at {where}: "
                           f"bit={got} naive={naive} fwd={cursor_best(c_fwd)} "
                           f"rev={cursor_best(c_rev)}")
            elif got[0] != full_min[0]:
                out.append(f"cursor-equivalence: first hit {got[0]} is not the "
                           f"list minimum {full_min[0]} at {where}")
            elif raw is not None:
                brute = min(s for pa, s in raw[x].items()
                            if is_subset(pa, cands))
                if abs(got[0] - brute) > TOL:
                    out.append(f"cursor-equivalence: sparse store gives "
                               f"{got[0]}, exhaustive rescoring gives {brute} "
                               f"at {where}")
    return out


def check_heuristics(scores: ScoreSet, k_values=(2, 3)) -> list[str]:
    """Admissibility, dominance over the simple bound, arc consistency of
    the simple and static bounds, and exact pattern costs."""
    out = []
    tables = scores.tables
    n = scores.n
    full = full_mask(n)
    dist = exact_distances_to_goal(tables)
    simple = SimpleHeuristic(tables)
    providers: list[tuple[str, object]] = [("simple", simple)]
    for k in k_values:
        if 2 <= k <= n:
            providers.append((f"dynamic k={k}", DynamicHeuristic(tables, k)))
    static = StaticHeuristic(tables, default_grouping(n))
    providers.append(("static auto", static))
    for label, h in providers:
        for U in range(1 << n):
            v = h.value(U)
            if v > dist[U] + TOL:
                out.append(f"admissibility: {label} overestimates at "
                           f"{format_set(U, scores.names)}: {v} > {dist[U]}")
                break
    for label, h in providers[1:]:
        for U in range(1 << n):
            if h.value(U) < simple.value(U) - TOL:
                out.append(f"dominance: {label} below the simple bound at "
                           f"{format_set(U, scores.names)}")
                break
    for label, h in [("simple", simple), ("static auto", static)]:
        for U in range(1 << n):
            hu = h.value(U)
            for x in bits(full & ~U):
                arc = best_in(tables[x], U)[0]
                if hu > arc + h.value(U | 1 << x) + TOL:
                    out.append(f"consistency: {label} violates the arc "
                               f"inequality at {format_set(U, scores.names)} "
                               f"+ {scores.names[x]}")
    for label, h in providers[1:]:
        if not isinstance(h, DynamicHeuristic):
            continue
        for P, (cost, _) in h.patterns.items():
            exact = pattern_cost_exact(P, tables)
            direct = dist[full & ~P]
            if abs(cost - exact) > TOL or abs(cost - direct) > TOL:
                out.append(f"pattern cost: {label} stores {cost} for "
                           f"{format_set(P, scores.names)}, exact {exact}")
    return out


def run_all(scores: ScoreSet, data: Dataset | None = None,
            max_n: int = 10) -> tuple[bool, list[str]]:
    """All exhaustive checks; (ok, report lines)."""
    if scores.n > max_n:
        raise ValueError(
            f"{scores.n} variables exceed the exhaustive-check guard "
            f"{max_n}; raise --max-n to force")
    lines = []
    ok = True
    checks = [("table shape", check_table_shape(scores)),
              ("cursor equivalence", check_cursor_equivalence(scores, data)),
              ("heuristics", check_heuristics(scores))]
    for label, violations in checks:
        if violations:
            ok = False
            lines.append(f"FAIL {label} ({len(violations)} violation(s))")
            lines.extend("  " + v for v in violations[:20])
        else:
            lines.append(f"PASS {label}")
    return ok, lines
