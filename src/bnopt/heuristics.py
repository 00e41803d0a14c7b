"""Admissible heuristics for the order-graph search.

Three classes share one interface (value/size); each builds its data in
__init__ and answers value(U), a lower bound on the distance from the node
U to the goal:

* SimpleHeuristic  -- every remaining variable takes its unconstrained
                      best score; ignores acyclicity entirely.
* DynamicHeuristic -- exact goal distances for all nodes in the last k
                      layers, stored as patterns keyed by the
                      remaining-variable set and combined greedily per
                      query by differential cost.
* StaticHeuristic  -- a fixed partition of the variables; per group the
                      exact cost of every in-group pattern (keyed by its
                      mask) with out-of-group variables always available,
                      so a query is one lookup per group.

Both PDBs, and the exact goal distances, come from one backward sweep,
pattern_costs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .bitset import bits, full_mask, mask_of, popcount
from .parent_store import ScoreTable, best_in

# largest static group: its table holds 2^size entries
GROUP_CAP = 25


class SimpleHeuristic:
    def __init__(self, tables: Sequence[ScoreTable]):
        self.n = tables[0].n
        self.h0 = [t.scores[0] for t in tables]
        self.size = self.n
        self._full = full_mask(self.n)

    def value(self, U: int) -> float:
        """Sum of unconstrained best scores over the variables not yet in U."""
        return float(sum(self.h0[x] for x in bits(self._full & ~U)))


def pattern_cost_exact(P: int, tables: Sequence[ScoreTable]) -> float:
    """Exact cost of a pattern: shortest distance from the node V\\P to the
    goal, by dynamic programming over the 2^|P| sub-lattice above V\\P.

    Reference implementation; pattern_costs below must agree with it.
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


def pattern_costs(
    tables: Sequence[ScoreTable], group: int, k: int,
) -> dict[int, float]:
    """Exact cost of every pattern P within group with |P| <= k, keyed by
    P's mask: cost(P) = min over x in P of BestScore(x, V\\P) +
    cost(P\\{x}), the shortest distance from the node V\\P to the goal
    when only P's variables may still be added.

    Patterns are priced in ascending size, so each one's sub-patterns are
    already in the dict.
    """
    full = full_mask(tables[0].n)
    members = list(bits(group))
    cost = {0: 0.0}
    for size in range(1, min(k, len(members)) + 1):
        for combo in combinations(members, size):
            P = mask_of(combo)
            rest = full & ~P
            cost[P] = min(best_in(tables[x], rest)[0] + cost[P ^ 1 << x]
                          for x in combo)
    return cost


def check_pattern_cap(k: int, n: int) -> None:
    """Raise ValueError unless a dynamic PDB over n variables can take
    pattern size cap k: 2..n, or 1 when there is one variable."""
    if not min(2, n) <= k <= n:
        raise ValueError(f"pattern size cap {k} outside {min(2, n)}..{n}")


class DynamicHeuristic:
    """Dynamic PDB: every pattern of up to k variables (the last k layers of
    the order graph) is priced, and a query covers the unsearched set
    greedily by differential cost.

    patterns maps each stored pattern to (exact cost, differential); a
    pattern is stored only when its differential is positive and differs
    from every immediate sub-pattern's differential (singletons all have
    differential zero and live implicitly in h0). order holds (pattern,
    differential) sorted by descending differential (ties: smaller pattern,
    then ascending bitmask) for the greedy scan. The greedy cover need not
    be consistent, so A* may reopen nodes under it.
    """

    def __init__(self, tables: Sequence[ScoreTable], k: int):
        n = tables[0].n
        check_pattern_cap(k, n)
        self.n = n
        self.h0 = [t.scores[0] for t in tables]
        diffs: dict[int, float] = {}
        self.patterns: dict[int, tuple[float, float]] = {}
        # ascending size: immediate sub-patterns' differentials come first
        for P, cost in pattern_costs(tables, full_mask(n), k).items():
            diff = cost - sum(self.h0[x] for x in bits(P))
            diffs[P] = diff
            if popcount(P) >= 2 and diff > 0.0 and all(
                    diff != diffs[P ^ (1 << x)] for x in bits(P)):
                self.patterns[P] = (cost, diff)
        self.order = [(P, diff) for P, (_, diff) in sorted(
            self.patterns.items(),
            key=lambda it: (-it[1][1], popcount(it[0]), it[0]))]
        self.size = n + len(self.patterns)
        self._full = full_mask(n)

    def value(self, U: int) -> float:
        """Cover the unsearched set with stored patterns, best differential
        first; anything left is covered by singletons.

        One pass over the order suffices: the remaining set only shrinks,
        so a pattern skipped once can never fit later.
        """
        remaining = self._full & ~U
        value = float(sum(self.h0[x] for x in bits(remaining)))
        for P, diff in self.order:
            if P & remaining == P:
                remaining ^= P
                value += diff
                if not remaining:
                    break
        return value


# ------------------------------------------------------------- static PDBs


def default_grouping(n: int) -> list[int]:
    """First ceil(n/2) variables by index in one group, the rest in the
    other; a single variable forms the one group."""
    if n == 1:
        return [1]
    half = (n + 1) // 2
    return [mask_of(range(half)), mask_of(range(half, n))]


def _check_grouping(grouping: Sequence[int], n: int) -> None:
    """Raise ValueError unless the groups partition the n variables and
    each fits under GROUP_CAP."""
    union = 0
    total = 0
    for g in grouping:
        union |= g
        total += popcount(g)
    if union != full_mask(n) or total != n:
        raise ValueError(f"groups do not partition the {n} variables")
    for g in grouping:
        if popcount(g) > GROUP_CAP:
            raise ValueError(
                f"group of {popcount(g)} variables exceeds the size cap "
                f"{GROUP_CAP} (2^{popcount(g)} table entries)")


def parse_grouping(text: str, n: int) -> list[int]:
    """Parse CLI grouping syntax: 'auto' or comma-separated 1-based runs
    and indices like '1-4,5-8', and check the result with _check_grouping."""
    if text == "auto":
        return default_grouping(n)
    groups = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty group in {text!r}")
        lo, dash, hi = part.partition("-")
        if not lo.isdecimal() or dash and not hi.isdecimal():
            raise ValueError(f"--groups: group {part!r} is not a 1-based "
                             "index or run like '1-4'")
        idxs = range(int(lo) - 1, int(hi) if dash else int(lo))
        if not idxs:
            raise ValueError(f"empty group in {text!r}")
        if any(not 0 <= i < n for i in idxs):
            raise ValueError(f"group {part!r} has variables outside 1..{n}")
        groups.append(mask_of(idxs))
    _check_grouping(groups, n)
    return groups


class StaticHeuristic:
    """Static PDB: a fixed partition of the variables into groups. Per
    group, costs holds the exact cost of every subset of the group, keyed
    by the pattern's mask, with out-of-group variables always usable as
    parents; a query is one lookup per group."""

    def __init__(self, tables: Sequence[ScoreTable], grouping: Sequence[int]):
        n = tables[0].n
        _check_grouping(grouping, n)
        self.n = n
        self.groups = list(grouping)
        # one pattern-cost sweep per group over its full subset lattice
        self.costs = [pattern_costs(tables, g, popcount(g))
                      for g in self.groups]
        self.size = sum(len(c) for c in self.costs)

    def value(self, U: int) -> float:
        """Sum over groups of the cost of the group's not-yet-searched
        part."""
        total = 0.0
        for g, cost in zip(self.groups, self.costs):
            total += cost[g & ~U]
        return total
