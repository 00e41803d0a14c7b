"""Admissible heuristics for the order-graph search.

Three classes share one interface (value/size); each builds its data in
__init__ and answers value(U), a lower bound on the distance from the node
U to the goal:

* SimpleHeuristic  -- every remaining variable takes its unconstrained
                      best score, ignoring acyclicity: the dynamic PDB
                      at k = 1, which stores no pattern.
* DynamicHeuristic -- exact goal distances for all nodes in the last k
                      layers, stored as patterns keyed by the
                      remaining-variable set and combined greedily per
                      query by differential cost, in one pass over them.
* StaticHeuristic  -- a fixed partition of the variables; per group the
                      exact cost of every in-group pattern (keyed by its
                      mask) with out-of-group variables always available,
                      so a query is one lookup per group.

Both PDBs, and verify's exact goal distances, come from one backward
sweep, pattern_costs.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

from .bitset import bits, full_mask, mask_of
from .parent_store import G_EPS, ScoreTable, best_in, ordered_sum

# largest static group: its table holds 2^size entries; a dynamic PDB may
# price no more patterns than that
GROUP_CAP = 25

# bytes a PDB build takes per pattern it prices, checked against the memory
# budget before the build: the tracemalloc peak on Python 3.11 was 90-97 B
# for a static group's table (a dict slot, an int key, a float) and
# 135-208 B for the dynamic PDB, which also holds every differential
PDB_ENTRY_BYTES = 220


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


def check_pattern_cap(k: int, n: int, least: int = 2) -> int:
    """The patterns of at most k of n variables, the empty one included,
    that the dynamic PDB prices; raise ValueError unless k may cap the
    pattern size: min(least, n)..n, pricing at most 2^GROUP_CAP patterns.
    --k keeps the default least = 2, since k = 1 is --heuristic simple."""
    least = min(least, n)
    if not least <= k <= n:
        raise ValueError(f"pattern size cap {k} outside {least}..{n}")
    count = sum(math.comb(n, i) for i in range(k + 1))
    if count > 1 << GROUP_CAP:
        raise ValueError(f"pattern size cap {k} over {n} variables prices "
                         f"{count} patterns, over the cap 2^{GROUP_CAP}")
    return count


class DynamicHeuristic:
    """Dynamic PDB: every pattern of up to k variables (the last k layers of
    the order graph) is priced, and a query covers the unsearched set
    greedily by differential cost.

    patterns maps each stored pattern to (exact cost, differential); a
    pattern is stored only when its differential is positive and differs
    from every immediate sub-pattern's by more than the tie band G_EPS
    relative to its cost, since differently ordered sums of tied
    differentials may differ in the last bits (singletons all have
    differential zero and live implicitly in h0). order holds (pattern,
    differential) sorted by descending differential (ties: smaller pattern,
    then ascending bitmask) for the one-pass greedy cover, which need not
    be consistent, so A* may reopen nodes under it.
    """

    def __init__(self, tables: Sequence[ScoreTable], k: int):
        n = tables[0].n
        check_pattern_cap(k, n, least=1)
        self.h0 = [t.entries[0][0] for t in tables]
        diffs: dict[int, float] = {}
        self.patterns: dict[int, tuple[float, float]] = {}
        # ascending size: immediate sub-patterns' differentials come first
        for P, cost in pattern_costs(tables, full_mask(n), k).items():
            diff = cost - ordered_sum(self.h0[x] for x in bits(P))
            diffs[P] = diff
            tie = G_EPS * max(1.0, abs(cost))
            if P.bit_count() >= 2 and diff > 0.0 and all(
                    abs(diff - diffs[P ^ 1 << x]) > tie for x in bits(P)):
                self.patterns[P] = (cost, diff)
        self.order = [(P, diff) for P, (_, diff) in sorted(
            self.patterns.items(),
            key=lambda it: (-it[1][1], it[0].bit_count(), it[0]))]
        self.size = n + len(self.patterns)
        self._singles = [(1 << x, h) for x, h in enumerate(self.h0)]

    def value(self, U: int) -> float:
        """Singletons for the unsearched set, added in ascending variable
        order, plus a greedy cover of it by stored patterns: one pass over
        order, best differential first, takes each pattern disjoint from
        U and from the patterns already taken."""
        value = 0.0
        for bit, h in self._singles:
            if not U & bit:
                value += h
        covered = U
        for P, diff in self.order:
            if not P & covered:
                covered |= P
                value += diff
        return value


class SimpleHeuristic(DynamicHeuristic):
    """The dynamic PDB at k = 1: no pattern is stored, so a query is the
    sum of h0 over the unsearched set, added in ascending order."""

    def __init__(self, tables: Sequence[ScoreTable]):
        super().__init__(tables, 1)


# ------------------------------------------------------------- static PDBs


def default_grouping(n: int) -> list[int]:
    """First ceil(n/2) variables by index in one group, the rest in the
    other; a single variable forms the one group."""
    if n == 1:
        return [1]
    half = (n + 1) // 2
    return [mask_of(range(half)), mask_of(range(half, n))]


def _check_grouping(grouping: Sequence[int], n: int) -> Sequence[int]:
    """grouping, after raising ValueError unless the groups partition the
    n variables and each fits under GROUP_CAP."""
    union = 0
    total = 0
    for g in grouping:
        union |= g
        total += g.bit_count()
    if union != full_mask(n) or total != n:
        raise ValueError(f"groups do not partition the {n} variables")
    for g in grouping:
        size = g.bit_count()
        if size > GROUP_CAP:
            raise ValueError(
                f"group of {size} variables exceeds the size cap "
                f"{GROUP_CAP} (2^{size} table entries)")
    return grouping


def parse_grouping(text: str, n: int) -> list[int]:
    """Parse CLI grouping syntax, 'auto' (default_grouping) or 1-based
    runs and indices like '1-4,5-8', and check it with _check_grouping."""
    if text == "auto":
        return _check_grouping(default_grouping(n), n)
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
    return _check_grouping(groups, n)


class StaticHeuristic:
    """Static PDB: a fixed partition of the variables into groups. Per
    group, costs holds the exact cost of every subset of the group, keyed
    by the pattern's mask, with out-of-group variables always usable as
    parents; a query is one lookup per group."""

    def __init__(self, tables: Sequence[ScoreTable], grouping: Sequence[int]):
        self.groups = list(_check_grouping(grouping, tables[0].n))
        # one pattern-cost sweep per group over its full subset lattice
        self.costs = [pattern_costs(tables, g, g.bit_count())
                      for g in self.groups]
        self.size = sum(len(c) for c in self.costs)

    def value(self, U: int) -> float:
        """Sum over groups of the cost of the group's not-yet-searched
        part."""
        total = 0.0
        for g, cost in zip(self.groups, self.costs):
            total += cost[g & ~U]
        return total
