"""Admissible heuristics for the order-graph search.

Three providers share one interface (value/consistent/size):

* simple      -- every remaining variable takes its unconstrained best
                 score; ignores acyclicity entirely.
* dynamic PDB -- exact goal distances for all nodes in the last k layers,
                 stored as patterns keyed by the remaining-variable set and
                 combined greedily per query by differential cost.
* static PDB  -- a fixed partition of the variables; per group the exact
                 cost of every in-group pattern (keyed by its mask) with
                 out-of-group variables always available, so a query is one
                 lookup per group.

Both PDBs, and the exact goal distances, come from one backward sweep,
pattern_costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .bitset import bits, full_mask, is_subset, mask_of, popcount
from .parent_store import best_in
from .scoring import ScoreTable, simple_heads

DEFAULT_GROUP_CAP = 25


class SimpleHeuristic:
    consistent = True

    def __init__(self, tables: Sequence[ScoreTable]):
        self.n = tables[0].n
        self.h0 = simple_heads(tables)
        self.size = self.n
        self._full = full_mask(self.n)

    def value(self, U: int) -> float:
        """Sum of unconstrained best scores over the variables not yet in U."""
        return float(sum(self.h0[x] for x in bits(self._full & ~U)))


def pattern_cost_exact(P: int, tables: Sequence[ScoreTable]) -> float:
    """Exact cost of a pattern: shortest distance from the node V\\P to the
    goal, by dynamic programming over the 2^|P| sub-lattice above V\\P.

    Reference implementation; the PDB builders below must agree with it.
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


@dataclass(eq=False)
class DynamicPDB:
    """Patterns of size 2..k with their exact cost and differential cost.

    order holds (pattern, differential) sorted by descending differential
    (ties: smaller pattern, then ascending bitmask) for the greedy scan.
    """

    k: int
    n: int
    h0: np.ndarray = field(repr=False)
    patterns: dict[int, tuple[float, float]] = field(repr=False)
    order: list[tuple[int, float]] = field(repr=False)

    def __len__(self) -> int:
        return len(self.patterns)


@dataclass
class HeuristicValue:
    value: float
    chosen: list[int]  # patterns used, for diagnostics


def build_dynamic_pdb(tables: Sequence[ScoreTable], k: int) -> DynamicPDB:
    """Price every pattern of up to k variables (the last k layers of the
    order graph) and keep the useful ones.

    A pattern is stored only when its differential is positive and differs
    from every immediate sub-pattern's differential (singletons all have
    differential zero and live implicitly in the simple table).
    """
    n = tables[0].n
    if not 2 <= k <= n:
        raise ValueError(f"pattern size cap {k} outside 2..{n}")
    h0 = simple_heads(tables)
    diffs: dict[int, float] = {}
    patterns: dict[int, tuple[float, float]] = {}
    # ascending size: immediate sub-patterns' differentials come first
    for P, cost in pattern_costs(tables, full_mask(n), k).items():
        diff = float(cost - sum(h0[x] for x in bits(P)))
        diffs[P] = diff
        if popcount(P) >= 2 and diff > 0.0 and all(
                diff != diffs[P ^ (1 << x)] for x in bits(P)):
            patterns[P] = (float(cost), diff)
    order = sorted(patterns.items(), key=lambda it: (-it[1][1], popcount(it[0]), it[0]))
    return DynamicPDB(k, n, h0, patterns,
                      [(p, diff) for p, (_, diff) in order])


def greedy_partition(R: int, pdb: DynamicPDB) -> HeuristicValue:
    """Cover the unsearched set R with stored patterns, best differential
    first; anything left is covered by singletons.

    One pass over the precomputed order suffices: the remaining set only
    shrinks, so a pattern skipped once can never fit later.
    """
    value = float(sum(pdb.h0[x] for x in bits(R)))
    chosen: list[int] = []
    remaining = R
    for p, diff in pdb.order:
        if is_subset(p, remaining):
            remaining &= ~p
            value += diff
            chosen.append(p)
            if remaining == 0:
                break
    return HeuristicValue(value, chosen)


class DynamicHeuristic:
    """Greedy pattern cover per query; not assumed consistent, so A* keeps
    reopening enabled under it."""

    consistent = False

    def __init__(self, tables: Sequence[ScoreTable], k: int):
        self.pdb = build_dynamic_pdb(tables, k)
        self.n = self.pdb.n
        self.size = self.n + len(self.pdb)
        self._full = full_mask(self.n)

    def value(self, U: int) -> float:
        return greedy_partition(self._full & ~U, self.pdb).value


# ------------------------------------------------------------- static PDBs


def default_grouping(n: int) -> list[int]:
    """First ceil(n/2) variables by index in one group, the rest in the
    other."""
    if n < 2:
        raise ValueError("grouping needs at least 2 variables")
    half = (n + 1) // 2
    return [mask_of(range(half)), mask_of(range(half, n))]


def parse_grouping(text: str, n: int) -> list[int]:
    """Parse CLI grouping syntax: 'auto' or comma-separated 1-based runs
    and indices like '1-4,5-8'. Groups must partition the variables."""
    if text == "auto":
        return default_grouping(n)
    groups = []
    for part in text.split(","):
        part = part.strip()
        idxs = []
        for piece in part.split():
            piece = piece.strip()
            if not piece:
                continue
            if "-" in piece:
                lo, hi = piece.split("-", 1)
                idxs.extend(range(int(lo) - 1, int(hi)))
            else:
                idxs.append(int(piece) - 1)
        if not idxs:
            raise ValueError(f"empty group in {text!r}")
        if any(not 0 <= i < n for i in idxs):
            raise ValueError(f"group {part!r} has variables outside 1..{n}")
        groups.append(mask_of(idxs))
    union = 0
    total = 0
    for g in groups:
        union |= g
        total += popcount(g)
    if union != full_mask(n) or total != n:
        raise ValueError(f"groups {text!r} do not partition the {n} variables")
    return groups


@dataclass(eq=False)
class StaticPDB:
    """Per group, the exact cost of every subset of the group, keyed by the
    pattern's mask, with out-of-group variables always usable as
    parents."""

    n: int
    groups: list[int]
    costs: list[dict[int, float]] = field(repr=False)

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.costs)


def build_static_pdb(
    tables: Sequence[ScoreTable], grouping: Sequence[int],
    group_cap: int = DEFAULT_GROUP_CAP,
) -> StaticPDB:
    """One pattern-cost sweep per group over its full subset lattice."""
    n = tables[0].n
    full = full_mask(n)
    union = 0
    total = 0
    for g in grouping:
        union |= g
        total += popcount(g)
    if union != full or total != n:
        raise ValueError("grouping must partition the variable set")
    costs = []
    for g in grouping:
        m = popcount(g)
        if m > group_cap:
            raise ValueError(
                f"group of {m} variables exceeds the size cap {group_cap} "
                f"(2^{m} table entries)")
        costs.append(pattern_costs(tables, g, m))
    return StaticPDB(n, list(grouping), costs)


def static_h(U: int, pdb: StaticPDB) -> float:
    """Sum over groups of the cost of the group's not-yet-searched part."""
    total = 0.0
    for g, cost in zip(pdb.groups, pdb.costs):
        total += cost[g & ~U]
    return float(total)


class StaticHeuristic:
    consistent = True

    def __init__(self, tables: Sequence[ScoreTable], grouping: Sequence[int],
                 group_cap: int = DEFAULT_GROUP_CAP):
        self.pdb = build_static_pdb(tables, grouping, group_cap)
        self.n = self.pdb.n
        self.size = self.pdb.size

    def value(self, U: int) -> float:
        return static_h(U, self.pdb)
