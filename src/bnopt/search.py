"""Shortest-path solvers over the order graph.

Nodes are bitmasks of already-ordered variables; the arc U -> U|{x} costs
BestScore(x, U) from the sparse parent store. A* runs best-first; BFBnB
sweeps layer by layer pruning against an incumbent from ordering hill
climbing (initial_upper_bound; learn uses seed 0 and 8 restarts). A path
replaces a node's g only when shorter by more than tie_band(g), since tied
paths summed in other orders differ in the last bits.

Both search the strongly connected components of the parent graph one at
a time (see components). A variable's parents lie in its own component or
in earlier ones, so some optimal order adds the components in topological
order, and the order graph splits into one lattice per component: the
search over component C runs from the node E (every variable of the
earlier components) to E|C and adds only C's variables. Its heuristic is
the caller's, asked at U|L, where L holds the later components' variables;
that bounds the distance from U to E|C from below, and is consistent
whenever the heuristic is, because C's parents never lie in L (Fan, Malone
& Yuan, UAI 2014). Both hold one component's stored nodes at a time, so
their memory is bounded by the largest component's lattice, not by the
whole lattice.

Both generate only U|{x} when some x outside U already has its overall
best parent set inside U (a forced arc; the lowest such x): moving x to
the front of any optimal completion of U costs x nothing extra and only
widens the other variables' candidate pools, so goal distances, and with
them admissibility, consistency and the optimum, are unchanged (Yuan &
Malone, JAIR 2013; Yuan, Malone & Wu, IJCAI 2011). Where several networks
tie at the optimum, the one returned can differ from an unpruned search's.
Both are exact; the unsplit, unpruned brute-force references live in
verify.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Sequence

from .bitset import bits, full_mask
from .parent_store import (ScoreTable, best_in, cursor_exclude, ordered_sum,
                           tie_band)

# crude per-node bookkeeping estimate (heap tuple + dict slots) used for the
# memory budget; the tracemalloc peak of a search per node it counts was
# 111-153 B under A* and 81-122 B under BFBnB (static and dynamic k = 3
# bounds on tests/data/gen14.scores and on synth.random_dataset(16, 200,
# seed=500) and (18, 200, seed=501)), so 200 B is a conservative charge
NODE_BYTES = 200

DEFAULT_MEM_BUDGET = 4 << 30

class SearchStats:
    """Counters for one solve.

    nodes_generated counts successful open-list insertions for A* and
    distinct materialized nodes per layer for BFBnB; expanded never exceeds
    it. forced_skipped counts the successors the forced-arc rule left out.
    A solve that searches the components one at a time sums
    nodes_expanded, nodes_generated, reopened and forced_skipped over them;
    peak_open_size is the largest open list or layer of any component, and
    component_sizes lists each component's variable count as it starts.
    """

    def __init__(self, nodes_generated: int = 0):
        self.nodes_expanded = 0
        self.nodes_generated = nodes_generated
        self.reopened = 0
        self.peak_open_size = 0
        self.forced_skipped = 0
        self.component_sizes: list[int] = []


class LearnedNetwork:
    """Per-variable chosen parent sets (bitmasks) and the summed score."""

    def __init__(self, parents: list[int], total_score: float):
        self.parents = parents
        self.total_score = total_score

    @property
    def n(self) -> int:
        return len(self.parents)


class MemoryBudgetError(RuntimeError):
    """Search state outgrew the configured budget, or a pattern database
    would; a search carries its stats so far."""

    def __init__(self, msg: str, stats: SearchStats | None = None):
        super().__init__(msg)
        self.stats = stats


def reconstruct(
    tables: Sequence[ScoreTable], order: Sequence[int],
    expected_g: float | None = None,
) -> LearnedNetwork:
    """Network from a variable addition order: each variable picks its best
    parent set among the variables that precede it."""
    n = tables[0].n
    if sorted(order) != list(range(n)):
        raise ValueError("addition order must list every variable exactly once")
    parents = [0] * n
    scores = [0.0] * n
    _place(tables, order, 0, parents, scores, expected_g)
    # the canonical total adds in ascending variable index
    return LearnedNetwork(parents, ordered_sum(scores))


def _place(tables, order, prefix: int, parents: list[int],
           scores: list[float], expected_g: float | None = None) -> None:
    """Give each variable of order, added after the variables in prefix,
    its best parent set among the variables before it, in parents and
    scores; check the order's path score, summed in order, against
    expected_g within its tie_band."""
    for x in order:
        scores[x], parents[x] = best_in(tables[x], prefix)
        prefix |= 1 << x
    path_total = ordered_sum(scores[x] for x in order)
    if (expected_g is not None
            and abs(path_total - expected_g) > tie_band(expected_g)):
        raise AssertionError(
            f"reconstructed path score {path_total} != search g {expected_g}")


def _order_from_preds(pred_of, goal: int, start: int = 0) -> list[int]:
    """The variables on the stored path from start to goal, in order."""
    order = []
    U = goal
    while U != start:
        x = pred_of(U)
        if x is None:
            raise RuntimeError("broken predecessor chain")
        order.append(x)
        U ^= 1 << x
    order.reverse()
    return order


def components(tables: Sequence[ScoreTable]) -> list[int]:
    """Masks of the strongly connected components of the parent graph, in
    topological order.

    The parent graph has an arc y -> x when y occurs in some entry of x's
    table, so no entry of a variable draws a parent from a later
    component. Of the components whose predecessors are all listed, the
    one holding the lowest variable comes first.
    """
    n = tables[0].n
    anc = []  # anc[x]: every variable with a path to x
    for t in tables:
        support = 0
        for _, P in t.entries:
            support |= P
        anc.append(support)
    for k in range(n):  # Warshall's transitive closure over bit rows
        for x in range(n):
            if anc[x] >> k & 1:
                anc[x] |= anc[k]
    full = full_mask(n)
    out = []
    placed = 0
    while placed != full:
        # the lowest x whose unplaced ancestors all lie on a cycle with it
        # opens a component with nothing unplaced before it
        for x in bits(full & ~placed):
            ups = anc[x] & ~placed
            if all(anc[y] >> x & 1 for y in bits(ups)):
                break
        out.append(ups | 1 << x)
        placed |= ups | 1 << x
    return out


def _successors(best: Sequence[int], U: int, rest: int,
                stats: SearchStats):
    """Variables x in rest whose arcs U -> U|{x} need generating: the
    lowest x with its overall best parent set best[x] inside U (a forced
    arc, counted in stats), else all of rest in ascending order."""
    for x in bits(rest):
        if best[x] & ~U == 0:
            stats.forced_skipped += rest.bit_count() - 1
            return (x,)
    return bits(rest)


def astar(
    tables: Sequence[ScoreTable], heuristic,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> tuple[LearnedNetwork, SearchStats]:
    """Best-first search from the empty set to the full set, one component
    of the parent graph at a time; each component's goal is the next one's
    start.

    Ordered by f = g + h, ties broken toward larger g then ascending mask.
    A node's predecessor is stored when it is expanded; an expanded node is
    expanded again when a shorter path reaches it (never under a consistent
    heuristic). A component's nodes are dropped once its path is read back.
    """
    stats = SearchStats(nodes_generated=1)
    best = [t.entries[0][1] for t in tables]
    later = full_mask(tables[0].n)
    order: list[int] = []
    U, g = 0, 0.0
    for C in components(tables):
        stats.component_sizes.append(C.bit_count())
        later ^= C
        start, goal = U, U | C
        g_best = {start: g}
        pred: dict[int, int | None] = {}  # expanded nodes and the goal
        open_heap = [(g + heuristic.value(U | later), -g, U, None)]
        while open_heap:
            f, neg_g, U, x = heapq.heappop(open_heap)
            g = -neg_g
            if g > g_best[U]:
                continue  # stale: a strictly smaller g was pushed since
            pred[U] = x
            if U == goal:
                break
            stats.nodes_expanded += 1
            for x in _successors(best, U, goal & ~U, stats):
                arc, _ = best_in(tables[x], U)
                child = U | 1 << x
                gc = g + arc
                old = g_best.get(child)
                if old is not None and not gc < old - tie_band(old):
                    continue
                if child in pred:
                    del pred[child]
                    stats.reopened += 1
                g_best[child] = gc
                heapq.heappush(open_heap,
                               (gc + heuristic.value(child | later), -gc,
                                child, x))
                stats.nodes_generated += 1
            if len(open_heap) > stats.peak_open_size:
                stats.peak_open_size = len(open_heap)
            if (len(open_heap) + len(g_best)) * NODE_BYTES > mem_budget:
                raise MemoryBudgetError(
                    f"open/closed structures passed the {mem_budget}-byte "
                    "budget", stats)
        else:
            raise RuntimeError("order graph exhausted without reaching the goal")
        order += _order_from_preds(pred.get, goal, start)
    return reconstruct(tables, order, g), stats


def bfbnb(
    tables: Sequence[ScoreTable], heuristic, incumbent: LearnedNetwork,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> tuple[LearnedNetwork, SearchStats]:
    """Layered breadth-first sweep with bound pruning, one component of
    the parent graph at a time.

    The incumbent (usually from initial_upper_bound) must be acyclic, with
    one parent set per variable, else ValueError. Restricted to a
    component C it is feasible there, so its score over C's variables
    bounds C's sweep: a generated node is dropped when g + h >= that
    score, and C keeps the incumbent's parent sets unless its goal is
    reached strictly below it. Each kept set P is read back as
    best_in(table, P), P itself when reconstruct built the incumbent, and
    the total is summed in variable order as reconstruct sums it, so a
    network no component beats has the incumbent's parents and total.
    """
    full = full_mask(tables[0].n)
    stats = SearchStats()
    best = [t.entries[0][1] for t in tables]
    chosen = [best_in(t, P)
              for t, P in zip(tables, incumbent.parents, strict=True)]
    scores = [s for s, _ in chosen]
    parents = [P for _, P in chosen]
    placed = 0  # Kahn's peel of the read-back sets stalls on a cycle
    while placed != full:
        ready = sum(1 << x for x in bits(full & ~placed)
                    if parents[x] & ~placed == 0)
        if not ready:
            raise ValueError("incumbent parent sets form a directed cycle")
        placed |= ready
    E = 0
    for C in components(tables):
        stats.component_sizes.append(C.bit_count())
        goal = E | C
        later = full ^ goal
        bound = ordered_sum(scores[x] for x in bits(C))
        layer: dict[int, float] = {}  # mask -> g from E, one layer at a time
        if 0.0 + heuristic.value(E | later) < bound:
            layer[E] = 0.0
            stats.nodes_generated += 1
        pred: dict[int, int] = {}  # every stored node of C but its start
        for _ in range(C.bit_count()):
            nxt: dict[int, float] = {}
            for U in sorted(layer):
                g = layer[U]
                stats.nodes_expanded += 1
                for x in _successors(best, U, goal & ~U, stats):
                    arc, _ = best_in(tables[x], U)
                    child = U | 1 << x
                    gc = g + arc
                    old = nxt.get(child)
                    if old is not None:
                        if gc < old - tie_band(old):
                            nxt[child] = gc
                            pred[child] = x
                    elif gc + heuristic.value(child | later) < bound:
                        nxt[child] = gc
                        pred[child] = x
                        stats.nodes_generated += 1
                if (1 + len(pred)) * NODE_BYTES > mem_budget:
                    raise MemoryBudgetError(
                        f"layer storage passed the {mem_budget}-byte budget",
                        stats)
            layer = nxt
            if len(nxt) > stats.peak_open_size:
                stats.peak_open_size = len(nxt)
        if goal in layer and layer[goal] < bound:
            _place(tables, _order_from_preds(pred.get, goal, E), E, parents,
                   scores, layer[goal])
        E = goal
    # the canonical total adds in ascending variable index
    return LearnedNetwork(parents, ordered_sum(scores)), stats


def _ordering_scores(tables, perm) -> list[float]:
    """Per-position best scores for an ordering: position i rules out every
    variable after it, one cursor_exclude call each (perfbench's trace
    counts these calls; a prefix mask would do the same job)."""
    full = full_mask(len(perm))
    out = []
    for i, x in enumerate(perm):
        t = tables[x]
        excluded = 0
        for y in perm[i + 1:]:
            excluded = cursor_exclude(t, excluded, y)
        out.append(best_in(t, full & ~(excluded | 1 << x))[0])
    return out


def initial_upper_bound(
    tables: Sequence[ScoreTable], seed: int = 0, restarts: int = 8,
) -> LearnedNetwork:
    """Hill climbing by adjacent transpositions of seeded shuffled orders;
    a swap at position i > 0 changes only the pair ending there, so that is
    tested next. The defaults give `learn`'s BFBnB incumbent."""
    if restarts < 1:
        raise ValueError("need at least one restart")
    n = tables[0].n
    rng = random.Random(seed)
    best_perm = None
    best_total = math.inf
    for _ in range(restarts):
        perm = list(range(n))
        rng.shuffle(perm)
        scores = _ordering_scores(tables, perm)
        i, prefix = 0, 0  # prefix: the variables before position i
        while i < n - 1:
            a, b = perm[i], perm[i + 1]
            nb = best_in(tables[b], prefix)[0]
            na = best_in(tables[a], prefix | 1 << b)[0]
            if nb + na < scores[i] + scores[i + 1]:
                perm[i], perm[i + 1] = b, a
                scores[i], scores[i + 1] = nb, na
                if i > 0:  # pairs before i - 1 are as they failed
                    i -= 1
                    prefix ^= 1 << perm[i]
                    continue
            prefix |= 1 << perm[i]
            i += 1
        total = ordered_sum(scores)  # in addition order
        if total < best_total:
            best_total = total
            best_perm = list(perm)
    return reconstruct(tables, best_perm)
