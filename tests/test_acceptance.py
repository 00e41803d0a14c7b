"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Exhaustive checks stay at n <= 8 where the full order graph is
walkable; larger runs are trend and budget checks.
"""

import math
import subprocess
import sys
import time

import pytest

import oracle
from bnopt import (DynamicHeuristic, ScoreTable, SimpleHeuristic,
                   StaticHeuristic, astar, best_in, bfbnb,
                   build_score_tables, default_grouping, dp_oracle,
                   exact_distances_to_goal, initial_upper_bound,
                   load_dataset, mdl_local_score, parent_limit)
from bnopt.bitset import bits, full_mask, mask_of
from bnopt.parent_store import cursor_exclude
from bnopt.synth import prefix_dataset, random_dataset
from conftest import FIXTURE_CSV, empty_network

REL_TOL = 1e-9
ABS_TOL = 1e-9


def _report(line):
    print(f"\n{line}")


def _heuristic_grid(tables):
    return [
        ("simple", SimpleHeuristic(tables)),
        ("dynamic k=2", DynamicHeuristic(tables, 2)),
        ("dynamic k=3", DynamicHeuristic(tables, 3)),
        ("static auto", StaticHeuristic(tables, default_grouping(tables[0].n))),
    ]


def _exhaustive_suite():
    return [
        ("fixture4", load_dataset(FIXTURE_CSV)),
        ("n6", random_dataset(6, 80, seed=301)),
        ("n8", random_dataset(8, 120, seed=302)),
    ]


def test_c01_oracle_optimality():
    t0 = time.monotonic()
    checked = 0
    for i in range(20):
        n = 4 + i % 6  # n cycles over 4..9
        data = random_dataset(n, 100, seed=1000 + i)
        tables = build_score_tables(data).tables
        _, opt = dp_oracle(tables)
        for label, h in _heuristic_grid(tables):
            net_a, _ = astar(tables, h)
            assert abs(net_a.total_score - opt) <= REL_TOL * abs(opt), \
                (i, n, "astar", label)
            inc = initial_upper_bound(tables, seed=i, restarts=4)
            net_b, _ = bfbnb(tables, h, inc)
            assert abs(net_b.total_score - opt) <= REL_TOL * abs(opt), \
                (i, n, "bfbnb", label)
            checked += 2
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
    _report(f"PASS criterion 1: oracle optimality, {checked} solves over 20 "
            f"datasets in {elapsed:.1f}s")


def test_c02_admissibility():
    for label, data in _exhaustive_suite():
        tables = build_score_tables(data).tables
        dist = exact_distances_to_goal(tables)
        for hlabel, h in _heuristic_grid(tables):
            for U in range(1 << data.n):
                assert h.value(U) <= float(dist[U]) + ABS_TOL, \
                    (label, hlabel, bin(U))
    _report("PASS criterion 2: admissibility exhaustive over "
            f"{[l for l, _ in _exhaustive_suite()]}")


def test_c03_dominance():
    for label, data in _exhaustive_suite():
        tables = build_score_tables(data).tables
        simple = SimpleHeuristic(tables)
        others = [h for hl, h in _heuristic_grid(tables) if hl != "simple"]
        for U in range(1 << data.n):
            sv = simple.value(U)
            for h in others:
                assert h.value(U) >= sv - ABS_TOL, (label, bin(U))
    _report("PASS criterion 3: dynamic and static dominate the simple bound")


def test_c04_pattern_cost_equality():
    from bnopt import pattern_cost_exact
    for label, data in _exhaustive_suite():
        tables = build_score_tables(data).tables
        n = data.n
        full = full_mask(n)
        dist = exact_distances_to_goal(tables)
        for P, (cost, _) in DynamicHeuristic(tables, 3).patterns.items():
            assert cost == pytest.approx(float(dist[full & ~P]), abs=ABS_TOL)
        for P in range(1, 1 << n):
            if P.bit_count() <= 3:
                assert pattern_cost_exact(P, tables) == pytest.approx(
                    float(dist[full & ~P]), abs=ABS_TOL)
    _report("PASS criterion 4: stored pattern costs equal exact reverse "
            "distances (all patterns of size <= 3)")


def test_c05_sparse_store_equivalence():
    # exhaustive three-way equivalence including brute-force rescoring
    for label, data in _exhaustive_suite():
        limit = parent_limit(data.N)
        scores = build_score_tables(data)
        n = data.n
        for x, t in enumerate(scores.tables):
            others = [y for y in range(n) if y != x]
            raw = {}
            for k in range(min(limit, n - 1) + 1):
                from itertools import combinations
                for combo in combinations(others, k):
                    pa = mask_of(combo)
                    raw[pa] = mdl_local_score(data, x, pa)
            for m in range(1 << len(others)):
                cands = mask_of(others[j] for j in range(len(others))
                                if m >> j & 1)
                got = best_in(t, cands)
                assert got[1] & ~cands == 0
                assert got[0] == oracle.fitting_minimum(t.entries, cands)[0]
                excluded = 0
                for y in others:
                    if not cands >> y & 1:
                        excluded = cursor_exclude(t, excluded, y)
                pool = full_mask(n) & ~(excluded | 1 << x)
                assert pool == cands
                assert best_in(t, pool) == got
                brute = min(s for pa, s in raw.items()
                            if pa & ~cands == 0)
                assert got[0] == pytest.approx(brute, abs=ABS_TOL)
    # the worked four-variable example, bit-exact
    x2, x3 = 0b0010, 0b0100
    t = ScoreTable(0, 4, [(5.0, x2 | x3), (6.0, x3),
                          (8.0, x2), (10.0, 0)])
    assert [s for s, _ in t.entries] == [5.0, 6.0, 8.0, 10.0]
    assert best_in(t, x3 | 0b1000) == (6.0, x3)
    assert best_in(t, x2 | 0b1000) == (8.0, x2)
    assert best_in(t, x2 | x3) == (5.0, x2 | x3)
    excluded = cursor_exclude(t, 0, 2)
    assert best_in(t, full_mask(4) & ~(excluded | 1)) == (8.0, x2)
    excluded = cursor_exclude(t, excluded, 1)
    assert best_in(t, full_mask(4) & ~(excluded | 1)) == (10.0, 0)
    _report("PASS criterion 5: sparse store equivalent to brute force; "
            "worked example reproduced bit-exactly")


def test_c06_consistency_and_zero_reopenings():
    for label, data in _exhaustive_suite():
        tables = build_score_tables(data).tables
        n = data.n
        full = full_mask(n)
        simple = SimpleHeuristic(tables)
        static = StaticHeuristic(tables, default_grouping(n))
        for U in range(1 << n):
            for x in bits(full & ~U):
                arc = best_in(tables[x], U)[0]
                child = U | 1 << x
                assert simple.value(U) <= arc + simple.value(child) + ABS_TOL
                assert static.value(U) <= arc + static.value(child) + ABS_TOL
        for h in (simple, static):
            _, stats = astar(tables, h)
            assert stats.reopened == 0, label
    _report("PASS criterion 6: simple and static heuristics consistent; "
            "A* reopened nothing under them")


# expanded-node counts, re-pinned when A* began generating a single
# successor through a forced arc (a variable whose overall best parents
# are already placed); n7 skips successors too but expands the same nodes.
# Re-pinned again when A* began searching each strongly connected
# component of the parent graph on its own: n8 and n9 split into
# components of 5, 1 and 2 (and 1) variables, so A* searches lattices of
# at most 2^5 nodes; fixture4 (3 and 1) and n7 (one component of 7)
# keep their counts. Re-pinned when each family's score became the
# difference of two exactly rounded set sums and the dynamic PDB began
# dropping patterns whose differential ties a sub-pattern's within G_EPS:
# the PDBs change, so the dynamic counts do (n7 k3 36 -> 34, n8 k2 17 ->
# 16 and k3 11 -> 12, n9 k2 18 -> 17 and k3 12 -> 13)
TREND_SUITE = [
    ("fixture4", None, (4, 4, 4)),
    ("n7 seed=201", (7, 201), (79, 54, 34)),
    ("n8 seed=203", (8, 203), (24, 16, 12)),
    ("n9 seed=203", (9, 203), (25, 17, 13)),
]


def test_c07_node_count_trend():
    rows = []
    for label, gen, golden in TREND_SUITE:
        data = load_dataset(FIXTURE_CSV) if gen is None else \
            random_dataset(gen[0], 100, seed=gen[1])
        tables = build_score_tables(data).tables
        counts = []
        for h in (SimpleHeuristic(tables), DynamicHeuristic(tables, 2),
                  DynamicHeuristic(tables, 3)):
            _, stats = astar(tables, h)
            counts.append(stats.nodes_expanded)
        simple, k2, k3 = counts
        assert k3 <= k2 <= simple, (label, counts)
        assert tuple(counts) == golden, (label, counts)
        rows.append(f"{label}: simple={simple} k2={k2} k3={k3}")
    _report("PASS criterion 7: expanded-node trend k3 <= k2 <= simple; "
            + "; ".join(rows))


def test_c08_sparseness_trend():
    base = random_dataset(12, 800, seed=401)
    totals = []
    lines = []
    for N in (50, 200, 800):
        data = prefix_dataset(base, N)
        limit = parent_limit(N)
        scores = build_score_tables(data)
        full_count = sum(math.comb(11, k) for k in range(limit + 1))
        kept = 0
        for t in scores.tables:
            assert len(t) < full_count, (N, t.variable)
            kept += len(t)
        totals.append(kept)
        lines.append(f"N={N}: {kept}/{12 * full_count} "
                     f"({kept / (12 * full_count):.2%}, limit {limit})")
    assert totals == sorted(totals), totals
    _report("PASS criterion 8: sparse store strictly below the full count; "
            "kept entries non-decreasing in N; " + "; ".join(lines))


def test_c09_bfbnb_exhaustive_sanity():
    # each variable scores 1.0 with every other as its parents, 2.0 with
    # none: one component, no forced arc before the last layer, and the
    # empty network's bound (12.0) prunes no node on the way to 11.0
    full = full_mask(6)
    tables = [ScoreTable(x, 6, [(1.0, full ^ 1 << x), (2.0, 0)])
              for x in range(6)]
    net, stats = bfbnb(tables, SimpleHeuristic(tables), empty_network(tables))
    assert (stats.nodes_generated, stats.nodes_expanded) == (64, 63)
    assert stats.forced_skipped == 0
    assert net.total_score == dp_oracle(tables)[1] == 11.0
    _report("PASS criterion 9: BFBnB under a bound that prunes nothing "
            "generated exactly 2^6 = 64 distinct nodes")


def test_c10_cli_determinism(tmp_path):
    def run(args):
        return subprocess.run([sys.executable, "-m", "bnopt", *args],
                              capture_output=True)

    commands = [
        ["score", str(FIXTURE_CSV)],
        ["learn", str(FIXTURE_CSV), "--algorithm", "astar",
         "--heuristic", "dynamic", "--k", "2"],
        ["learn", str(FIXTURE_CSV), "--algorithm", "bfbnb",
         "--heuristic", "static", "--groups", "auto"],
    ]
    for args in commands:
        a, b = run(args), run(args)
        assert a.returncode == b.returncode == 0, args
        assert a.stdout == b.stdout, args
    dots = []
    for name in ("a.dot", "b.dot"):
        path = tmp_path / name
        run(["learn", str(FIXTURE_CSV), "--algorithm", "astar",
             "--dot", str(path)])
        dots.append(path.read_bytes())
    assert dots[0] == dots[1]
    _report(f"PASS criterion 10: {len(commands)} CLI commands and DOT output "
            "byte-identical across repeated runs")


def test_c11_smoke_scalability():
    t0 = time.monotonic()
    data = random_dataset(16, 200, seed=500)
    tables = build_score_tables(data).tables
    budget = 4 << 30
    h = StaticHeuristic(tables, default_grouping(16))
    net_a, stats_a = astar(tables, h, mem_budget=budget)
    inc = initial_upper_bound(tables, seed=500, restarts=4)
    net_b, stats_b = bfbnb(tables, h, inc, mem_budget=budget)
    elapsed = time.monotonic() - t0
    assert abs(net_a.total_score - net_b.total_score) <= \
        REL_TOL * abs(net_a.total_score)
    assert oracle.is_acyclic(net_a.parents)
    assert oracle.is_acyclic(net_b.parents)
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    _report(f"PASS criterion 11: n=16 solved in {elapsed:.1f}s inside a 4 GiB "
            f"budget (A* expanded {stats_a.nodes_expanded}, BFBnB "
            f"{stats_b.nodes_expanded}; scores match)")
