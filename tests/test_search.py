import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from bnopt import (DynamicHeuristic, MemoryBudgetError, SimpleHeuristic,
                   StaticHeuristic, astar, best_in, bfbnb, default_grouping,
                   dp_oracle, exact_distances_to_goal, initial_upper_bound,
                   pattern_cost_exact, reconstruct)
from bnopt.bitset import bits, full_mask
from bnopt.dataset import Dataset
from bnopt.scoring import build_score_tables, parent_limit
from bnopt.search import G_EPS
from bnopt.synth import random_dataset
from conftest import OPT_SCORE


def single_var_tables():
    data = Dataset(["X1"], [2], np.array([[0], [1], [0], [1]], dtype=np.int64))
    return build_score_tables(data).tables


def all_heuristics(tables, ks=(2, 3)):
    n = tables[0].n
    out = [("simple", SimpleHeuristic(tables))]
    out += [(f"dynamic k={k}", DynamicHeuristic(tables, k))
            for k in ks if k <= n]
    if n >= 2:
        out.append(("static", StaticHeuristic(tables, default_grouping(n))))
    return out


def test_astar_single_variable():
    tables = single_var_tables()
    net, stats = astar(tables, SimpleHeuristic(tables))
    assert net.parents == [0]
    assert net.total_score == float(tables[0].scores[0])
    assert stats.nodes_expanded == 1


def test_fixture_all_solvers_hit_oracle(fixture_tables):
    _, opt = dp_oracle(fixture_tables)
    assert opt == OPT_SCORE
    for label, h in all_heuristics(fixture_tables):
        net_a, _ = astar(fixture_tables, h)
        assert net_a.total_score == pytest.approx(opt, abs=1e-9), label
        inc = initial_upper_bound(fixture_tables, seed=1, restarts=4)
        net_b, _ = bfbnb(fixture_tables, h, inc)
        assert net_b.total_score == pytest.approx(opt, abs=1e-9), label


def test_fixture_expansion_trend(fixture_tables):
    counts = {}
    for label, h in all_heuristics(fixture_tables):
        _, stats = astar(fixture_tables, h)
        counts[label] = stats.nodes_expanded
    assert counts["dynamic k=3"] <= counts["dynamic k=2"] <= counts["simple"]


def test_dp_oracle_matches_dag_enumeration(fixture_data, fixture_tables):
    rows = [tuple(r) for r in fixture_data.rows]
    best, count = oracle.optimal_by_dag_enumeration(rows, fixture_data.arity)
    assert count == 543  # labeled DAGs on 4 nodes
    _, opt = dp_oracle(fixture_tables)
    assert opt == pytest.approx(best, abs=1e-12)


def test_dp_oracle_single_variable():
    tables = single_var_tables()
    net, opt = dp_oracle(tables)
    assert opt == float(tables[0].scores[0])
    assert net.parents == [0]


def test_dp_oracle_guard(fixture_tables):
    import bnopt.search as search
    data = random_dataset(4, 20, seed=1)
    tables = build_score_tables(data).tables
    old = search.DP_MAX_VARS
    search.DP_MAX_VARS = 3
    try:
        with pytest.raises(ValueError):
            dp_oracle(tables)
        with pytest.raises(ValueError):
            exact_distances_to_goal(tables)
    finally:
        search.DP_MAX_VARS = old


def test_exact_distances(fixture_tables):
    dist = exact_distances_to_goal(fixture_tables)
    assert dist[0b1111] == 0.0
    _, opt = dp_oracle(fixture_tables)
    assert float(dist[0]) == pytest.approx(opt, abs=1e-12)
    for P in range(1, 1 << 4):
        if P.bit_count() <= 3:
            assert pattern_cost_exact(P, fixture_tables) == pytest.approx(
                float(dist[0b1111 & ~P]), abs=1e-9)


def test_exact_distances_match_reference(fixture_data, fixture_tables):
    rows = [tuple(r) for r in fixture_data.rows]
    raw = [oracle.all_scores(rows, fixture_data.arity, x, 2) for x in range(4)]
    ref = oracle.distances_to_goal(raw, 4)
    dist = exact_distances_to_goal(fixture_tables)
    for U, d in ref.items():
        assert float(dist[sum(1 << x for x in U)]) == pytest.approx(d, abs=1e-9)


def test_bfbnb_accepts_optimal_incumbent(fixture_tables):
    net0, opt = dp_oracle(fixture_tables)
    result, _ = bfbnb(fixture_tables, SimpleHeuristic(fixture_tables), net0)
    assert result.total_score == opt


def test_bfbnb_without_bound_generates_full_lattice():
    data = random_dataset(6, 60, seed=3)
    tables = build_score_tables(data).tables
    net, stats = bfbnb(tables, SimpleHeuristic(tables), None)
    assert stats.nodes_generated == 2 ** 6
    _, opt = dp_oracle(tables)
    assert net.total_score == pytest.approx(opt, abs=1e-9)


def test_hill_climb_single_variable():
    tables = single_var_tables()
    net = initial_upper_bound(tables, seed=0, restarts=1)
    assert net.parents == [0]
    assert net.total_score == float(tables[0].scores[0])


def test_hill_climb_upper_bound_property(fixture_tables):
    _, opt = dp_oracle(fixture_tables)
    for seed in range(6):
        net = initial_upper_bound(fixture_tables, seed=seed, restarts=2)
        assert oracle.is_acyclic(net.parents)
        assert net.total_score >= opt - 1e-12


def test_hill_climb_golden_seed(fixture_tables):
    # pinned from the first verified run: seed 42, 8 restarts lands on the
    # global optimum of the 4-variable fixture
    net = initial_upper_bound(fixture_tables, seed=42, restarts=8)
    assert net.total_score == OPT_SCORE


def test_hill_climb_deterministic(fixture_tables):
    a = initial_upper_bound(fixture_tables, seed=7, restarts=3)
    b = initial_upper_bound(fixture_tables, seed=7, restarts=3)
    assert a.parents == b.parents
    assert a.total_score == b.total_score


def test_reconstruct_prefix_containment(fixture_tables):
    net = reconstruct(fixture_tables, [0, 1, 2, 3])
    prefix = 0
    for x in [0, 1, 2, 3]:
        assert net.parents[x] & ~prefix == 0
        prefix |= 1 << x
    assert oracle.is_acyclic(net.parents)


def test_reconstruct_checks_path_score(fixture_tables):
    with pytest.raises(AssertionError):
        reconstruct(fixture_tables, [0, 1, 2, 3], expected_g=1.0)


def test_reconstruct_rejects_partial_order(fixture_tables):
    with pytest.raises(ValueError):
        reconstruct(fixture_tables, [0, 1])


def test_randomized_optimality_small_grid():
    for seed in (101, 102, 103):
        for n in (4, 6, 9):
            data = random_dataset(n, 100, seed=seed)
            tables = build_score_tables(data).tables
            _, opt = dp_oracle(tables)
            for label, h in all_heuristics(tables):
                net, stats = astar(tables, h)
                rel = abs(net.total_score - opt) / max(1.0, abs(opt))
                assert rel <= 1e-9, (label, n, seed)
                assert oracle.is_acyclic(net.parents)
                inc = initial_upper_bound(tables, seed=seed, restarts=3)
                net, _ = bfbnb(tables, h, inc)
                rel = abs(net.total_score - opt) / max(1.0, abs(opt))
                assert rel <= 1e-9, (label, n, seed)


def test_two_variable_end_to_end():
    data = random_dataset(2, 40, seed=91)
    tables = build_score_tables(data).tables
    _, opt = dp_oracle(tables)
    for label, h in all_heuristics(tables):
        net, _ = astar(tables, h)
        assert net.total_score == pytest.approx(opt, rel=1e-9), label
        assert oracle.is_acyclic(net.parents)


def test_astar_no_reopen_with_consistent_heuristics():
    data = random_dataset(8, 120, seed=51)
    tables = build_score_tables(data).tables
    for h in (SimpleHeuristic(tables),
              StaticHeuristic(tables, default_grouping(8))):
        _, stats = astar(tables, h)
        assert stats.reopened == 0


def test_astar_reopens_under_dynamic_heuristic():
    # the greedy pattern cover is not consistent here: a closed node is
    # reached again on a strictly better g, and the optimum still holds
    tables = build_score_tables(random_dataset(9, 150, seed=18)).tables
    _, opt = dp_oracle(tables)
    net, stats = astar(tables, DynamicHeuristic(tables, 3))
    assert stats.reopened >= 1
    assert net.total_score == pytest.approx(opt, rel=1e-9)


def test_heuristic_independence_and_stats_sanity():
    data = random_dataset(7, 110, seed=61)
    tables = build_score_tables(data).tables
    _, opt = dp_oracle(tables)
    for label, h in all_heuristics(tables):
        net, stats = astar(tables, h)
        assert net.total_score == pytest.approx(opt, rel=1e-9)
        assert stats.nodes_expanded <= stats.nodes_generated
        assert stats.peak_open_size >= 0


def test_memory_budget_astar(fixture_tables):
    data = random_dataset(8, 100, seed=71)
    tables = build_score_tables(data).tables
    with pytest.raises(MemoryBudgetError) as exc:
        astar(tables, SimpleHeuristic(tables), mem_budget=2000)
    assert exc.value.stats.nodes_expanded > 0


def test_memory_budget_bfbnb():
    data = random_dataset(8, 100, seed=71)
    tables = build_score_tables(data).tables
    with pytest.raises(MemoryBudgetError):
        bfbnb(tables, SimpleHeuristic(tables), None, mem_budget=2000)


def test_reconstructed_score_matches_g_everywhere(fixture_tables):
    # every solver path: recomputed network score within 1e-9 of the path g
    for label, h in all_heuristics(fixture_tables):
        net, _ = astar(fixture_tables, h)
        total = 0.0
        for x in range(4):
            i = fixture_tables[x].parent_sets.index(net.parents[x])
            total += float(fixture_tables[x].scores[i])
        assert net.total_score == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("n,seed", [(5, 401), (6, 402), (7, 403), (8, 404)])
def test_forced_arc_keeps_goal_distance(n, seed):
    # the pruning lemma, without any search: if x's overall best parent
    # set is inside U, the arc U -> U|{x} lies on a shortest path to the goal
    tables = build_score_tables(random_dataset(n, 150, seed=seed)).tables
    dist = exact_distances_to_goal(tables)
    full = full_mask(n)
    forced = 0
    for U in range(1 << n):
        for x in bits(full & ~U):
            if tables[x].parent_sets[0] & ~U == 0:
                via_x = best_in(tables[x], U)[0] + dist[U | 1 << x]
                assert abs(via_x - dist[U]) <= G_EPS * max(1.0, abs(dist[U])), \
                    (bin(U), x)
                forced += 1
    assert forced > 0


def test_forced_arcs_counted_only_with_a_bound():
    tables = build_score_tables(random_dataset(8, 100, seed=203)).tables
    h = StaticHeuristic(tables, default_grouping(8))
    _, stats = astar(tables, h)
    assert stats.forced_skipped > 0
    _, stats = bfbnb(tables, h, initial_upper_bound(tables, seed=1))
    assert stats.forced_skipped > 0
    _, stats = bfbnb(tables, h, None)
    assert stats.forced_skipped == 0
    assert stats.nodes_generated == 2 ** 8


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(3, 8), N=st.integers(10, 500),
       seed=st.integers(0, 2 ** 16))
def test_solvers_match_oracles_on_random_data(n, N, seed):
    data = random_dataset(n, N, seed=seed)
    tables = build_score_tables(data).tables
    _, opt = dp_oracle(tables)
    refs = [opt]
    if n <= 4:
        rows = [tuple(r) for r in data.rows]
        raw = [oracle.all_scores(rows, data.arity, x, parent_limit(N))
               for x in range(n)]
        refs.append(oracle.distances_to_goal(raw, n)[frozenset()])
    inc = initial_upper_bound(tables, seed=seed, restarts=2)
    nets = []
    for h in (SimpleHeuristic(tables), DynamicHeuristic(tables, 3),
              StaticHeuristic(tables, default_grouping(n))):
        nets += [astar(tables, h)[0], bfbnb(tables, h, inc)[0]]
    net, stats = bfbnb(tables, SimpleHeuristic(tables), None)
    assert stats.forced_skipped == 0 and stats.nodes_generated == 2 ** n
    for net in nets + [net]:
        assert oracle.is_acyclic(net.parents)
        for ref in refs:
            assert abs(net.total_score - ref) <= 1e-9 * max(1.0, abs(ref))
