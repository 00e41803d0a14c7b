import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from bnopt import (DynamicHeuristic, LearnedNetwork, MemoryBudgetError,
                   ScoreTable, SimpleHeuristic, StaticHeuristic, astar,
                   best_in, bfbnb, default_grouping, dp_oracle,
                   exact_distances_to_goal, initial_upper_bound,
                   pattern_cost_exact, read_score_file, reconstruct,
                   search)
from bnopt.bitset import bits, full_mask
from bnopt.dataset import Dataset
from bnopt.scoring import build_score_tables, parent_limit
from bnopt.search import G_EPS, NODE_BYTES, components
from bnopt.synth import random_dataset
from conftest import DATA_DIR, OPT_SCORE, empty_network


def permuted(data, seed):
    """data with its columns shuffled by seed, so that the parent graph's
    components need not follow the variable index order."""
    perm = np.random.default_rng(seed).permutation(data.n)
    return Dataset([data.names[i] for i in perm],
                   [data.arity[i] for i in perm], data.rows[:, perm])


def lowest(mask):
    return (mask & -mask).bit_length() - 1


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
    assert net.total_score == tables[0].entries[0][0]
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
    assert opt == tables[0].entries[0][0]
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


def test_bfbnb_empty_incumbent_reaches_optimum():
    data = random_dataset(6, 60, seed=3)
    tables = build_score_tables(data).tables
    net, _ = bfbnb(tables, SimpleHeuristic(tables), empty_network(tables))
    _, opt = dp_oracle(tables)
    assert net.total_score == pytest.approx(opt, abs=1e-9)


def test_hill_climb_single_variable():
    tables = single_var_tables()
    net = initial_upper_bound(tables, seed=0, restarts=1)
    assert net.parents == [0]
    assert net.total_score == tables[0].entries[0][0]


def test_hill_climb_needs_a_restart(fixture_tables):
    with pytest.raises(ValueError, match="at least one restart"):
        initial_upper_bound(fixture_tables, restarts=0)


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


def test_hill_climb_totals_summed_in_order(monkeypatch):
    # every order scores 0.1 + 0.2 + 0.3, which the compensated sum() of
    # Python 3.12+ rounds to 0.6 for all of them; summed in addition order
    # only orders that end in 0.1 reach 0.6, so seed 0 keeps a later restart
    tables = [ScoreTable(x, 3, [(s, 0)]) for x, s in enumerate((0.1, 0.2, 0.3))]
    orders = []
    real = search.reconstruct
    monkeypatch.setattr(search, "reconstruct", lambda t, order, *a: (
        orders.append(list(order)) or real(t, order, *a)))
    initial_upper_bound(tables, seed=0, restarts=8)
    assert orders == [[2, 1, 0]]


def test_hill_climb_counts_one_exclusion_per_ruled_out_variable(monkeypatch):
    # the benchmark's trace counts search.cursor_exclude calls: each of the
    # 8 restarts scores one shuffled order, whose position i rules out the
    # n - 1 - i variables after it
    tables = read_score_file(DATA_DIR / "gen14.scores").tables
    n = len(tables)
    calls = []
    real = search.cursor_exclude
    monkeypatch.setattr(search, "cursor_exclude",
                        lambda *a: calls.append(a) or real(*a))
    net = initial_upper_bound(tables)
    assert len(calls) == 8 * n * (n - 1) // 2
    assert net.parents == [0, 0, 0, 0, 0, 0, 8, 0, 16, 128, 0, 138, 194, 544]
    assert net.total_score == 24254.714830145604


# ties among small values, besides other finite scores
TABLE_SCORES = st.sampled_from([0.0, 1.0, 1.5, 2.0]) | st.floats(-50.0, 50.0)


@st.composite
def random_tables(draw):
    """Tables of 2-9 variables; each holds the empty set and up to six
    other masks over the other variables, in any order, with ascending
    scores."""
    n = draw(st.integers(2, 9), label="n")
    tables = []
    for x in range(n):
        drawn = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))
        masks = list(dict.fromkeys([0] + [m & ~(1 << x) for m in drawn]))
        masks = draw(st.permutations(masks))
        scores = sorted(draw(st.lists(TABLE_SCORES, min_size=len(masks),
                                      max_size=len(masks))))
        tables.append(ScoreTable(x, n, list(zip(scores, masks))))
    return tables


@settings(derandomize=True, deadline=None, max_examples=200)
@given(tables=random_tables(), seed=st.integers(0, 2 ** 16),
       restarts=st.integers(1, 3))
def test_hill_climb_matches_restart_from_zero_sweep(tables, seed, restarts):
    # re-testing only the pair a swap changed makes the same swaps as
    # rescanning each order from position 0 after every swap
    parents, total = oracle.hill_climb_restart(
        [t.entries for t in tables], seed, restarts)
    net = initial_upper_bound(tables, seed=seed, restarts=restarts)
    assert net.parents == parents
    assert net.total_score.hex() == total.hex()


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
    # reached again on a strictly better g, and the optimum still holds.
    # seed=18 reopened until scores became differences of exactly rounded
    # set sums: other patterns then tie a sub-pattern exactly, 8 of its
    # 38 stored patterns changed, and that cover no longer reopens
    tables = build_score_tables(random_dataset(9, 150, seed=10)).tables
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
    with pytest.raises(MemoryBudgetError) as exc:
        bfbnb(tables, SimpleHeuristic(tables), empty_network(tables),
              mem_budget=2000)
    assert exc.value.stats.nodes_expanded > 0


@pytest.fixture(scope="module")
def r16_tables():
    return build_score_tables(random_dataset(16, 200, seed=500)).tables


@pytest.mark.parametrize("nodes", [50, 2000, 10000])
def test_bfbnb_stops_within_one_expansion_of_budget(r16_tables, nodes):
    # components [15, 1]; the budget is tested after each expansion, so
    # it is passed by one node's n = 16 successors at most, never a layer
    tables = r16_tables
    with pytest.raises(MemoryBudgetError) as exc:
        bfbnb(tables, SimpleHeuristic(tables), empty_network(tables),
              mem_budget=nodes * NODE_BYTES)
    assert exc.value.stats.nodes_generated <= nodes + 16


def test_reconstructed_score_matches_g_everywhere(fixture_tables):
    # every solver path: recomputed network score within 1e-9 of the path g
    for label, h in all_heuristics(fixture_tables):
        net, _ = astar(fixture_tables, h)
        total = 0.0
        for x in range(4):
            total += next(s for s, pa in fixture_tables[x].entries
                          if pa == net.parents[x])
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
            if tables[x].entries[0][1] & ~U == 0:
                via_x = best_in(tables[x], U)[0] + dist[U | 1 << x]
                assert abs(via_x - dist[U]) <= G_EPS * max(1.0, abs(dist[U])), \
                    (bin(U), x)
                forced += 1
    assert forced > 0


def test_forced_arcs_counted_by_both_solvers():
    tables = build_score_tables(random_dataset(8, 100, seed=203)).tables
    h = StaticHeuristic(tables, default_grouping(8))
    _, stats = astar(tables, h)
    assert stats.forced_skipped > 0
    _, stats = bfbnb(tables, h, initial_upper_bound(tables, seed=1))
    assert stats.forced_skipped > 0


@settings(derandomize=True, deadline=None, max_examples=150)
@given(n=st.integers(3, 8), N=st.integers(10, 500),
       seed=st.integers(0, 2 ** 16))
def test_solvers_match_oracles_on_random_data(n, N, seed):
    # columns permuted: random_dataset plants its network in index order
    data = permuted(random_dataset(n, N, seed=seed), seed)
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
    # the worst incumbent: the optimum does not depend on the bound
    nets.append(bfbnb(tables, SimpleHeuristic(tables),
                      empty_network(tables))[0])
    for net in nets:
        assert oracle.is_acyclic(net.parents)
        for ref in refs:
            assert abs(net.total_score - ref) <= 1e-9 * max(1.0, abs(ref))


def _reach(tables):
    """reach[y][x]: a path y -> ... -> x in the parent graph, found by
    depth-first search from every variable."""
    n = tables[0].n
    children = [[x for x in range(n)
                 if any(P >> y & 1 for _, P in tables[x].entries)]
                for y in range(n)]
    reach = []
    for y in range(n):
        seen, stack = set(), list(children[y])
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack += children[x]
        reach.append([x in seen for x in range(n)])
    return reach


def _component_inputs():
    # 3 <-> 4 feeds 1 <-> 2, which feeds 0: listed against index order
    yield "hand-built", [
        ScoreTable(0, 5, [(1.0, 0b00100), (2.0, 0)]),
        ScoreTable(1, 5, [(0.5, 0b00100), (1.0, 0b01000), (3.0, 0)]),
        ScoreTable(2, 5, [(1.0, 0b00010), (2.0, 0)]),
        ScoreTable(3, 5, [(1.0, 0b10000), (2.0, 0)]),
        ScoreTable(4, 5, [(1.0, 0b01000), (2.0, 0)])]
    for n, seed in itertools.product((5, 7, 9), range(8)):
        data = permuted(random_dataset(n, 40, seed=seed), seed)
        yield f"n={n} seed={seed}", build_score_tables(data).tables


@pytest.mark.parametrize("label,tables", list(_component_inputs()))
def test_components_are_ordered_sccs(label, tables):
    n = tables[0].n
    reach = _reach(tables)
    comps = components(tables)
    # a partition of the variables
    assert sorted(x for C in comps for x in bits(C)) == list(range(n))
    # in topological order: no entry draws a parent from a later component
    placed = 0
    for C in comps:
        placed |= C
        for x in bits(C):
            assert all(P & ~placed == 0 for _, P in tables[x].entries)
    # each strongly connected, and maximal
    where = {x: i for i, C in enumerate(comps) for x in bits(C)}
    for x in range(n):
        for y in range(n):
            if x != y:
                assert (where[x] == where[y]) == (reach[x][y] and reach[y][x])
    # ties go toward the lowest variable: each component holds the lowest
    # variable whose unlisted ancestors all lie in its own component
    listed = 0
    for C in comps:
        free = [x for x in range(n) if not listed >> x & 1
                and all(listed >> y & 1 or y == x or reach[x][y]
                        for y in range(n) if reach[y][x])]
        assert lowest(C) == free[0]
        listed |= C


def test_components_single_variable_and_hand_built():
    assert components(single_var_tables()) == [1]
    tables = next(_component_inputs())[1]
    assert components(tables) == [0b11000, 0b00110, 0b00001]


def test_split_search_matches_oracles_out_of_index_order():
    # inputs whose components cannot follow the index order: a component
    # with only high variables comes before one holding a lower variable
    cases = 0
    for n, seed in itertools.product((4, 5, 6, 7, 8), range(24)):
        data = permuted(random_dataset(n, 40, seed=seed), seed)
        tables = build_score_tables(data).tables
        lows = [lowest(C) for C in components(tables)]
        if lows == sorted(lows):
            continue
        cases += 1
        _, opt = dp_oracle(tables)
        refs = [opt]
        if n <= 6:
            rows = [tuple(r) for r in data.rows]
            raw = [oracle.all_scores(rows, data.arity, x, parent_limit(40))
                   for x in range(n)]
            refs.append(oracle.distances_to_goal(raw, n)[frozenset()])
        inc = initial_upper_bound(tables, seed=seed, restarts=2)
        for h in (SimpleHeuristic(tables), DynamicHeuristic(tables, 3),
                  StaticHeuristic(tables, default_grouping(n))):
            for net in (astar(tables, h)[0], bfbnb(tables, h, inc)[0]):
                assert oracle.is_acyclic(net.parents)
                for ref in refs:
                    assert abs(net.total_score - ref) <= \
                        1e-9 * max(1.0, abs(ref)), (n, seed)
    assert cases >= 20


def _two_pairs():
    """Variables 0-1 and 2-3 each form a cycle; each pair's optimum takes
    one arc (1.0 + 2.0 and 1.0 + 5.0), either way round."""
    return [ScoreTable(0, 4, [(1.0, 0b0010), (2.0, 0)]),
            ScoreTable(1, 4, [(1.0, 0b0001), (2.0, 0)]),
            ScoreTable(2, 4, [(1.0, 0b1000), (5.0, 0)]),
            ScoreTable(3, 4, [(1.0, 0b0100), (5.0, 0)])]


def test_bfbnb_component_keeps_incumbent_choice():
    tables = _two_pairs()
    h = SimpleHeuristic(tables)
    assert components(tables) == [0b0011, 0b1100]
    # the sweeps alone take 1 <- 0; the incumbent takes 0 <- 1, which is
    # optimal on its pair, and no arc on the other (2.0 + 1.0 + 5.0 + 5.0)
    assert dp_oracle(tables)[0].parents[:2] == [0, 0b0001]
    assert bfbnb(tables, h, empty_network(tables))[0].parents[:2] == \
        [0, 0b0001]
    inc = LearnedNetwork([0b0010, 0, 0, 0], 13.0)
    net, stats = bfbnb(tables, h, inc)
    assert net.parents == [0b0010, 0, 0, 0b0100]
    assert net.total_score == 9.0
    assert (stats.nodes_expanded, stats.nodes_generated) == (4, 5)
    # an incumbent optimal on every component keeps its parents and total
    best = LearnedNetwork([0b0010, 0, 0b1000, 0], 9.0)
    net, _ = bfbnb(tables, h, best)
    assert net.parents == best.parents
    assert net.total_score.hex() == best.total_score.hex()
    # hill climbing finds fixture4's optimum, so no sweep gets strictly
    # below it under any bound, and the network read back from the
    # incumbent's parent sets has its parents and total
    tables = read_score_file(DATA_DIR / "fixture4.scores").tables
    inc = initial_upper_bound(tables)
    assert inc.total_score == OPT_SCORE
    for h in (SimpleHeuristic(tables), DynamicHeuristic(tables, 3),
              StaticHeuristic(tables, default_grouping(4))):
        net, _ = bfbnb(tables, h, inc)
        assert net.parents == inc.parents
        assert net.total_score.hex() == inc.total_score.hex()


@pytest.mark.parametrize("n_parents", [3, 5])
def test_bfbnb_refuses_incumbent_of_wrong_length(n_parents):
    # one parent set per variable: a short list is not read past its end,
    # a long one is not cut short
    tables = _two_pairs()
    with pytest.raises(ValueError):
        bfbnb(tables, SimpleHeuristic(tables),
              LearnedNetwork([0] * n_parents, 0.0))


def test_budget_stats_sum_over_components():
    # three unrelated variables, then the cycle 3 <-> 4: four components,
    # searched in turn. A one-variable component stores 3 nodes, within
    # the 700-byte budget (3 nodes); the cycle's first expansion stores 5,
    # so the budget trips there, and the stats count all four components
    tables = [ScoreTable(x, 5, [(1.0, 0)]) for x in range(3)]
    tables += [ScoreTable(3, 5, [(1.0, 1 << 4), (2.0, 0)]),
               ScoreTable(4, 5, [(1.0, 1 << 3), (2.0, 0)])]
    assert components(tables) == [1, 2, 4, 0b11000]
    with pytest.raises(MemoryBudgetError) as exc:
        astar(tables, SimpleHeuristic(tables), mem_budget=700)
    stats = exc.value.stats
    assert (stats.nodes_expanded, stats.nodes_generated) == (3 + 1, 1 + 3 + 2)
    assert stats.component_sizes == [1, 1, 1, 2]
    net, stats = astar(tables, SimpleHeuristic(tables))
    assert (stats.nodes_expanded, stats.nodes_generated) == (3 + 2, 1 + 3 + 3)
    assert net.total_score == 6.0


def test_astar_holds_one_component_at_a_time():
    # eight one-variable components each store 3 nodes, within the
    # 1,500-byte budget (7 nodes); A* drops a component's nodes before
    # the next, so their sum over all eight does not count
    tables = [ScoreTable(x, 8, [(1.0, 0)]) for x in range(8)]
    assert components(tables) == [1 << x for x in range(8)]
    net, stats = astar(tables, SimpleHeuristic(tables), mem_budget=1500)
    assert (stats.nodes_expanded, stats.nodes_generated) == (8, 9)
    assert stats.component_sizes == [1] * 8
    assert net.parents == [0] * 8 and net.total_score == 8.0
