import pytest

import oracle
from bnopt import (DynamicHeuristic, ScoreTable, SimpleHeuristic,
                   StaticHeuristic, best_in, default_grouping,
                   exact_distances_to_goal, parse_grouping,
                   pattern_cost_exact, read_score_file)
from bnopt import heuristics
from bnopt.bitset import bits, full_mask, mask_of
from bnopt.heuristics import check_pattern_cap
from bnopt.scoring import build_score_tables
from bnopt.synth import random_dataset
from conftest import (DATA_DIR, GREEDY_K2_AT_START, PAIR_AB_COST, PAIR_AB_DIFF,
                      SIMPLE_H_EMPTY, STATIC_H_AT_START, TRIPLE_ABC_COST,
                      TRIPLE_ABC_DIFF)

A, B, C, D = 1, 2, 4, 8


@pytest.fixture(scope="module")
def random_score_sets():
    """Score sets of random data, n = 5..10."""
    return [build_score_tables(random_dataset(n, N, seed=seed))
            for n, N, seed in ((5, 200, 5), (6, 150, 2), (7, 80, 29),
                               (8, 200, 4), (9, 300, 4), (10, 200, 7))]


def test_simple_h_boundaries(fixture_tables, random_score_sets):
    h = SimpleHeuristic(fixture_tables)
    assert h.value(0b1111) == 0.0
    for x in range(4):
        assert h.value(0b1111 ^ (1 << x)) == h.h0[x]
    assert h.value(0) == SIMPLE_H_EMPTY
    # the sum of the unsearched variables' heads, in ascending index order
    for tables in [fixture_tables] + [s.tables for s in random_score_sets]:
        n = tables[0].n
        h = SimpleHeuristic(tables)
        assert h.size == n
        h0 = [t.scores[0] for t in tables]
        for U in range(1 << n):
            expect = 0.0
            for x in range(n):
                if not U >> x & 1:
                    expect += h0[x]
            assert repr(h.value(U)) == repr(expect), (n, U)


def test_pattern_cost_singleton(fixture_tables):
    h0 = [t.scores[0] for t in fixture_tables]
    for x in range(4):
        assert pattern_cost_exact(1 << x, fixture_tables) == h0[x]


def test_pattern_cost_mutual_pair(fixture_tables):
    # the two cycle-breaking orders, each priced by hand
    b1 = best_in(fixture_tables[0], C | D)[0] + \
        best_in(fixture_tables[1], A | C | D)[0]
    b2 = best_in(fixture_tables[1], C | D)[0] + \
        best_in(fixture_tables[0], B | C | D)[0]
    cost = pattern_cost_exact(A | B, fixture_tables)
    assert cost == min(b1, b2) == PAIR_AB_COST


def test_pattern_cost_equals_goal_distance(fixture_tables):
    dist = exact_distances_to_goal(fixture_tables)
    full = 0b1111
    for P in range(1, 1 << 4):
        assert pattern_cost_exact(P, fixture_tables) == \
            pytest.approx(float(dist[full & ~P]), abs=1e-12)


def test_dynamic_pdb_contents_k2(fixture_tables):
    h = DynamicHeuristic(fixture_tables, 2)
    assert set(h.patterns) == {A | B}
    assert h.size == 4 + 1
    cost, diff = h.patterns[A | B]
    assert cost == PAIR_AB_COST
    assert diff == PAIR_AB_DIFF


def test_dynamic_pdb_contents_k3(fixture_tables):
    h = DynamicHeuristic(fixture_tables, 3)
    assert set(h.patterns) == {A | B, A | B | C}
    assert h.patterns[A | B | C] == (TRIPLE_ABC_COST, TRIPLE_ABC_DIFF)
    # {A,B,D} has the same differential as its subset {A,B}: pruned


def test_dynamic_needs_two_variables():
    # a cap of 2 needs two variables; one variable takes cap 1, and its
    # bound holds just the singleton
    tables = [ScoreTable(0, 1, [(1.0, 0)])]
    with pytest.raises(ValueError, match=r"pattern size cap 2 outside 1\.\.1"):
        DynamicHeuristic(tables, 2)
    assert DynamicHeuristic(tables, 1).size == 1


def test_dynamic_diffs_nonnegative():
    data = random_dataset(8, 100, seed=17)
    tables = build_score_tables(data).tables
    h = DynamicHeuristic(tables, 3)
    for P, (cost, diff) in h.patterns.items():
        assert diff > 0.0
        assert cost == pytest.approx(pattern_cost_exact(P, tables), abs=1e-9)


def test_greedy_no_pattern_is_simple(fixture_tables):
    h = DynamicHeuristic(fixture_tables, 2)
    h0 = h.h0
    # the unsearched {C, D} contains no stored pattern
    assert h.value(A | B) == h0[2] + h0[3]


def test_greedy_exact_pattern_hit(fixture_tables):
    h = DynamicHeuristic(fixture_tables, 2)
    # the unsearched {A, B} is exactly the stored pair
    assert h.value(C | D) == PAIR_AB_COST == h.h0[0] + h.h0[1] + PAIR_AB_DIFF


def test_greedy_start_node_golden(fixture_tables):
    h = DynamicHeuristic(fixture_tables, 2)
    assert h.value(0) == GREEDY_K2_AT_START
    # at k = 3 the cover is {A, B, C} plus the singleton D
    h3 = DynamicHeuristic(fixture_tables, 3)
    assert h3.value(0) == sum(h3.h0) + TRIPLE_ABC_DIFF


def test_greedy_cover_bit_identical_to_one_pass(random_score_sets):
    # the bit-vector cover picks the patterns a pass over order picks, in
    # the same order, so every value is the same float
    sets = [read_score_file(DATA_DIR / "fixture4.scores"), *random_score_sets]
    for scores in sets:
        tables = scores.tables
        n = scores.n
        for k in sorted({2, 3, n}):
            h = DynamicHeuristic(tables, k)
            order = oracle.greedy_order(
                {P: diff for P, (_, diff) in h.patterns.items()})
            assert h.order == order
            assert h.size == n + len(h.patterns)
            for U in range(1 << n):
                assert repr(h.value(U)) == repr(
                    oracle.greedy_cover(order, h.h0, U)), (n, k, U)


def test_greedy_order_fixture_golden():
    scores = read_score_file(DATA_DIR / "fixture4.scores")
    h2, h3 = (DynamicHeuristic(scores.tables, k) for k in (2, 3))
    assert (h2.order, h2.size) == ([(A | B, PAIR_AB_DIFF)], 5)
    assert (h3.order, h3.size) == ([(A | B | C, TRIPLE_ABC_DIFF),
                                    (A | B, PAIR_AB_DIFF)], 6)


def _greedy_reference(R, cost_diff, h0):
    """Greedy cover re-derived from an explicit pattern table."""
    value = sum(h0[x] for x in bits(R))
    remaining = R
    while True:
        fits = [(d, p.bit_count(), p) for p, d in cost_diff.items()
                if p & ~remaining == 0]
        if not fits:
            break
        best = max(fits, key=lambda t: (t[0], -t[1], -t[2]))
        remaining &= ~best[2]
        value += best[0]
    return value


def test_greedy_pruning_safe(fixture_tables):
    # value with the pruned store equals the value with every pattern priced
    h0 = [t.scores[0] for t in fixture_tables]
    h = DynamicHeuristic(fixture_tables, 3)
    unpruned = {}
    for P in range(1, 1 << 4):
        if 2 <= P.bit_count() <= 3:
            cost = pattern_cost_exact(P, fixture_tables)
            diff = cost - sum(h0[x] for x in bits(P))
            if diff > 0.0:
                unpruned[P] = diff
    for U in range(1 << 4):
        R = 0b1111 & ~U
        assert h.value(U) == pytest.approx(
            _greedy_reference(R, unpruned, h0), abs=1e-12)


def test_greedy_pruning_safe_k4_random():
    # deeper patterns: stored subsets of a size-4 pattern are no longer all
    # immediate, so this exercises the pruning rule beyond the default k
    data = random_dataset(6, 80, seed=47)
    tables = build_score_tables(data).tables
    h0 = [t.scores[0] for t in tables]
    h = DynamicHeuristic(tables, 4)
    unpruned = {}
    for P in range(1, 1 << 6):
        if 2 <= P.bit_count() <= 4:
            cost = pattern_cost_exact(P, tables)
            diff = cost - sum(h0[x] for x in bits(P))
            if diff > 0.0:
                unpruned[P] = diff
    for U in range(1 << 6):
        R = 0b111111 & ~U
        assert h.value(U) == pytest.approx(
            _greedy_reference(R, unpruned, h0), abs=1e-9)


def test_default_grouping():
    assert default_grouping(8) == [0x0F, 0xF0]
    g = default_grouping(29)
    assert g[0].bit_count() == 15 and g[1].bit_count() == 14
    assert default_grouping(2) == [1, 2]


def test_parse_grouping():
    assert parse_grouping("auto", 8) == default_grouping(8)
    assert parse_grouping("1-4,5-8", 8) == [0x0F, 0xF0]
    assert parse_grouping("1-2,3,4", 4) == [0b0011, 0b0100, 0b1000]
    with pytest.raises(ValueError):
        parse_grouping("1-9", 4)
    for bad in ("1-a", "x", "-3", "1-2-3", "1-2 4"):
        with pytest.raises(ValueError, match=f"--groups: group '{bad}' "):
            parse_grouping(f"{bad},4", 4)


@pytest.mark.parametrize("groups", ["1-3,3-4", "1-2"])  # overlap, not covering
def test_static_grouping_must_partition(fixture_tables, groups):
    with pytest.raises(ValueError, match="partition"):
        StaticHeuristic(fixture_tables, parse_grouping(groups, 4))


def test_static_pdb_fixture_tables(fixture_tables):
    pdb = StaticHeuristic(fixture_tables, default_grouping(4))
    assert pdb.costs == [
        {0: 0.0, A: 3.0, B: 3.0, A | B: PAIR_AB_COST},
        {0: 0.0, C: 9.490224995673064, D: 9.5, C | D: 18.990224995673064},
    ]
    # group-local patterns priced exactly like free-standing patterns whose
    # complement keeps all out-of-group variables
    for gi, g in enumerate(pdb.groups):
        for P in range(1, 1 << 4):
            if P & ~g:
                continue
            assert pdb.costs[gi][P] == \
                pytest.approx(pattern_cost_exact(P, fixture_tables), abs=1e-12)


def test_static_pdb_basics(fixture_tables):
    pdb = StaticHeuristic(fixture_tables, default_grouping(4))
    h0 = [t.scores[0] for t in fixture_tables]
    for gi, g in enumerate(pdb.groups):
        assert pdb.costs[gi][0] == 0.0
        for x in bits(g):
            assert pdb.costs[gi][1 << x] == h0[x]


def test_static_pdb_group_cap():
    # one 26-variable group: refused before its 2^26-entry sweep starts
    tables = [ScoreTable(x, 26, [(0.0, 0)]) for x in range(26)]
    with pytest.raises(ValueError, match="cap"):
        StaticHeuristic(tables, [full_mask(26)])


def test_dynamic_pdb_pattern_cap(monkeypatch):
    # k = 30 over 30 variables would price 2^30 patterns: refused before
    # the sweep starts, like a static group above GROUP_CAP
    tables = [ScoreTable(x, 30, [(0.0, 0)]) for x in range(30)]
    monkeypatch.setattr(heuristics, "pattern_costs",
                        lambda *a: pytest.fail("pattern sweep started"))
    for k in (30, 10):
        with pytest.raises(ValueError, match=f"pattern size cap {k} over "
                                             r"30 variables prices \d+ "
                                             r"patterns, over the cap 2\^25"):
            DynamicHeuristic(tables, k)
    check_pattern_cap(9, 30)  # 22,964,087 patterns fit under 2^25


def test_static_h_fixture(fixture_tables):
    pdb = StaticHeuristic(fixture_tables, default_grouping(4))
    assert pdb.value(0b1111) == 0.0
    assert pdb.value(0) == STATIC_H_AT_START
    h = SimpleHeuristic(fixture_tables)
    for U in range(1 << 4):
        assert pdb.value(U) >= h.value(U) - 1e-12


def test_static_h_two_pattern_sum():
    # eight variables, node {X1,X4,X8}: remaining split into {X2,X3} and
    # {X5,X6,X7} by the half-half grouping
    data = random_dataset(8, 100, seed=23)
    tables = build_score_tables(data).tables
    pdb = StaticHeuristic(tables, default_grouping(8))
    U = mask_of([0, 3, 7])
    left = pdb.costs[0][mask_of([1, 2])]
    right = pdb.costs[1][mask_of([4, 5, 6])]
    assert pdb.value(U) == pytest.approx(float(left + right), abs=0)


def test_static_h_incremental_contract():
    data = random_dataset(6, 80, seed=31)
    tables = build_score_tables(data).tables
    pdb = StaticHeuristic(tables, default_grouping(6))
    for U in range(1 << 6):
        for x in bits(0b111111 & ~U):
            gi = next(i for i, g in enumerate(pdb.groups) if g >> x & 1)
            g = pdb.groups[gi]
            delta = (pdb.costs[gi][g & ~U & ~(1 << x)]
                     - pdb.costs[gi][g & ~U])
            assert pdb.value(U | 1 << x) == pytest.approx(
                pdb.value(U) + float(delta), abs=1e-12)


def test_static_pdb_three_groups_exact():
    # groups of sizes 1, 2 and 3, not the default halves
    data = random_dataset(6, 80, seed=37)
    tables = build_score_tables(data).tables
    pdb = StaticHeuristic(tables, parse_grouping("1,2-3,4-6", 6))
    assert pdb.groups == [0b000001, 0b000110, 0b111000]
    assert pdb.size == 2 + 4 + 8
    for g, cost in zip(pdb.groups, pdb.costs):
        assert set(cost) == {P for P in range(1 << 6) if P & ~g == 0}
        for P in cost:
            if P:
                assert cost[P] == pytest.approx(
                    pattern_cost_exact(P, tables), abs=1e-12)


def test_static_single_group_is_exact_distance():
    data = random_dataset(6, 80, seed=39)
    tables = build_score_tables(data).tables
    pdb = StaticHeuristic(tables, [full_mask(6)])
    dist = exact_distances_to_goal(tables)
    for U in range(1 << 6):
        assert pdb.value(U) == dist[U]


def _admissibility_dominance_consistency(data, ks=(2, 3)):
    tables = build_score_tables(data).tables
    n = data.n
    full = full_mask(n)
    dist = exact_distances_to_goal(tables)
    simple = SimpleHeuristic(tables)
    dyn = [DynamicHeuristic(tables, k) for k in ks]
    stat = StaticHeuristic(tables, default_grouping(n))
    for U in range(1 << n):
        d = float(dist[U])
        sv = simple.value(U)
        assert sv <= d + 1e-9
        for h in dyn:
            v = h.value(U)
            assert v <= d + 1e-9
            assert v >= sv - 1e-12
        v = stat.value(U)
        assert v <= d + 1e-9
        assert v >= sv - 1e-12
    for U in range(1 << n):
        for x in bits(full & ~U):
            arc = best_in(tables[x], U)[0]
            assert simple.value(U) <= arc + simple.value(U | 1 << x) + 1e-9
            assert stat.value(U) <= arc + stat.value(U | 1 << x) + 1e-9
    # every stored pattern is priced at its exact goal distance
    for h in dyn:
        for P, (cost, _) in h.patterns.items():
            assert cost == pytest.approx(float(dist[full & ~P]), abs=1e-9)


def test_admissibility_fixture(fixture_data):
    _admissibility_dominance_consistency(fixture_data)


def test_admissibility_random_n7():
    _admissibility_dominance_consistency(random_dataset(7, 90, seed=41))


def test_admissibility_random_n8():
    _admissibility_dominance_consistency(random_dataset(8, 150, seed=43))
