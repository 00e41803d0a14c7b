import pytest

import oracle
from bnopt import (DataError, ScoreTable, SimpleHeuristic, astar, best_in,
                   dp_oracle)
from bnopt.bitset import mask_of
from bnopt.parent_store import (cursor_best, cursor_exclude, cursor_new,
                                ordered_sum)
from bnopt.scoring import build_score_tables, parent_limit
from bnopt.synth import random_dataset

X2, X3, X4 = 0b0010, 0b0100, 0b1000


@pytest.fixture
def worked_table():
    return ScoreTable(0, 4, [(5.0, X2 | X3), (6.0, X3),
                             (8.0, X2), (10.0, 0)])


def test_fresh_cursor_all_valid(worked_table):
    # every entry is admissible: the answer over the full pool
    c = cursor_new(worked_table)
    assert c.excluded == 0
    assert cursor_best(c) == best_in(worked_table, X2 | X3 | X4) \
        == (5.0, X2 | X3)


def test_single_entry_table():
    t = ScoreTable(0, 2, [(1.5, 0)])
    c = cursor_new(t)
    assert cursor_best(c) == best_in(t, 0b10) == (1.5, 0)
    assert cursor_best(cursor_exclude(c, 1)) == best_in(t, 0) == (1.5, 0)


def test_exclusion_chain_worked_example(worked_table):
    c = cursor_new(worked_table)
    c3 = cursor_exclude(c, 2)
    assert cursor_best(c3) == best_in(worked_table, X2 | X4) == (8.0, X2)
    c32 = cursor_exclude(c3, 1)
    assert cursor_best(c32) == best_in(worked_table, X4) == (10.0, 0)
    # X4 appears in no retained set, so excluding it changes nothing
    c4 = cursor_exclude(c, 3)
    assert cursor_best(c4) == best_in(worked_table, X2 | X3) \
        == cursor_best(c) == (5.0, X2 | X3)


def test_cursors_are_persistent(worked_table):
    c = cursor_new(worked_table)
    snapshot = cursor_best(c)
    c3 = cursor_exclude(c, 2)
    assert cursor_best(c) == snapshot
    assert c.excluded == 0
    # the parent cursor can branch again after a child was derived
    c2 = cursor_exclude(c, 1)
    assert cursor_best(c2) == best_in(worked_table, X3 | X4) == (6.0, X3)
    assert cursor_best(c3) == best_in(worked_table, X2 | X4) == (8.0, X2)


def test_missing_empty_set_raises():
    # a table is checked once, when built (a real error, also under
    # python -O), so no query can run past its last entry or take a first
    # fit that is not the best
    for n, entries, what in (
            (3, [(1.0, 0b010), (2.0, 0b100)], "lacks the empty parent set"),
            (3, [], "lacks the empty parent set"),
            (2, [(5.0, 0), (1.0, 0b10)], "is not in ascending order")):
        with pytest.raises(DataError,
                           match=f"score table of variable 0 {what}"):
            ScoreTable(0, n, entries)


def test_constructor_rejects_unsorted_table():
    # read as given, variable 0's first entry would be its best for every
    # pool and A* would return 7.0; sorted, A* finds the optimum 2.0
    entries = [(6.0, 0b10), (1.0, 0)]
    with pytest.raises(DataError, match="score table of variable 0 is not "
                                        "in ascending order at entry 1"):
        ScoreTable(0, 2, entries)
    tables = [ScoreTable(0, 2, sorted(entries)), ScoreTable(1, 2, [(1.0, 0)])]
    net, _ = astar(tables, SimpleHeuristic(tables))
    assert net.total_score == dp_oracle(tables)[1] == 2.0


def _outside(x, n, i, mask):
    return (f"score table of variable {x} names a parent outside the other "
            fr"{n - 1} variables at entry {i} \(mask {mask:#b}\)$")


@pytest.mark.parametrize("mask", [0b100, 0b110, -1])
def test_constructor_rejects_parent_outside_the_variables(mask):
    # unchecked, a bit at or above n sent A* into an IndexError inside
    # search.components
    with pytest.raises(DataError, match=_outside(0, 2, 0, mask)):
        ScoreTable(0, 2, [(1.0, mask), (2.0, 0)])


def test_constructor_rejects_own_variable_as_parent():
    # such an entry fits no candidate pool, yet the simple bound read it
    for x, mask in ((0, 0b001), (1, 0b110)):
        with pytest.raises(DataError, match=_outside(x, 3, 1, mask)):
            ScoreTable(x, 3, [(0.5, 0), (1.0, mask)])


def test_exclude_preconditions(worked_table):
    c = cursor_new(worked_table)
    with pytest.raises(ValueError):
        cursor_exclude(c, 0)  # the table's own variable
    c3 = cursor_exclude(c, 2)
    with pytest.raises(ValueError):
        cursor_exclude(c3, 2)  # already excluded


def _fitting_minimum(t, cands):
    return oracle.fitting_minimum(t.scores, t.parent_sets, cands)


def test_best_in_matches_cursor(worked_table):
    for cands in range(1 << 4):
        if cands & 1:
            continue
        c = cursor_new(worked_table)
        for y in range(1, 4):
            if not cands >> y & 1:
                c = cursor_exclude(c, y)
        got = best_in(worked_table, cands)
        assert got == cursor_best(c) == _fitting_minimum(worked_table, cands)


def _equivalence_exhaustive(data, limit):
    scores = build_score_tables(data, max_parents=limit)
    n = data.n
    for x, t in enumerate(scores.tables):
        others = [y for y in range(n) if y != x]
        for m in range(1 << len(others)):
            cands = mask_of(others[j] for j in range(len(others)) if m >> j & 1)
            excl = [y for y in others if not cands >> y & 1]
            got = best_in(t, cands)
            # any exclusion order must land on the same answer
            fwd = cursor_new(t)
            for y in excl:
                fwd = cursor_exclude(fwd, y)
            rev = cursor_new(t)
            for y in reversed(excl):
                rev = cursor_exclude(rev, y)
            assert cursor_best(fwd) == got
            assert cursor_best(rev) == got
            # a fitting entry with the least score (ties may list either
            # parent set first)
            assert got[1] & ~cands == 0
            assert got[0] == _fitting_minimum(t, cands)[0]


def test_equivalence_fixture(fixture_data):
    _equivalence_exhaustive(fixture_data, 2)


def test_equivalence_random_n8():
    data = random_dataset(8, 100, seed=13)
    _equivalence_exhaustive(data, parent_limit(100))


def test_popcount_never_increases():
    # excluding variables only shrinks the admissible entries, so the best
    # score never decreases along a chain
    data = random_dataset(7, 80, seed=2)
    scores = build_score_tables(data)
    for x, t in enumerate(scores.tables):
        c = cursor_new(t)
        prev_count, prev_best = len(t), cursor_best(c)[0]
        for y in range(7):
            if y == x:
                continue
            c = cursor_exclude(c, y)
            count = sum(1 for pa in t.parent_sets if not pa & c.excluded)
            best = cursor_best(c)[0]
            assert count <= prev_count
            assert best >= prev_best
            prev_count, prev_best = count, best
        assert cursor_best(c) == (float(t.scores[t.parent_sets.index(0)]), 0)


def test_irrelevant_exclusion_is_identity():
    data = random_dataset(7, 80, seed=2)
    scores = build_score_tables(data)
    for x, t in enumerate(scores.tables):
        in_some_set = 0
        for p in t.parent_sets:
            in_some_set |= p
        c = cursor_new(t)
        for y in range(7):
            if y != x and not in_some_set >> y & 1:
                c2 = cursor_exclude(c, y)
                assert cursor_best(c2) == cursor_best(c)
                # nor does it change the answer over any other pool
                for cands in range(1 << 7):
                    if not cands >> x & 1:
                        assert best_in(t, cands & ~(1 << y)) == \
                            best_in(t, cands | 1 << y)


def test_wide_table_multiple_words():
    # > 64 entries, with the first fit of a sparse pool deep in the list
    entries = [(float(i), mask_of({j for j in range(1, 8) if i >> (j - 1) & 1}))
               for i in range(100)]
    t = ScoreTable(0, 8, entries)
    for cands in (0, 0b10, 0b1010100, 0b11111110):
        assert best_in(t, cands) == _fitting_minimum(t, cands)


def test_ordered_sum_adds_left_to_right():
    # a compensated sum (math.fsum, or sum() on Python 3.12+) gives 1.0
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum(x / 10 for x in (1, 2, 3)) == 0.1 + 0.2 + 0.3
    assert ordered_sum([]) == 0.0
