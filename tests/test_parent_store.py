import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from bnopt import (DataError, ScoreSet, ScoreTable, SimpleHeuristic, astar,
                   best_in, dp_oracle, read_score_file, write_score_file)
from bnopt.bitset import full_mask, mask_of
from bnopt.parent_store import cursor_exclude, ordered_sum
from bnopt.scoring import build_score_tables, parent_limit
from bnopt.synth import random_dataset

X2, X3, X4 = 0b0010, 0b0100, 0b1000


@pytest.fixture
def worked_table():
    return ScoreTable(0, 4, [(5.0, X2 | X3), (6.0, X3),
                             (8.0, X2), (10.0, 0)])


def _pool(t, excluded):
    """The candidate parents an exclusion mask leaves for t's variable."""
    return full_mask(t.n) & ~(excluded | 1 << t.variable)


def test_full_pool_admits_every_entry(worked_table):
    # nothing excluded: the answer over the full pool is the first entry
    assert _pool(worked_table, 0) == X2 | X3 | X4
    assert best_in(worked_table, X2 | X3 | X4) == (5.0, X2 | X3)


def test_single_entry_table():
    t = ScoreTable(0, 2, [(1.5, 0)])
    assert best_in(t, 0b10) == (1.5, 0)
    assert cursor_exclude(t, 0, 1) == 0b10
    assert best_in(t, _pool(t, 0b10)) == best_in(t, 0) == (1.5, 0)


def test_exclusion_chain_worked_example(worked_table):
    t = worked_table
    e3 = cursor_exclude(t, 0, 2)
    assert e3 == X3
    assert best_in(t, _pool(t, e3)) == best_in(t, X2 | X4) == (8.0, X2)
    e32 = cursor_exclude(t, e3, 1)
    assert e32 == X2 | X3
    assert best_in(t, _pool(t, e32)) == best_in(t, X4) == (10.0, 0)
    # X4 appears in no retained set, so excluding it changes nothing
    e4 = cursor_exclude(t, 0, 3)
    assert best_in(t, _pool(t, e4)) == best_in(t, X2 | X3) \
        == best_in(t, _pool(t, 0)) == (5.0, X2 | X3)


def test_cursors_are_persistent(worked_table):
    # deriving an exclusion leaves its parent mask and answer unchanged, so
    # the parent can branch again after a child was derived
    t = worked_table
    e = 0
    snapshot = best_in(t, _pool(t, e))
    e3 = cursor_exclude(t, e, 2)
    assert e == 0
    assert best_in(t, _pool(t, e)) == snapshot
    e2 = cursor_exclude(t, e, 1)
    assert best_in(t, _pool(t, e2)) == best_in(t, X3 | X4) == (6.0, X3)
    assert best_in(t, _pool(t, e3)) == best_in(t, X2 | X4) == (8.0, X2)


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
    t = worked_table
    with pytest.raises(ValueError, match="own variable"):
        cursor_exclude(t, 0, 0)
    e3 = cursor_exclude(t, 0, 2)
    with pytest.raises(ValueError, match="variable 2 already excluded"):
        cursor_exclude(t, e3, 2)
    for y in (4, -1):
        with pytest.raises(ValueError, match=f"index {y} out of range"):
            cursor_exclude(t, e3, y)
    # a refused exclusion leaves the caller's mask as it was
    assert e3 == X3


def _fitting_minimum(t, cands):
    return oracle.fitting_minimum(t.scores, t.parent_sets, cands)


def test_best_in_matches_fitting_minimum(worked_table):
    for cands in range(1 << 4):
        if cands & 1:
            continue
        excluded = 0
        for y in range(1, 4):
            if not cands >> y & 1:
                excluded = cursor_exclude(worked_table, excluded, y)
        assert _pool(worked_table, excluded) == cands
        got = best_in(worked_table, cands)
        assert got == _fitting_minimum(worked_table, cands)


def _equivalence_exhaustive(data, limit):
    scores = build_score_tables(data, max_parents=limit)
    n = data.n
    for x, t in enumerate(scores.tables):
        others = [y for y in range(n) if y != x]
        for m in range(1 << len(others)):
            cands = mask_of(others[j] for j in range(len(others)) if m >> j & 1)
            excl = [y for y in others if not cands >> y & 1]
            got = best_in(t, cands)
            # any exclusion order must leave the same pool and answer
            fwd = rev = 0
            for y in excl:
                fwd = cursor_exclude(t, fwd, y)
            for y in reversed(excl):
                rev = cursor_exclude(t, rev, y)
            assert _pool(t, fwd) == _pool(t, rev) == cands
            assert best_in(t, _pool(t, fwd)) == got
            assert best_in(t, _pool(t, rev)) == got
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
        excluded = 0
        prev_count, prev_best = len(t), best_in(t, _pool(t, 0))[0]
        for y in range(7):
            if y == x:
                continue
            excluded = cursor_exclude(t, excluded, y)
            count = sum(1 for pa in t.parent_sets if not pa & excluded)
            best = best_in(t, _pool(t, excluded))[0]
            assert count <= prev_count
            assert best >= prev_best
            prev_count, prev_best = count, best
        assert best_in(t, _pool(t, excluded)) == \
            (float(t.scores[t.parent_sets.index(0)]), 0)


def test_irrelevant_exclusion_is_identity():
    data = random_dataset(7, 80, seed=2)
    scores = build_score_tables(data)
    for x, t in enumerate(scores.tables):
        in_some_set = 0
        for p in t.parent_sets:
            in_some_set |= p
        for y in range(7):
            if y != x and not in_some_set >> y & 1:
                assert best_in(t, _pool(t, cursor_exclude(t, 0, y))) == \
                    best_in(t, _pool(t, 0))
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


# one or more characters, none of them whitespace (Z) or control (Cc)
NAMES = st.text(st.characters(codec="utf-8", exclude_categories=("Z", "Cc")),
                min_size=1, max_size=5)
# ties, and zeros of both signs, besides any finite float
SCORES = st.sampled_from([-1.5, -0.0, 0.0, 2.0]) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def score_sets(draw):
    """ScoreSets of 1-6 uniquely named variables; each table holds the
    empty set and other unique masks over the other variables, in any
    order, with ascending finite scores."""
    n = draw(st.integers(1, 6), label="n")
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True),
                 label="names")
    tables = []
    for x in range(n):
        others = [m for m in range(1, 1 << n) if not m >> x & 1]
        masks = [0]
        if others:
            masks += draw(st.lists(st.sampled_from(others), unique=True,
                                   max_size=7))
        masks = draw(st.permutations(masks))
        scores = sorted(draw(st.lists(SCORES, min_size=len(masks),
                                      max_size=len(masks))))
        tables.append(ScoreTable(x, n, list(zip(scores, masks))))
    return ScoreSet(names, tables)


@settings(derandomize=True, deadline=None)
@given(scores=score_sets())
def test_score_file_round_trip(tmp_path_factory, scores):
    path = tmp_path_factory.getbasetemp() / "round_trip.scores"
    write_score_file(path, scores)
    back = read_score_file(path)
    assert back.names == scores.names
    for t1, t2 in zip(scores.tables, back.tables, strict=True):
        assert t2.parent_sets == t1.parent_sets
        assert [s.hex() for s in t2.scores] == [s.hex() for s in t1.scores]
