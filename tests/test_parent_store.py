import pytest

from bnopt import (DataError, ScoreTable, best_in, best_score_naive,
                   cursor_best, cursor_exclude, cursor_new)
from bnopt.bitset import bit_string, mask_of
from bnopt.scoring import build_score_tables, parent_limit
from bnopt.synth import random_dataset

X2, X3, X4 = 0b0010, 0b0100, 0b1000


@pytest.fixture
def worked_table():
    return ScoreTable.from_entries(0, 4, [(5.0, X2 | X3), (6.0, X3),
                                          (8.0, X2), (10.0, 0)])


def test_fresh_cursor_all_valid(worked_table):
    c = cursor_new(worked_table)
    assert bit_string(c.valid, len(c)) == "1111"
    assert c.excluded == 0
    assert cursor_best(c) == (5.0, X2 | X3)


def test_single_entry_table():
    t = ScoreTable.from_entries(0, 2, [(1.5, 0)])
    c = cursor_new(t)
    assert bit_string(c.valid, 1) == "1"
    assert cursor_best(c) == (1.5, 0)


def test_exclusion_chain_worked_example(worked_table):
    c = cursor_new(worked_table)
    c3 = cursor_exclude(c, 2)
    assert bit_string(c3.valid, 4) == "0011"
    assert cursor_best(c3) == (8.0, X2)
    c32 = cursor_exclude(c3, 1)
    assert bit_string(c32.valid, 4) == "0001"
    assert cursor_best(c32) == (10.0, 0)
    # X4 appears in no retained set, so excluding it changes nothing
    c4 = cursor_exclude(c, 3)
    assert bit_string(c4.valid, 4) == "1111"


def test_cursors_are_persistent(worked_table):
    c = cursor_new(worked_table)
    snapshot = c.valid
    c3 = cursor_exclude(c, 2)
    assert c.valid == snapshot
    assert c.excluded == 0
    # the parent cursor can branch again after a child was derived
    c2 = cursor_exclude(c, 1)
    assert bit_string(c2.valid, 4) == "0101"
    assert cursor_best(c2) == (6.0, X3)
    assert bit_string(c3.valid, 4) == "0011"


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
            ScoreTable.from_entries(0, n, entries)


def test_exclude_preconditions(worked_table):
    c = cursor_new(worked_table)
    with pytest.raises(ValueError):
        cursor_exclude(c, 0)  # the table's own variable
    c3 = cursor_exclude(c, 2)
    with pytest.raises(ValueError):
        cursor_exclude(c3, 2)  # already excluded


def test_best_in_matches_cursor(worked_table):
    for cands in range(1 << 4):
        if cands & 1:
            continue
        got = best_in(worked_table, cands)
        assert got == best_score_naive(worked_table, cands)


def _equivalence_exhaustive(data, limit):
    scores = build_score_tables(data, max_parents=limit)
    n = data.n
    for x, t in enumerate(scores.tables):
        others = [y for y in range(n) if y != x]
        for m in range(1 << len(others)):
            cands = mask_of(others[j] for j in range(len(others)) if m >> j & 1)
            excl = [y for y in others if not cands >> y & 1]
            naive = best_score_naive(t, cands)
            # any exclusion order must land on the same answer
            fwd = cursor_new(t)
            for y in excl:
                fwd = cursor_exclude(fwd, y)
            rev = cursor_new(t)
            for y in reversed(excl):
                rev = cursor_exclude(rev, y)
            assert cursor_best(fwd) == naive
            assert cursor_best(rev) == naive
            assert best_in(t, cands) == naive


def test_equivalence_fixture(fixture_data):
    _equivalence_exhaustive(fixture_data, 2)


def test_equivalence_random_n8():
    data = random_dataset(8, 100, seed=13)
    _equivalence_exhaustive(data, parent_limit(100))


def test_popcount_never_increases():
    data = random_dataset(7, 80, seed=2)
    scores = build_score_tables(data)
    for x, t in enumerate(scores.tables):
        c = cursor_new(t)
        prev = len(t)
        for y in range(7):
            if y == x:
                continue
            c = cursor_exclude(c, y)
            cur = c.valid.bit_count()
            assert cur <= prev
            prev = cur
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
                assert c2.valid == c.valid


def test_wide_table_multiple_words():
    # > 64 entries: rows wider than a machine word
    entries = [(float(i), mask_of({j for j in range(1, 8) if i >> (j - 1) & 1}))
               for i in range(100)]
    t = ScoreTable.from_entries(0, 8, entries)
    for cands in (0, 0b10, 0b1010100, 0b11111110):
        assert best_in(t, cands) == best_score_naive(t, cands)
