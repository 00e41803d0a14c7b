import math
import os
import subprocess
import sys
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from bnopt import (DataError, Dataset, ScoreTable, best_in,
                   build_score_tables, counts, format_score_file,
                   load_dataset, mdl_local_score, parent_limit,
                   read_score_file, write_score_file)
from bnopt import dataset, scoring
from bnopt.bitset import mask_of
from bnopt.synth import random_dataset
from conftest import SCORE_C_GIVEN_A


def test_mdl_zero_entropy_pair(fixture_data):
    # B repeats A's split exactly, so only the penalty term remains
    assert mdl_local_score(fixture_data, 0, 0b10) == 3.0


def test_mdl_uniform_marginal(fixture_data):
    # 8 * H(4/8) + log2(8)/2 = 8 + 1.5
    assert mdl_local_score(fixture_data, 0, 0) == 9.5


def test_mdl_two_parent_golden(fixture_data):
    assert mdl_local_score(fixture_data, 0, 0b110) == 6.0


def test_mdl_one_parent_golden(fixture_data):
    assert mdl_local_score(fixture_data, 2, 0b1) == pytest.approx(
        SCORE_C_GIVEN_A, abs=0)


def test_mdl_matches_reference_everywhere(fixture_data):
    rows = [tuple(r) for r in fixture_data.rows]
    for x in range(4):
        raw = oracle.all_scores(rows, fixture_data.arity, x, 3)
        for pa, expect in raw.items():
            got = mdl_local_score(fixture_data, x, mask_of(pa))
            assert got == pytest.approx(expect, abs=1e-12)


def test_mdl_entropy_plain_dict_reference():
    rng = np.random.default_rng(6)
    xcol = rng.integers(0, 2, size=200)
    pcol = rng.integers(0, 6, size=200)
    data = Dataset(["X", "P"], [2, 6],
                   np.column_stack([xcol, pcol]).astype(np.int64))
    joint, pa = {}, {}
    for x, p in zip(xcol.tolist(), pcol.tolist()):
        joint[x, p] = joint.get((x, p), 0) + 1
        pa[p] = pa.get(p, 0) + 1
    nh = -sum(c * math.log2(c / pa[p]) for (_, p), c in joint.items())
    penalty = math.log2(200) / 2.0 * 6
    assert mdl_local_score(data, 0, 0b10) == pytest.approx(nh + penalty,
                                                           abs=1e-9)


def test_mdl_entropy_degenerate_columns():
    ones = np.ones(10, dtype=np.int64)
    half = np.array([0, 1] * 5, dtype=np.int64)
    data = Dataset(["C", "U"], [2, 2], np.column_stack([ones, half]))
    penalty = math.log2(10) / 2.0
    # deterministic column: no uncertainty left, only the penalty
    assert mdl_local_score(data, 0, 0) == penalty
    # uniform binary column, no parents: N bits
    assert mdl_local_score(data, 1, 0) == pytest.approx(10.0 + penalty)


def sequential_score(data, x, pa):
    """Per-set reference: N*H(x|pa) summed one term at a time, marginal
    terms then joint terms in index order, with libm's log2, plus the MDL
    penalty."""
    joint = counts(data, x, pa).T  # (parent config, x value)
    npa, rx = joint.shape
    marginal = joint.sum(axis=1)
    nh = 0.0
    for c in marginal[marginal > 1].tolist():
        nh += c * math.log2(c)
    for c in joint[joint > 1].tolist():
        nh -= c * math.log2(c)
    return nh + math.log2(data.N) / 2.0 * (rx - 1) * npa


def _ones_7957_csv(tmp_path):
    # on a host where numpy's log2 dispatches to AVX-512, its log2(7957)
    # differs from libm's in the last bit
    p = tmp_path / "ones7957.csv"
    rows = [f"{int(i < 7957)},{i % 2},{i % 3}\n" for i in range(10_000)]
    p.write_text("A,B,C\n" + "".join(rows))
    return p


def test_scores_use_libm_log2(tmp_path):
    # A alone, 2,043 zeros then 7,957 ones: the marginal term, then the
    # joint terms in index order, then the penalty
    data = load_dataset(_ones_7957_csv(tmp_path))
    nh = 10_000 * math.log2(10_000)
    nh -= 2043 * math.log2(2043)
    nh -= 7957 * math.log2(7957)
    expect = nh + math.log2(10_000) / 2.0
    assert mdl_local_score(data, 0, 0) == expect
    a = build_score_tables(data).tables[0]
    assert (a.scores[0], a.parent_sets[0]) == (expect, 0)
    assert f"{expect:.17g}" == "7311.0956269440003"


def test_score_bytes_independent_of_numpy_dispatch(tmp_path):
    p = _ones_7957_csv(tmp_path)
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    runs = [subprocess.run([sys.executable, "-m", "bnopt", "score", str(p)],
                           capture_output=True, env={**env, **extra})
            for extra in ({}, {"NPY_DISABLE_CPU_FEATURES":
                               "X86_V4 AVX512_ICL AVX512_SPR"})]
    assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.splitlines()[2] == b"7311.0956269440003 0"


@st.composite
def mixed_arity_data(draw):
    """Seeded random records, arity 2-4 per column; small N leaves many
    cells with counts 0 and 1."""
    n = draw(st.integers(2, 5))
    N = draw(st.integers(2, 200))
    arity = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.column_stack([rng.integers(0, r, size=N) for r in arity])
    return Dataset([f"X{i}" for i in range(n)], arity, rows.astype(np.int64))


def streamed_scores(data, limit):
    """family_scores as one (mask -> score) map per variable, checking that
    each family arrives once and after every family of a proper subset."""
    raw = [{} for _ in range(data.n)]
    for x, pa, s in scoring.family_scores(data, limit):
        assert pa not in raw[x] and not pa >> x & 1, (x, bin(pa))
        assert all(pa ^ 1 << y in raw[x] for y in range(data.n)
                   if pa >> y & 1), (x, bin(pa))
        raw[x][pa] = s
    return raw


def _assert_tables_are_pruned(scores, raw):
    for x, table in enumerate(scores.tables):
        assert list(zip(table.scores, table.parent_sets)) == \
            oracle.prune_scores(raw[x]), x


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=mixed_arity_data(), draw=st.data())
def test_batched_scores_bit_identical(data, draw):
    limit = draw.draw(st.integers(0, parent_limit(data.N)), label="limit")
    # any batch size, so that flushes fall mid-walk as well as at its end
    batch = draw.draw(st.integers(1, 2 * scoring.BATCH_CELLS), label="batch")
    with mock.patch.object(scoring, "BATCH_CELLS", batch):
        raw = streamed_scores(data, limit)
        scores = build_score_tables(data, max_parents=limit)
    for x in range(data.n):
        others = [y for y in range(data.n) if y != x]
        expect = {mask_of(c): sequential_score(data, x, mask_of(c))
                  for k in range(min(limit, len(others)) + 1)
                  for c in combinations(others, k)}
        assert raw[x].keys() == expect.keys()
        for pa, s in expect.items():
            assert raw[x][pa] == s, (x, bin(pa), raw[x][pa].hex(), s.hex())
            assert mdl_local_score(data, x, pa) == s, (x, bin(pa))
    _assert_tables_are_pruned(scores, raw)


def test_streamed_tables_equal_pruning_for_every_batch_size():
    # mixed arities give tables of 2 to 48 cells; every batch size up to
    # past the largest moves the flushes, and with them the arrival order
    arity = [2, 3, 2, 4]
    rng = np.random.default_rng(12)
    data = Dataset(list("ABCD"), arity, np.column_stack(
        [rng.integers(0, r, size=40) for r in arity]).astype(np.int64))
    limit = parent_limit(data.N)
    for batch in range(1, 101):
        with mock.patch.object(scoring, "BATCH_CELLS", batch):
            raw = streamed_scores(data, limit)
            scores = build_score_tables(data)
        _assert_tables_are_pruned(scores, raw)


def _all_scores_match(data):
    limit = parent_limit(data.N)
    raw = streamed_scores(data, limit)
    for x in range(data.n):
        others = [y for y in range(data.n) if y != x]
        assert len(raw[x]) == sum(math.comb(len(others), k)
                                  for k in range(min(limit, len(others)) + 1))
        for pa, s in raw[x].items():
            expect = sequential_score(data, x, pa)
            assert s == expect, (x, bin(pa), s.hex(), expect.hex())


def duplicate_heavy_data(N=3000, seed=11):
    # 2 * 3 * 4 * 2 * 3 = 144 possible records, so most of the N repeat
    arity = [2, 3, 4, 2, 3]
    rng = np.random.default_rng(seed)
    rows = np.column_stack([rng.integers(0, r, size=N) for r in arity])
    return Dataset([f"X{i}" for i in range(5)], arity, rows.astype(np.int64))


def test_weighted_scores_bit_identical_on_duplicates():
    data = duplicate_heavy_data()
    assert data.distinct[0].shape[1] <= 144 < data.N
    _all_scores_match(data)


def test_weighted_scores_bit_identical_all_distinct():
    # every record of the 2 * 3 * 2 * 4 grid once, in shuffled order
    arity = [2, 3, 2, 4]
    grid = np.array(list(product(*(range(r) for r in arity))), dtype=np.int64)
    rows = grid[np.random.default_rng(3).permutation(len(grid))]
    data = Dataset(["A", "B", "C", "D"], arity, rows)
    cols, weights = data.distinct
    assert cols.shape == (4, 48) and weights.tolist() == [1.0] * 48
    _all_scores_match(data)


def test_distinct_weights_reproduce_counts():
    data = duplicate_heavy_data(seed=5)
    cols, weights = data.distinct
    assert data.distinct is data.distinct  # computed once per dataset
    assert weights.dtype == np.float64 and weights.sum() == data.N
    assert cols.flags.c_contiguous and cols.shape[0] == data.n
    # the distinct records are distinct and cover every record
    assert len({tuple(r) for r in cols.T.tolist()}) == cols.shape[1]
    assert {tuple(r) for r in cols.T.tolist()} == \
        {tuple(r) for r in data.rows.tolist()}
    rng = np.random.default_rng(9)
    for _ in range(30):
        x = int(rng.integers(data.n))
        pa = int(rng.integers(1 << data.n)) & ~(1 << x)
        codes = np.zeros(cols.shape[1], dtype=np.int64)
        stride = 1
        for y in range(data.n):
            if pa >> y & 1:
                codes += cols[y] * stride
                stride *= data.arity[y]
        rx = data.arity[x]
        table = np.bincount(codes * rx + cols[x], weights,
                            minlength=stride * rx).reshape(stride, rx).T
        assert np.array_equal(table, counts(data, x, pa)), (x, bin(pa))


def test_score_file_independent_of_record_order():
    data = duplicate_heavy_data(N=2000, seed=8)
    shuffled = Dataset(list(data.names), list(data.arity), data.rows[
        np.random.default_rng(4).permutation(data.N)])
    assert format_score_file(build_score_tables(shuffled)) == \
        format_score_file(build_score_tables(data))


def test_batched_scores_cell_limit():
    data = Dataset(["A", "B", "C"], [2, 4, 3], np.array(
        [[0, 1, 2], [1, 3, 0], [1, 0, 1], [0, 2, 1]], dtype=np.int64))
    # one family of {A, B, C} needs 2 * 4 * 3 = 24 cells, of {B, C} 12, of
    # {A, B} 8 and of {A, C} 6
    with mock.patch.object(dataset, "CELL_LIMIT", 24):
        assert sum(map(len, streamed_scores(data, 2))) == 12
        build_score_tables(data, max_parents=2)
    with mock.patch.object(dataset, "CELL_LIMIT", 12):
        assert sum(map(len, streamed_scores(data, 1))) == 9
        build_score_tables(data, max_parents=1)
    with mock.patch.object(dataset, "CELL_LIMIT", 23), \
            pytest.raises(DataError, match="X0 given 2 parents needs 24 "
                                           "cells, over the limit 23"):
        build_score_tables(data, max_parents=2)
    with mock.patch.object(dataset, "CELL_LIMIT", 1), \
            pytest.raises(DataError, match="X0 given 0 parents needs 2 cells"):
        build_score_tables(data, max_parents=0)
    # {B, C} and {A, B, C} are both over: the set of lower mask is counted
    # first, and the error names its lowest member with the others as
    # parents
    with mock.patch.object(dataset, "CELL_LIMIT", 11), \
            pytest.raises(DataError, match="^contingency table for X1 given 1 "
                                           "parents needs 12 cells, over the "
                                           "limit 11$"):
        build_score_tables(data, max_parents=2)


def test_mdl_self_parent_rejected(fixture_data):
    with pytest.raises(ValueError):
        mdl_local_score(fixture_data, 1, 0b10)


@pytest.mark.parametrize("N,expect", [
    (126, 5),   # floor(log2(252 / 6.9773)) = floor(5.174)
    (4, 2),
    (2, 2),
    (8, 2),
    (100, 4),
    (200, 5),
    (800, 7),
])
def test_parent_limit(N, expect):
    assert parent_limit(N) == expect


def test_parent_limit_guard():
    with pytest.raises(ValueError):
        parent_limit(1)


def test_fixture_tables(fixture_scores):
    a, b, c, d = fixture_scores.tables
    assert [(s, p) for s, p in zip(a.scores, a.parent_sets)] == [
        (3.0, 0b0010), (SCORE_C_GIVEN_A, 0b0100), (9.5, 0)]
    assert [(s, p) for s, p in zip(b.scores, b.parent_sets)] == [
        (3.0, 0b0001), (SCORE_C_GIVEN_A, 0b0100), (9.5, 0)]
    # equal scores, incomparable sets: both kept, ascending mask order
    assert [(s, p) for s, p in zip(c.scores, c.parent_sets)] == [
        (SCORE_C_GIVEN_A, 0b0001), (SCORE_C_GIVEN_A, 0b0010), (9.5, 0)]
    # D is independent of everything: single empty-set entry
    assert len(d) == 1 and d.parent_sets == [0]


def test_prune_worked_example():
    # a raw lattice whose pruned list reproduces the classic worked table:
    # {X2,X3}=5, {X3}=6, {X2}=8, {}=10, and X4 in no retained set
    x2, x3, x4 = 0b0010, 0b0100, 0b1000
    raw = {0: 10.0, x2: 8.0, x3: 6.0, x4: 12.0,
           x2 | x3: 5.0, x2 | x4: 9.0, x3 | x4: 7.0, x2 | x3 | x4: 6.0}
    kept = oracle.prune_scores(raw)
    assert kept == [(5.0, x2 | x3), (6.0, x3), (8.0, x2), (10.0, 0)]


def test_worked_example_exclusion_rows():
    # excluding one variable: X2 rules out {X2,X3} and {X2}, X3 rules out
    # {X2,X3} and {X3}, and X4 rules out nothing
    x2, x3, x4 = 0b0010, 0b0100, 0b1000
    t = ScoreTable(0, 4, [(5.0, x2 | x3), (6.0, x3),
                          (8.0, x2), (10.0, 0)])
    assert best_in(t, x3 | x4) == (6.0, x3)
    assert best_in(t, x2 | x4) == (8.0, x2)
    assert best_in(t, x2 | x3) == (5.0, x2 | x3)


def test_best_in_worked_example():
    x2, x3 = 0b0010, 0b0100
    t = ScoreTable(0, 4, [(5.0, x2 | x3), (6.0, x3),
                          (8.0, x2), (10.0, 0)])
    assert best_in(t, 0b1110) == (5.0, x2 | x3)
    assert best_in(t, 0b1010) == (8.0, x2)
    assert best_in(t, 0) == (10.0, 0)


def test_best_in_rejects_self(fixture_tables):
    with pytest.raises(ValueError):
        best_in(fixture_tables[0], 0b0001)


def _exhaustive_check(data, limit):
    """Pruning safety and monotonicity against brute force."""
    rows = [tuple(r) for r in data.rows]
    n = data.n
    tables = build_score_tables(data, max_parents=limit).tables
    for x, table in enumerate(tables):
        raw = oracle.all_scores(rows, data.arity, x, limit)
        others = [y for y in range(n) if y != x]
        pools = []
        for m in range(1 << len(others)):
            cands = frozenset(others[j] for j in range(len(others))
                              if m >> j & 1)
            got = best_in(table, mask_of(cands))[0]
            brute = oracle.best_score(raw, cands)
            assert got == pytest.approx(brute, abs=1e-12), \
                f"x={x} cands={sorted(cands)}"
            pools.append((cands, got))
        # Monotonicity: larger pools never score worse
        for u, gu in pools:
            for w, gw in pools:
                if u <= w:
                    assert gw <= gu + 1e-12


def test_pruning_safety_fixture(fixture_data):
    _exhaustive_check(fixture_data, 2)


def test_pruning_safety_random_n6():
    data = random_dataset(6, 60, seed=11)
    _exhaustive_check(data, parent_limit(60))


def test_pruning_safety_random_n8():
    data = random_dataset(8, 120, seed=5)
    _exhaustive_check(data, 3)


def test_tables_sorted_and_antichain():
    data = random_dataset(7, 90, seed=3)
    scores = build_score_tables(data)
    for t in scores.tables:
        assert all(t.scores[i] <= t.scores[i + 1] for i in range(len(t) - 1))
        assert 0 in t.parent_sets
        for i, pi in enumerate(t.parent_sets):
            for j, pj in enumerate(t.parent_sets):
                if i == j or pi == pj:
                    continue
                if pi & ~pj == 0:  # pi proper subset of pj
                    assert t.scores[i] > t.scores[j], (
                        "superset kept although a subset scores no worse")


def test_sparseness_reported():
    data = random_dataset(10, 150, seed=9)
    limit = parent_limit(data.N)
    scores = build_score_tables(data)
    total_full = sum(math.comb(9, k) for k in range(limit + 1))
    for name, t in zip(scores.names, scores.tables):
        assert len(t) <= total_full
    kept = sum(len(t) for t in scores.tables)
    print(f"\nsparse store: {kept} of {total_full * data.n} in-limit sets "
          f"({kept / (total_full * data.n):.1%})")


def test_max_parents_zero(fixture_data):
    scores = build_score_tables(fixture_data, max_parents=0)
    for t in scores.tables:
        assert len(t) == 1 and t.parent_sets == [0]


def test_max_parents_only_downward(fixture_data):
    with pytest.raises(ValueError, match="limit 2"):
        build_score_tables(fixture_data, max_parents=3)


def test_score_file_roundtrip(tmp_path, fixture_scores):
    p = tmp_path / "fixture.scores"
    write_score_file(p, fixture_scores)
    back = read_score_file(p)
    assert back.names == fixture_scores.names
    for t1, t2 in zip(fixture_scores.tables, back.tables):
        assert np.array_equal(t1.scores, t2.scores)  # bit identical
        assert t1.parent_sets == t2.parent_sets
        for cands in range(1 << back.n):
            if not cands >> t1.variable & 1:
                assert best_in(t1, cands) == best_in(t2, cands)


def test_score_file_roundtrip_random(tmp_path):
    data = random_dataset(9, 137, seed=21)
    scores = build_score_tables(data)
    p = tmp_path / "r.scores"
    write_score_file(p, scores)
    back = read_score_file(p)
    for t1, t2 in zip(scores.tables, back.tables):
        assert np.array_equal(t1.scores, t2.scores)
        assert t1.parent_sets == t2.parent_sets


def test_score_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.scores"
    p.write_text("not a score file\n")
    with pytest.raises(ValueError, match="score file"):
        read_score_file(p)
