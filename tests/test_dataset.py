import csv
import gc
import math
import weakref
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from bnopt import (DataError, Dataset, RawTable, binarize_mean,
                   build_score_tables, counts, dataset, drop_incomplete,
                   format_score_file, load_dataset, load_delimited,
                   mdl_local_score)
from bnopt.cli import EXIT_INPUT, main
from bnopt.scoring import family_scores
from conftest import DATA_DIR, FIXTURE_CSV


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_passthrough(tmp_path):
    p = write(tmp_path, "a,b,c\n" + "\n".join("1,2,3" for _ in range(5)) + "\n")
    raw = load_delimited(p)
    assert raw.column_names == ["a", "b", "c"]
    assert raw.n_rows == 5
    assert raw.records == [["1", "2", "3"]]
    assert raw.index == [0] * 5


def test_missing_token_mapping(tmp_path):
    p = write(tmp_path, "a,b,c\n1.2,?,0\n")
    raw = load_delimited(p, missing_tokens={"?"})
    assert raw.records == [["1.2", None, "0"]]
    assert raw.index == [0]


def test_ragged_row_names_record(tmp_path):
    # header is record 1; the short row sits at record 7
    p = write(tmp_path, "a,b,c\n" + "1,2,3\n" * 5 + "1,2\n")
    with pytest.raises(DataError, match="row 7"):
        load_delimited(p)


def test_whitespace_only_file_has_no_records(tmp_path):
    p = write(tmp_path, "  \n\t\n")
    with pytest.raises(DataError) as e:
        load_dataset(p)
    assert str(e.value) == f"{p}: no records"


def test_whitespace_lines_are_blank(tmp_path):
    # skipped before the header and between records, as in a score file;
    # row numbers count records, not lines
    p = write(tmp_path, " \n\ta,b\n1,x\n  \t \n2,y\n \n")
    raw = load_delimited(p)
    assert raw.column_names == ["a", "b"]
    assert raw.records == [["1", "x"], ["2", "y"]]
    data = load_dataset(p)
    assert (data.names, data.arity, data.rows.tolist()) == oracle.ingest(p)
    with pytest.raises(DataError, match="row 3 has 1 cells"):
        load_delimited(write(tmp_path, "a,b\n1,x\n \n2\n"))


def test_duplicate_header_name_rejected(tmp_path):
    p = write(tmp_path, "A, B ,A\n1,2,3\n")
    with pytest.raises(DataError, match="header names column 'A' twice"):
        load_delimited(p)
    # stripped names are compared
    with pytest.raises(DataError, match="column 'B' twice"):
        load_delimited(write(tmp_path, "B, B,A\n1,2,3\n"))


def test_headerless_names(tmp_path):
    p = write(tmp_path, "1,2\n3,4\n")
    raw = load_delimited(p, header=False)
    assert raw.column_names == ["X1", "X2"]
    assert raw.n_rows == 2


def test_drop_incomplete_counts(tmp_path):
    body = ["1,1"] * 7 + ["?,1", "1,?", "?,?"]
    p = write(tmp_path, "a,b\n" + "\n".join(body) + "\n")
    raw = load_delimited(p)
    assert drop_incomplete(raw).n_rows == 7


def test_drop_incomplete_identity(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n3,4\n")
    raw = load_delimited(p)
    kept = drop_incomplete(raw)
    assert (kept.records, kept.index) == ([["1", "2"], ["3", "4"]], [0, 1])
    assert (kept.records, kept.index) == (raw.records, raw.index)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_drop_incomplete_keeps_rows_in_order(shared):
    # load_delimited lists each distinct record once, but a RawTable built
    # by hand may list an equal record twice
    if shared:
        records = [["1", "2"], ["1", None], ["3", "4"], [None, None]]
        index = [0, 1, 2, 0, 1, 3, 2, 0]
    else:
        records = [["1", "2"], ["1", None], ["3", "4"], ["1", "2"],
                   [None, None], ["3", "4"]]
        index = [0, 1, 2, 3, 1, 4, 5, 0]
    raw = RawTable(["a", "b"], records, index)
    kept = drop_incomplete(raw)
    rows = [raw.records[r] for r in raw.index]
    assert [kept.records[r] for r in kept.index] == [
        r for r in rows if None not in r]
    assert kept.n_rows == 5
    assert kept.records == [r for r in records if None not in r]
    assert kept.index == ([0, 1, 0, 1, 0] if shared else [0, 1, 2, 3, 0])


def test_codes_renumbered_after_a_drop(tmp_path):
    # category x first appears in a dropped row, so its code follows the
    # kept rows: y (row 2) is 0 and x (row 3) is 1
    p = write(tmp_path, "a,b\nx,?\ny,1\nx,0\ny,?\n")
    raw = drop_incomplete(load_delimited(p))
    assert (raw.records, raw.index) == ([["y", "1"], ["x", "0"]], [0, 1])
    data = load_dataset(p)
    assert data.arity == [2, 2]
    assert data.rows.tolist() == [[0, 1], [1, 0]]
    assert (data.names, data.arity, data.rows.tolist()) == oracle.ingest(p)


def test_drop_incomplete_empty_errors(tmp_path):
    p = write(tmp_path, "a,b\n?,1\n1,?\n")
    raw = load_delimited(p)
    with pytest.raises(DataError, match="empty"):
        drop_incomplete(raw)


def test_load_dataset_frees_the_row_index_before_binarizing(monkeypatch):
    # load_delimited's table holds an N-long row index; it must be gone
    # before binarize_mean builds its own, so the two never peak together
    tables = []
    real_load, real_binarize = dataset.load_delimited, dataset.binarize_mean

    def load(*args, **kwargs):
        raw = real_load(*args, **kwargs)
        tables.append(weakref.ref(raw))
        return raw

    def binarize(raw):
        gc.collect()
        assert tables[0]() is None
        return real_binarize(raw)
    monkeypatch.setattr(dataset, "load_delimited", load)
    monkeypatch.setattr(dataset, "binarize_mean", binarize)
    # repeat8.csv has incomplete rows, so drop_incomplete drops some
    data = load_dataset(DATA_DIR / "repeat8.csv")
    assert len(tables) == 1
    assert data.N < load_delimited(DATA_DIR / "repeat8.csv").n_rows


def test_equal_records_share_one_cells_list(tmp_path):
    # stripped once per distinct raw record; a padded variant is its own
    p = write(tmp_path, "a,b\n1,?\n1,?\n 1,?\n1,?\n")
    raw = load_delimited(p)
    assert raw.records == [["1", None]] * 2
    assert raw.index == [0, 0, 1, 0]


def test_ragged_repeated_record_names_its_first_row(tmp_path):
    p = write(tmp_path, "a,b\n1,2\n1\n1\n")
    with pytest.raises(DataError, match="row 3 has 1 cells, expected 2"):
        load_delimited(p)


def test_oversized_field_names_path_and_line(tmp_path):
    big = "x" * (csv.field_size_limit() + 1)
    p = write(tmp_path, f"a,b\n1,2\n1,{big}\n2,1\n")
    with pytest.raises(DataError) as e:
        load_delimited(p)
    assert str(e.value) == (f"{p}: line 3: field larger than field limit "
                            f"({csv.field_size_limit()})")
    with open(p, "ab") as f:  # undecodable bytes later in the file win
        f.write(b"1,2\n" * 5000 + b"2,\xff\n")
    with pytest.raises(DataError, match="^.*: not utf-8 text"):
        load_delimited(p)


def test_binarize_mean_boundary(tmp_path):
    # mean of (1, 2, 3) is 2; the value exactly at the mean maps to 1
    p = write(tmp_path, "a,pad\n1,0\n2,1\n3,0\n")
    data = binarize_mean(drop_incomplete(load_delimited(p)))
    assert list(data.rows[:, 0]) == [0, 1, 1]


def test_binarize_mean_summed_in_row_order():
    # 0.1 + 0.2 + 0.3 summed left to right is 0.6000000000000001, so 0.2 is
    # below the mean; the compensated sum() of Python 3.12+ gives 0.6 and
    # would put 0.2 at the mean, coding it 1
    data = binarize_mean(RawTable(["a"], [["0.1"], ["0.2"], ["0.3"]],
                                  [0, 1, 2]))
    assert data.rows[:, 0].tolist() == [0, 0, 1]


def test_binarize_mean_counts_every_row():
    # the row mean 0.8 puts 1 above it; the mean of the distinct values,
    # 4/3, would put it below; equal rows need not share one record
    for records, index in (([["0"], ["1"], ["3"]], [0, 0, 0, 1, 2]),
                           ([["0"]] * 3 + [["1"], ["3"]], [0, 1, 2, 3, 4])):
        data = binarize_mean(RawTable(["a"], records, index))
        assert data.rows[:, 0].tolist() == [0, 0, 0, 1, 1]


FLOAT_MAX = "1.7976931348623157e308"
BELOW_MAX = "1.7976931348623155e308"  # the next float down


@pytest.mark.parametrize("text, codes", [
    ("A,B\n1e308,0\n1e308,1\n-1e308,0\n-1e308,1\n0,1\n", [1, 1, 0, 0, 1]),
    ("A,B\n" + f"{FLOAT_MAX},0\n" * 3 + "0,1\n", [1, 1, 1, 0]),
    (f"A,B\n{FLOAT_MAX},0\n{BELOW_MAX},1\n{FLOAT_MAX},1\n", [1, 0, 1]),
], ids=["cancelling", "three-max", "near-max"])
def test_binarize_mean_of_overflowing_sum(tmp_path, text, codes):
    # column A sums past the largest float in row order; each value is
    # then compared with the exact mean (0, 0.75 * FLOAT_MAX, and one
    # third of an ulp below FLOAT_MAX), so A is split, not refused as
    # constant
    p = write(tmp_path, text)
    data = load_dataset(p)
    assert data.rows[:, 0].tolist() == codes
    assert (data.names, data.arity, data.rows.tolist()) == oracle.ingest(p)


def test_overflowing_constant_column_is_refused(tmp_path, capsys):
    # three FLOAT_MAX overflow in row order, and their exact mean is
    # FLOAT_MAX itself: the column is constant, an input error (exit 2)
    p = write(tmp_path, f"A,B\n{FLOAT_MAX},0\n{FLOAT_MAX},1\n{FLOAT_MAX},0\n")
    with pytest.raises(DataError, match="column 'A' is constant"):
        load_dataset(p)
    with pytest.raises(ValueError, match="column 'A' is constant"):
        oracle.ingest(p)
    assert main(["score", str(p)]) == EXIT_INPUT
    assert "column 'A' is constant" in capsys.readouterr().err


def test_binarize_categorical_first_appearance(tmp_path):
    p = write(tmp_path, "a,pad\na,0\nb,1\na,0\n")
    data = binarize_mean(drop_incomplete(load_delimited(p)))
    assert list(data.rows[:, 0]) == [0, 1, 0]
    assert data.arity[0] == 2


def test_binarize_constant_column_errors(tmp_path):
    p = write(tmp_path, "a,b\n5,1\n5,2\n5,3\n")
    with pytest.raises(DataError, match="'a'"):
        binarize_mean(drop_incomplete(load_delimited(p)))


@pytest.mark.parametrize("odd", ["1e400", "nan", "inf"])
def test_non_finite_column_is_categorical(tmp_path, odd):
    # a token that parses as a float but not a finite one keeps the
    # column out of the mean split
    p = write(tmp_path, f"a,pad\n1,0\n{odd},1\n3,0\n1,1\n")
    data = load_dataset(p)
    assert list(data.rows[:, 0]) == [0, 1, 2, 0]
    assert data.arity[0] == 3


def test_cells_stripped_before_missing_test(tmp_path):
    p = write(tmp_path, "a,b\n 1 , ? \n x ,2\n")
    raw = load_delimited(p)
    assert raw.records == [["1", None], ["x", "2"]]
    assert raw.index == [0, 1]


@pytest.mark.parametrize("body, message", [
    ("?,1\n1,?\n", "all records incomplete: empty dataset"),
    ("5,1\n5,2\n5,3\n", "column 'a' is constant"),
], ids=["all-incomplete", "constant-column"])
def test_load_dataset_errors_name_the_file(tmp_path, body, message):
    p = write(tmp_path, "a,b\n" + body)
    with pytest.raises(DataError) as e:
        load_dataset(p)
    assert str(e.value) == f"{p}: {message}"


def test_binarize_row_order_invariant(tmp_path):
    rows = ["1,x", "2,y", "3,x", "7,y", "5,x"]
    p1 = write(tmp_path, "a,b\n" + "\n".join(rows) + "\n", "d1.csv")
    p2 = write(tmp_path, "a,b\n" + "\n".join(reversed(rows)) + "\n", "d2.csv")
    d1 = load_dataset(p1)
    d2 = load_dataset(p2)
    # mean threshold is permutation-invariant, so codes follow the rows
    assert list(d1.rows[:, 0]) == list(reversed(list(d2.rows[:, 0])))


# cells that strip to the same token, finite, non-finite and categorical
# tokens, and in about one cell of 25 a missing token; records are drawn
# from a small pool so that they repeat
VALUES = ["0", "1", " 1", "1 ", "2", "3", "2.5", "-3", "1e400", "nan",
          "inf", "a", " a ", "b"]
CELLS = VALUES + ["?", "", " ? "]
NAMES = ["A", " A", "B", "C", ""]


@st.composite
def csv_texts(draw):
    ncol = draw(st.integers(1, 3))
    cell = st.sampled_from(VALUES * 4 + CELLS)
    pool = draw(st.lists(st.lists(cell, min_size=ncol, max_size=ncol),
                         min_size=3, max_size=6))
    if draw(st.integers(0, 7)) == 0:  # now and then a ragged record
        pool.append(draw(st.lists(cell, min_size=1, max_size=4)))
    rows = draw(st.lists(st.sampled_from(pool), min_size=4, max_size=16))
    header = draw(st.booleans())
    if header:  # now and then a repeated name
        rows.insert(0, draw(st.lists(st.sampled_from(NAMES), min_size=ncol,
                                     max_size=ncol,
                                     unique=draw(st.integers(0, 7)) > 0)))
    return "".join(",".join(r) + "\n" for r in rows), header


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=csv_texts())
def test_load_dataset_matches_per_cell_reference(tmp_path_factory, case):
    text, header = case
    p = tmp_path_factory.mktemp("ingest") / "d.csv"
    p.write_text(text)
    try:
        expect = oracle.ingest(p, header=header)
    except ValueError as e:
        with pytest.raises(DataError) as got:
            load_dataset(p, header=header)
        assert str(got.value) == str(e)
    else:
        data = load_dataset(p, header=header)
        assert (data.names, data.arity, data.rows.tolist()) == expect


@pytest.mark.parametrize("text", [
    b"a,b\n1,2\n1\n" + b"1,2\n" * 5000 + b"2,\xff\n",
    b"a,a\n" + b"1,2\n" * 5000 + b"2,\xff\n",
], ids=["ragged-row", "repeated-name"])
def test_undecodable_bytes_win_over_earlier_faults(tmp_path, text):
    # as when the whole file was decoded before any check
    p = tmp_path / "d.csv"
    p.write_bytes(text)
    with pytest.raises(ValueError) as expect:
        oracle.ingest(p)
    assert str(expect.value) == f"{p}: not utf-8 text (invalid start byte)"
    with pytest.raises(DataError) as got:
        load_dataset(p)
    assert str(got.value) == str(expect.value)


@pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.csv")),
                         ids=lambda p: p.name)
def test_committed_csvs_match_per_cell_reference(path):
    data = load_dataset(path)
    assert (data.names, data.arity, data.rows.tolist()) == oracle.ingest(path)


def test_pipeline_deterministic():
    d1 = load_dataset(FIXTURE_CSV)
    d2 = load_dataset(FIXTURE_CSV)
    assert d1.names == d2.names
    assert d1.arity == d2.arity
    assert np.array_equal(d1.rows, d2.rows)


def test_counts_marginal(fixture_data):
    table = counts(fixture_data, 0, 0)
    assert table.shape == (2, 1)
    assert table.sum() == fixture_data.N
    # empty parent list: a single configuration holding the marginal
    assert list(table[:, 0]) == list(np.bincount(fixture_data.rows[:, 0]))


def test_counts_mixed_radix_reference():
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 3, size=(50, 6)).astype(np.int64)
    data = Dataset([f"X{i + 1}" for i in range(6)], [3] * 6, rows)
    table = counts(data, 0, 0b10110)  # parents X2, X3, X5
    expect = np.zeros((3, 27), dtype=np.int64)
    for r in rows.tolist():
        # ascending parent index, lowest index varying fastest
        expect[r[0], r[1] + 3 * r[2] + 9 * r[4]] += 1
    assert np.array_equal(table, expect)


def test_counts_pair_hand_checked(fixture_data):
    # A and B encode the same split of the 8 fixture records
    table = counts(fixture_data, 0, 0b10)
    assert table.shape == (2, 2)
    assert table.sum() == 8
    assert table[0, 0] == 4 and table[1, 1] == 4
    assert table[0, 1] == 0 and table[1, 0] == 0


def test_counts_all_variables_sum_to_n(fixture_data):
    n = fixture_data.n
    for x in range(n):
        for pa in range(1 << n):
            if pa >> x & 1 or pa >= 1 << n:
                continue
            assert counts(fixture_data, x, pa).sum() == fixture_data.N


def test_counts_self_parent_rejected(fixture_data):
    with pytest.raises(ValueError):
        counts(fixture_data, 0, 0b1)


def test_counts_cell_limit(fixture_data):
    with mock.patch.object(dataset, "CELL_LIMIT", 8), \
            pytest.raises(DataError, match="cells"):
        counts(fixture_data, 0, 0b1110)


def test_fixture_codes(fixture_data):
    assert fixture_data.names == ["A", "B", "C", "D"]
    assert list(fixture_data.rows[:, 0]) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert list(fixture_data.rows[:, 1]) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert list(fixture_data.rows[:, 2]) == [0, 0, 0, 1, 1, 1, 1, 0]
    assert list(fixture_data.rows[:, 3]) == [0, 1, 1, 0, 0, 1, 1, 0]


def test_narrow_rows_score_like_int64_rows(tmp_path):
    # two wide categorical columns, so that a code or a stride times a
    # value passes 65,535 and would wrap if computed in the rows' uint16
    N = 2000
    rng = np.random.default_rng(29)
    wide = rng.integers(300, size=N)
    wide[:300] = np.arange(300)
    wide2 = rng.integers(260, size=N)
    wide2[:260] = np.arange(260)
    lines = ["W,V,B,T"] + [
        f"w{a},v{b},{c:.2f},t{d}" for a, b, c, d in
        zip(wide, wide2, rng.random(N), rng.integers(3, size=N))]
    data = load_dataset(write(tmp_path, "\n".join(lines) + "\n"))
    assert data.arity == [300, 260, 2, 3] and data.rows.dtype == np.uint16
    assert load_dataset(FIXTURE_CSV).rows.dtype == np.uint8
    ref, u64 = (Dataset(list(data.names), list(data.arity),
                        data.rows.astype(dtype))
                for dtype in (np.int64, np.uint64))
    for x in range(data.n):
        others = [y for y in range(data.n) if y != x]
        for size in range(4):
            for pa in combinations(others, size):
                mask = sum(1 << y for y in pa)
                table = counts(ref, x, mask)
                assert np.array_equal(counts(data, x, mask), table), (x, pa)
                assert np.array_equal(counts(u64, x, mask), table), (x, pa)
                assert mdl_local_score(data, x, mask) == \
                    mdl_local_score(ref, x, mask), (x, pa)
    (cols, weights), (ref_cols, ref_weights) = data.distinct, ref.distinct
    assert cols.dtype == np.int64 and cols.flags.c_contiguous
    assert np.array_equal(cols, ref_cols)
    assert np.array_equal(weights, ref_weights)
    # every family's score, not only the kept ones: the pruned families
    # of both wide columns are the ones whose codes pass 65,535
    assert list(family_scores(data, 3)) == list(family_scores(ref, 3))
    assert format_score_file(build_score_tables(data)) == \
        format_score_file(build_score_tables(ref))
    listed = np.array([0.0, 0.0] + [c * math.log2(c)
                                    for c in range(2, N + 1)])
    assert data.count_terms.tobytes() == listed.tobytes()
