from unittest import mock

import numpy as np
import pytest

from bnopt import (DataError, Dataset, binarize_mean, counts,
                   dataset, drop_incomplete, load_dataset, load_delimited)
from conftest import FIXTURE_CSV


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_passthrough(tmp_path):
    p = write(tmp_path, "a,b,c\n" + "\n".join("1,2,3" for _ in range(5)) + "\n")
    raw = load_delimited(p)
    assert raw.column_names == ["a", "b", "c"]
    assert raw.n_rows == 5
    assert all(all(c is not None for c in row) for row in raw.cells)


def test_missing_token_mapping(tmp_path):
    p = write(tmp_path, "a,b,c\n1.2,?,0\n")
    raw = load_delimited(p, missing_tokens={"?"})
    assert raw.cells[0] == ["1.2", None, "0"]


def test_ragged_row_names_record(tmp_path):
    # header is record 1; the short row sits at record 7
    p = write(tmp_path, "a,b,c\n" + "1,2,3\n" * 5 + "1,2\n")
    with pytest.raises(DataError, match="row 7"):
        load_delimited(p)


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
    assert drop_incomplete(raw).cells == raw.cells


def test_drop_incomplete_empty_errors(tmp_path):
    p = write(tmp_path, "a,b\n?,1\n1,?\n")
    raw = load_delimited(p)
    with pytest.raises(DataError, match="empty"):
        drop_incomplete(raw)


def test_binarize_mean_boundary(tmp_path):
    # mean of (1, 2, 3) is 2; the value exactly at the mean maps to 1
    p = write(tmp_path, "a,pad\n1,0\n2,1\n3,0\n")
    data = binarize_mean(drop_incomplete(load_delimited(p)))
    assert list(data.rows[:, 0]) == [0, 1, 1]


def test_binarize_categorical_first_appearance(tmp_path):
    p = write(tmp_path, "a,pad\na,0\nb,1\na,0\n")
    data = binarize_mean(drop_incomplete(load_delimited(p)))
    assert list(data.rows[:, 0]) == [0, 1, 0]
    assert data.arity[0] == 2


def test_binarize_constant_column_errors(tmp_path):
    p = write(tmp_path, "a,b\n5,1\n5,2\n5,3\n")
    with pytest.raises(DataError, match="'a'"):
        binarize_mean(drop_incomplete(load_delimited(p)))


def test_binarize_row_order_invariant(tmp_path):
    rows = ["1,x", "2,y", "3,x", "7,y", "5,x"]
    p1 = write(tmp_path, "a,b\n" + "\n".join(rows) + "\n", "d1.csv")
    p2 = write(tmp_path, "a,b\n" + "\n".join(reversed(rows)) + "\n", "d2.csv")
    d1 = load_dataset(p1)
    d2 = load_dataset(p2)
    # mean threshold is permutation-invariant, so codes follow the rows
    assert list(d1.rows[:, 0]) == list(reversed(list(d2.rows[:, 0])))


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
