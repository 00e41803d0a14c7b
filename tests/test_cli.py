import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnopt import (DataError, LearnedNetwork, StaticHeuristic, bfbnb,
                   initial_upper_bound, parse_grouping, read_score_file,
                   write_score_file)
from bnopt.bitset import bits
from bnopt.cli import (EXIT_INPUT, EXIT_MEMORY, EXIT_OK, EXIT_PIPE,
                       EXIT_USAGE, EXIT_VERIFY, emit_dot, main)
from bnopt.synth import random_dataset
from conftest import DATA_DIR, FIXTURE_CSV, OPT_SCORE

GOLDEN_SCORES = DATA_DIR / "fixture4.scores"
GOLDEN_DOT = DATA_DIR / "fixture4.dot"


def write_csv(tmp_path, data, name="synth.csv"):
    p = tmp_path / name
    lines = [",".join(data.names)]
    lines += [",".join(str(v) for v in row) for row in data.rows]
    p.write_text("\n".join(lines) + "\n")
    return p


def test_score_golden_file(tmp_path, capsys):
    out = tmp_path / "f.scores"
    assert main(["score", str(FIXTURE_CSV), "--out", str(out)]) == EXIT_OK
    assert out.read_text() == GOLDEN_SCORES.read_text()


def test_score_golden_repeated_records(capsys):
    # random_dataset(8, 400, seed=19) with padded cells and 20 extra
    # records that carry a '?' or empty cell: 421 lines, 204 distinct
    assert main(["score", str(DATA_DIR / "repeat8.csv")]) == EXIT_OK
    assert capsys.readouterr().out == (DATA_DIR / "repeat8.scores").read_text()


def test_score_stdout_matches_file(capsys):
    assert main(["score", str(FIXTURE_CSV)]) == EXIT_OK
    assert capsys.readouterr().out == GOLDEN_SCORES.read_text()


def test_score_max_parents_zero(tmp_path):
    out = tmp_path / "f.scores"
    assert main(["score", str(FIXTURE_CSV), "--max-parents", "0",
                 "--out", str(out)]) == EXIT_OK
    scores = read_score_file(out)
    assert all(len(t) == 1 and t.entries[0][1] == 0 for t in scores.tables)


def test_score_max_parents_upward_rejected(capsys):
    rc = main(["score", str(FIXTURE_CSV), "--max-parents", "6"])
    assert rc == EXIT_USAGE
    assert "limit 2" in capsys.readouterr().err


def test_learn_fixture_dot(tmp_path, capsys):
    # the fixture's optimum ties between networks; this setup returns the
    # one of the golden DOT file
    dot = tmp_path / "net.dot"
    rc = main(["learn", str(FIXTURE_CSV), "--algorithm", "astar",
               "--heuristic", "static", "--dot", str(dot)])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["total_score"] == OPT_SCORE
    assert report["dataset"] == {"n": 4, "N": 8, "names": ["A", "B", "C", "D"]}
    assert report["config"]["parent_limit"] == 2
    assert dot.read_text() == GOLDEN_DOT.read_text()


def test_learn_astar_dynamic(capsys):
    rc = main(["learn", str(FIXTURE_CSV), "--algorithm", "astar",
               "--heuristic", "dynamic", "--k", "3"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["total_score"] == pytest.approx(OPT_SCORE, rel=1e-9)
    assert report["stats"]["pdb_size"] >= 0
    assert report["stats"]["forced_skipped"] >= 0
    assert report["config"]["k"] == 3


def test_learn_bfbnb_static(capsys):
    rc = main(["learn", str(FIXTURE_CSV), "--algorithm", "bfbnb",
               "--heuristic", "static", "--groups", "auto"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["total_score"] == pytest.approx(OPT_SCORE, rel=1e-9)


def test_learn_flag_coherence(capsys):
    assert main(["learn", str(FIXTURE_CSV), "--heuristic", "simple",
                 "--k", "3"]) == EXIT_USAGE
    assert main(["learn", str(FIXTURE_CSV), "--heuristic", "dynamic",
                 "--groups", "1-2,3-4"]) == EXIT_USAGE
    assert main(["learn", str(FIXTURE_CSV), "--heuristic", "dynamic",
                 "--k", "1"]) == EXIT_USAGE
    assert main(["learn", str(FIXTURE_CSV), "--heuristic", "static",
                 "--groups", "1-2"]) == EXIT_USAGE


def test_learn_from_score_file_matches_data(tmp_path, capsys):
    out = tmp_path / "f.scores"
    main(["score", str(FIXTURE_CSV), "--out", str(out)])
    capsys.readouterr()
    assert main(["learn", str(out), "--algorithm", "astar"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["total_score"] == pytest.approx(OPT_SCORE, rel=1e-9)
    assert report["dataset"]["N"] is None  # score files carry no record count


def test_learn_report_written_to_out(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["learn", str(FIXTURE_CSV), "--algorithm", "astar",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--out", "--dot"])
def test_unwritable_output_file_prints_no_report(tmp_path, capsys, flag):
    # the report reaches stdout only once every file is written
    target = tmp_path / "missing" / "x"
    assert main(["learn", str(DATA_DIR / "gen14.scores"), "--algorithm",
                 "bfbnb", "--heuristic", "static", flag,
                 str(target)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [ln for ln in captured.err.splitlines()
              if ln.startswith("bnopt:")]
    assert len(errors) == 1 and str(target) in errors[0]


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("args", [
    ["verify", str(GOLDEN_SCORES)], ["learn", str(GOLDEN_SCORES)],
    ["score", str(FIXTURE_CSV)]], ids=["verify", "learn", "score"])
def test_closed_stdout_exits_141(args, buffered):
    # the pipe's read end is closed before the child starts, so its first
    # write or flush to stdout fails
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "bnopt", *args],
                           stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert r.returncode == EXIT_PIPE == 141
    assert "bnopt:" not in r.stderr.decode()
    assert "Broken pipe" not in r.stderr.decode()


def test_verify_fixture_passes(capsys):
    assert main(["verify", str(FIXTURE_CSV)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert all(ln.startswith("PASS") for ln in lines if ln)


def test_verify_synthetic_dataset(tmp_path, capsys):
    data = random_dataset(6, 70, seed=33)
    csv = write_csv(tmp_path, data)
    assert main(["verify", str(csv)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert all(ln.startswith("PASS") for ln in lines if ln)


def test_verify_catches_unsorted_score_file(tmp_path, capsys):
    # rejected when the table is built, before any check runs
    text = GOLDEN_SCORES.read_text().splitlines()
    a0 = text.index("var A 3")
    text[a0 + 1], text[a0 + 2] = text[a0 + 2], text[a0 + 1]
    bad = tmp_path / "bad.scores"
    bad.write_text("\n".join(text) + "\n")
    assert main(["verify", str(bad)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and f"{bad}: line {a0 + 1}: block for A:" in err[0]
    assert "not in ascending order" in err[0]


def test_verify_guard_on_large_n(tmp_path, capsys):
    lines = ["n 15"]
    for i in range(15):
        lines += [f"var X{i + 1} 1", "1.5 0"]
    p = tmp_path / "big.scores"
    p.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(p)]) == EXIT_USAGE
    assert "--max-n" in capsys.readouterr().err
    assert main(["verify", str(p), "--max-n", "15"]) == EXIT_OK


def test_verify_guard_checked_before_scoring(capsys, monkeypatch):
    # a data file above the guard is refused on its header, unscored
    from bnopt import scoring
    monkeypatch.setattr(scoring, "build_score_tables",
                        lambda *a, **kw: pytest.fail("scored a refused file"))
    assert main(["verify", str(FIXTURE_CSV), "--max-n", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "bnopt: 4 variables exceed the exhaustive-check guard 3; raise "
        "--max-n to force"]


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_verify_max_n_below_one(capsys, max_n):
    # a guard below 1 would refuse every input; the flag itself is wrong
    assert main(["verify", str(FIXTURE_CSV), "--max-n", max_n]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bnopt: --max-n {max_n}: need at least 1\n"


def _verify_out(capsys, path):
    """(exit code, stdout lines) of `bnopt verify path`."""
    rc = main(["verify", str(path)])
    return rc, capsys.readouterr().out.splitlines()


def test_verify_fails_table_shape(tmp_path, capsys):
    # {B} scores worse than {} yet is kept: the store's answers stay right,
    # only the table-shape check objects
    p = tmp_path / "shape.scores"
    p.write_text("n 2\nvar A 2\n1.0 0\n2.0 1 B\nvar B 1\n1.0 0\n")
    assert _verify_out(capsys, p) == (EXIT_VERIFY, [
        "FAIL table shape (1 violation(s))",
        "  table A: {B} kept although subset {} scores no worse",
        "PASS best score",
        "PASS heuristics"])


def test_verify_fails_first_hit_not_minimal(capsys, monkeypatch):
    # best_in answers the last fitting entry instead of the first; the
    # exact pattern costs read verify's best_in too, so they come out high
    from bnopt import verify

    def last_fit(t, cands):
        return max((s, pa) for s, pa in t.entries if pa & ~cands == 0)
    monkeypatch.setattr(verify, "best_in", last_fit)
    rc, out = _verify_out(capsys, GOLDEN_SCORES)
    assert rc == EXIT_VERIFY
    assert out[:4] == [
        "PASS table shape",
        "FAIL best score (18 violation(s))",
        "  best-score: first hit (9.5, 0) is not a fitting list "
        "minimum 3.0 at variable A, candidates {B}",
        "  best-score: first hit (9.5, 0) is not a fitting list "
        "minimum 9.490224995673064 at variable A, candidates {C}"]
    assert out[19] == ("  best-score: first hit (9.5, 0) is not a "
                       "fitting list minimum 9.490224995673064 at variable "
                       "C, candidates {A,B,D}")
    assert out[20:] == [
        "FAIL heuristics (3 violation(s))",
        "  pattern cost: dynamic k=2 stores 12.490224995673064 for {A,B}, "
        "exact 19.0",
        "  pattern cost: dynamic k=3 stores 12.490224995673064 for {A,B}, "
        "exact 19.0",
        "  pattern cost: dynamic k=3 stores 21.990224995673064 for {A,B,C}, "
        "exact 28.5"]


def test_verify_fails_rescoring(capsys, monkeypatch):
    from bnopt import scoring
    # verify imports the rescoring function when it checks a data file
    real = scoring.mdl_local_score
    monkeypatch.setattr(scoring, "mdl_local_score",
                        lambda d, x, pa: real(d, x, pa) - 1.0)
    rc, out = _verify_out(capsys, FIXTURE_CSV)
    assert rc == EXIT_VERIFY
    assert out[:4] == [
        "PASS table shape",
        "FAIL best score (32 violation(s))",
        "  best-score: sparse store gives 9.5, exhaustive rescoring "
        "gives 8.5 at variable A, candidates {}",
        "  best-score: sparse store gives 3.0, exhaustive rescoring "
        "gives 2.0 at variable A, candidates {B}"]
    assert len(out) == 2 + 20 + 1 and out[-1] == "PASS heuristics"


def test_verify_fails_admissibility(capsys, monkeypatch):
    from bnopt import verify

    class Inflated(verify.StaticHeuristic):
        def value(self, U):
            return super().value(U) + 1.0
    monkeypatch.setattr(verify, "StaticHeuristic", Inflated)
    assert _verify_out(capsys, GOLDEN_SCORES) == (EXIT_VERIFY, [
        "PASS table shape",
        "PASS best score",
        "FAIL heuristics (1 violation(s))",
        "  admissibility: static auto overestimates at {}: "
        "32.48044999134613 > 31.490224995673064"])


def test_verify_fails_dominance_and_consistency(capsys, monkeypatch):
    # a dip at {A}: still admissible, but below the simple bound there and
    # too far below h({}) for the arc from {} to {A}
    from bnopt import verify

    class Dip(verify.StaticHeuristic):
        def value(self, U):
            return super().value(U) - (100.0 if U == 0b1 else 0.0)
    monkeypatch.setattr(verify, "StaticHeuristic", Dip)
    assert _verify_out(capsys, GOLDEN_SCORES) == (EXIT_VERIFY, [
        "PASS table shape",
        "PASS best score",
        "FAIL heuristics (2 violation(s))",
        "  dominance: static auto below the simple bound at {A}",
        "  consistency: static auto violates the arc inequality at {} + A"])


def test_verify_fails_pattern_cost(capsys, monkeypatch):
    from bnopt import verify
    real = verify.pattern_cost_exact
    monkeypatch.setattr(verify, "pattern_cost_exact",
                        lambda P, t: real(P, t) + 0.5)
    assert _verify_out(capsys, GOLDEN_SCORES) == (EXIT_VERIFY, [
        "PASS table shape",
        "PASS best score",
        "FAIL heuristics (3 violation(s))",
        "  pattern cost: dynamic k=2 stores 12.490224995673064 for {A,B}, "
        "exact 12.990224995673064",
        "  pattern cost: dynamic k=3 stores 12.490224995673064 for {A,B}, "
        "exact 12.990224995673064",
        "  pattern cost: dynamic k=3 stores 21.990224995673064 for {A,B,C}, "
        "exact 22.490224995673064"])


def test_input_errors(tmp_path, capsys):
    assert main(["learn", str(tmp_path / "nope.csv")]) == EXIT_INPUT
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1\n")
    assert main(["score", str(ragged)]) == EXIT_INPUT
    assert "row 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "learn", "verify"])
def test_duplicate_csv_column_rejected(tmp_path, capsys, command):
    # a repeated name used to drop a variable from the learned parents, and
    # score wrote a file that its own reader rejects
    csv = tmp_path / "dup.csv"
    csv.write_text("A,A,B\n" + "".join(f"{i % 2},{i // 2 % 2},{i % 3 % 2}\n"
                                       for i in range(12)))
    assert main([command, str(csv)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"bnopt: {csv}: header names column 'A' twice"]


@pytest.mark.parametrize("command", ["score", "learn", "verify"])
def test_header_only_csv_has_no_records(tmp_path, capsys, command):
    # the message an empty file gets, not "all records incomplete"
    csv = tmp_path / "header.csv"
    csv.write_text("A,B\n")
    assert main([command, str(csv)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"bnopt: {csv}: no records"]


@pytest.mark.parametrize("command", ["score", "learn", "verify"])
@pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\n"],
                         ids=["empty", "blank", "whitespace"])
def test_empty_file_has_no_records(tmp_path, capsys, command, text):
    # no line at all, or only blank or whitespace ones: no score-file
    # header, and no header row either
    csv = tmp_path / "empty.csv"
    csv.write_text(text)
    assert main([command, str(csv)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"bnopt: {csv}: no records"]


@pytest.mark.parametrize("command", ["score", "learn", "verify"])
@pytest.mark.parametrize("source", ["fixture4.scores", "gen14.scores"])
def test_score_file_without_header_is_refused(tmp_path, capsys, command,
                                              source):
    # without its 'n <count>' line a score file is read as a data file of
    # one column; learn used to write a one-variable network named
    # 'var A 3' and verify to pass it
    bad = tmp_path / source
    bad.write_text((DATA_DIR / source).read_text().split("\n", 1)[1])
    assert main([command, str(bad)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"bnopt: {bad}: one column; a data file needs at least two, a score "
        "file its 'n <count>' header"]


@pytest.mark.parametrize("command", ["score", "learn", "verify"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, command):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"\xffA,B\n0,1\n1,0\n")
    assert main([command, str(bad)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"bnopt: {bad}: not utf-8 text (invalid start byte)"]


@pytest.mark.parametrize("command", ["score", "learn", "verify"])
@pytest.mark.parametrize("body, message", [
    ("?,1\n1,?\n", "all records incomplete: empty dataset"),
    ("5,1\n5,0\n5,1\n", "column 'A' is constant"),
], ids=["all-incomplete", "constant-column"])
def test_ingest_errors_name_the_file(tmp_path, capsys, command, body, message):
    csv = tmp_path / "bad.csv"
    csv.write_text("A,B\n" + body)
    assert main([command, str(csv)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"bnopt: {csv}: {message}"]


def test_readers_reject_non_utf8(tmp_path):
    from bnopt.dataset import load_delimited
    from bnopt.parent_store import is_score_file
    bad = tmp_path / "bad.scores"
    bad.write_bytes(b"\xff")
    for read in (is_score_file, load_delimited, read_score_file):
        with pytest.raises(DataError, match=f"^{re.escape(str(bad))}: not "
                                            "utf-8 text"):
            read(bad)
    # past is_score_file's first chunk, only read_score_file decodes it
    late = tmp_path / "late.scores"
    late.write_bytes(b"n 1\n" + b"\n" * 10000 + b"var A 1\n1.0 0 \xff\n")
    assert is_score_file(late)
    with pytest.raises(DataError,
                       match=f"^{re.escape(str(late))}: not utf-8 text"):
        read_score_file(late)


@pytest.mark.parametrize("source", [GOLDEN_SCORES, FIXTURE_CSV],
                         ids=["score-file", "csv"])
def test_byte_order_mark_changes_nothing(tmp_path, capsys, source):
    # a leading UTF-8 BOM neither hides the score-file header nor joins the
    # first column's name
    marked = tmp_path / ("bom" + source.suffix)
    marked.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    outputs = []
    for path in (source, marked):
        dot = tmp_path / f"{path.name}.dot"
        assert main(["learn", str(path), "--dot", str(dot)]) == EXIT_OK
        outputs.append((capsys.readouterr().out, dot.read_text()))
    assert outputs[1] == outputs[0]
    assert '"A"' in outputs[0][1]


def _edited_golden(tmp_path, old, new):
    """The golden score file with its first `old` replaced by `new`, or
    just `new` when `old` is None."""
    text = GOLDEN_SCORES.read_text()
    assert old is None or old in text
    bad = tmp_path / "bad.scores"
    bad.write_text(new if old is None else text.replace(old, new, 1))
    return bad


@pytest.mark.parametrize("old,new,message", [
    ("3 1 B\n", "3 1 Q\n", "line 3: unknown parent 'Q'"),
    ("var D 1\n9.5 0\n", "var D 1\n", "line 14: block for D declares 1"),
    ("3 1 B\n", "3 1 A\n", "line 3: A listed as its own parent"),
    (None, "n 0\n", "line 1: header declares no variables"),
    ("var D 1\n", "var A 1\n", "line 14: duplicate variable name 'A'"),
    ("var D 1\n9.5 0\n", "var D 1\ninf 0\n", "line 15: non-finite score 'inf'"),
    ("var D 1\n9.5 0\n", "var D 1\nnan 0\n", "line 15: non-finite score 'nan'"),
    ("3 1 B\n", "3 2 B B\n", "line 3: a parent is named twice in '3 2 B B'"),
    ("9.4902249956730635 1 C\n", "9.4902249956730635 1 B\n",
     "line 4: parent set of line 3 listed again"),
    # str.isdigit holds for '²', int() refuses it
    ("n 4\n", "n \u00b2\n", "line 1: variable count '\u00b2' is not a number"),
    ("var A 3\n", "var A \u00b2\n", "line 2: expected 'var <name> <entries>'"),
], ids=["unknown-parent", "truncated-block", "self-parent", "no-variables",
        "duplicate-name", "inf-score", "nan-score", "repeated-parent",
        "repeated-parent-set", "superscript-count", "superscript-entries"])
def test_malformed_score_file(tmp_path, capsys, old, new, message):
    bad = _edited_golden(tmp_path, old, new)
    assert main(["learn", str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    with pytest.raises(DataError, match=re.escape(message)):
        read_score_file(bad)


# non-finite, negative, huge and non-ASCII-digit tokens, an unknown name
# and keywords; each mutation also draws the name of the block it edits
FUZZ_TOKENS = ["nan", "inf", "-1", "1e308", "\u0663", "\u00b2", "Q", "0",
               "1", "var", "n"]
FUZZ_COMMANDS = [
    ["learn", "--algorithm", "astar", "--heuristic", "simple"],
    ["learn", "--algorithm", "astar", "--heuristic", "dynamic", "--k", "3"],
    ["learn", "--algorithm", "bfbnb", "--heuristic", "static"],
    ["verify"],
]


def _block_name(lines, i):
    """The name of the variable whose block holds line i, else 'A'."""
    for toks in reversed(lines[:i + 1]):
        if len(toks) > 1 and toks[0] == "var":
            return toks[1]
    return "A"


@st.composite
def mutated_score_file(draw):
    """fixture4.scores or gen14.scores after 1-3 line or token edits."""
    source = draw(st.sampled_from(["fixture4.scores", "gen14.scores"]))
    lines = [ln.split() for ln in (DATA_DIR / source).read_text()
             .splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i]
        edit = draw(st.sampled_from(["drop", "duplicate", "swap", "replace",
                                     "insert", "delete"]))
        token = draw(st.sampled_from(FUZZ_TOKENS + [_block_name(lines, i)]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, list(toks))
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "insert":
            toks.insert(draw(st.integers(0, len(toks))), token)
        elif toks and edit in ("replace", "delete"):
            j = draw(st.integers(0, len(toks) - 1))
            if edit == "replace":
                toks[j] = token
            else:
                del toks[j]
    return "".join(" ".join(toks) + "\n" for toks in lines)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(text=mutated_score_file())
def test_fuzzed_score_file_ends_cleanly(tmp_path_factory, text):
    # a malformed score file ends in an exit code with one stderr line,
    # never in a traceback; one whose 'n <count>' header is damaged or lost
    # never ends in a network, as it would if read as a one-column CSV
    path = tmp_path_factory.getbasetemp() / "mutated.scores"
    path.write_text(text, encoding="utf-8")
    head = next((ln.split() for ln in text.splitlines() if ln.strip()), [])
    headed = len(head) == 2 and head[0] == "n" and head[1].isdecimal()
    try:  # the reader's only input error is DataError
        read_score_file(path)
    except DataError:
        pass
    for command, *flags in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *flags])
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_USAGE, EXIT_VERIFY), \
            (command, err.getvalue())
        assert headed or code != EXIT_OK, (command, out.getvalue())
        if code in (EXIT_INPUT, EXIT_USAGE):
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("bnopt: "), \
                (command, lines)


# A lacks the empty parent set; a search that adds B first never asks for
# A's best parents within the empty pool
NO_EMPTY_SET_2 = "n 2\nvar A 1\n1.0 1 B\nvar B 1\n0.5 0\n"


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("flags", [[], ["--algorithm", "bfbnb"],
                                   ["--heuristic", "dynamic"],
                                   ["--heuristic", "static"]],
                         ids=["astar", "bfbnb", "dynamic", "static"])
def test_score_file_without_empty_set(tmp_path, optimize, flags):
    # holds under -O too, whatever the search queries: a missing empty
    # parent set must not turn into a read past the admissible entries and
    # a silently wrong network
    four = _edited_golden(tmp_path, "var A 3\n3 1 B\n9.4902249956730635 1 C\n"
                          "9.5 0\n", "var A 2\n3 1 B\n9.4902249956730635 1 C\n")
    two = tmp_path / "two.scores"
    two.write_text(NO_EMPTY_SET_2)
    for bad in (four, two):
        r = subprocess.run([sys.executable, *optimize, "-m", "bnopt", "learn",
                            str(bad), *flags], capture_output=True, text=True)
        assert r.returncode == EXIT_INPUT, (bad.name, r.stdout)
        assert r.stdout == ""
        err = r.stderr.splitlines()
        assert len(err) == 1 and "variable 0" in err[0], r.stderr


def test_verify_rejects_score_file_without_empty_set(tmp_path, capsys):
    bad = tmp_path / "two.scores"
    bad.write_text(NO_EMPTY_SET_2)
    assert main(["verify", str(bad)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "variable 0" in err[0], err


@pytest.mark.parametrize("algorithm", ["astar", "bfbnb"])
def test_learn_rejects_unsorted_score_file(tmp_path, capsys, algorithm):
    # read as given, A's first entry would be taken as its best for every
    # pool, and both searches would report 6.0 instead of 2.0
    bad = tmp_path / "unsorted.scores"
    bad.write_text("n 2\nvar A 2\n5.0 0\n1.0 1 B\nvar B 2\n1.0 0\n4.0 1 A\n")
    assert main(["learn", str(bad), "--algorithm", algorithm]) == EXIT_INPUT
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and f"{bad}: line 2: block for A:" in err[0]
    assert "not in ascending order" in err[0]


def test_learn_one_variable(tmp_path, capsys):
    # the default pattern cap (1) and grouping (one group) fit a single
    # variable; a cap of 2 does not
    p = tmp_path / "one.scores"
    p.write_text("n 1\nvar A 1\n1.0 0\n")
    setups = [["--algorithm", a, "--heuristic", h] for a in ("astar", "bfbnb")
              for h in ("simple", "dynamic", "static")]
    for flags in setups:
        assert main(["learn", str(p), *flags]) == EXIT_OK, flags
        report = json.loads(capsys.readouterr().out)
        assert report["total_score"] == 1.0 and report["parents"] == {"A": []}
    assert main(["learn", str(p), "--heuristic", "dynamic", "--k", "2"]) \
        == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_dynamic_pattern_cap_before_search(tmp_path, capsys, monkeypatch):
    # every table only {}: k = 30 would price 2^30 patterns, so it is
    # refused at once; k = 3 prices 4,525 and learns
    from bnopt import heuristics
    names = [f"X{i}" for i in range(1, 31)]
    p = tmp_path / "wide.scores"
    p.write_text("n 30\n" + "".join(f"var {nm} 1\n1.0 0\n" for nm in names))
    monkeypatch.setattr(heuristics, "pattern_costs",
                        lambda *a: pytest.fail("pattern sweep started"))
    assert main(["learn", str(p), "--heuristic", "dynamic", "--k", "30"]) \
        == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "bnopt: pattern size cap 30 over 30 variables prices 1073741824 "
        "patterns, over the cap 2^25"]
    monkeypatch.undo()
    assert main(["learn", str(p), "--heuristic", "dynamic", "--k", "3"]) \
        == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["total_score"] == 30.0
    assert report["parents"] == {nm: [] for nm in names}


@pytest.mark.parametrize("flags", [["--heuristic", "dynamic", "--k", "0"]],
                         ids=["k"])
def test_learn_zero_flag_is_usage_error(capsys, flags):
    assert main(["learn", str(GOLDEN_SCORES), *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("algorithm", ["astar", "bfbnb"])
@pytest.mark.parametrize("flag", [["--seed", "3"], ["--restarts", "2"]],
                         ids=["seed", "restarts"])
def test_learn_has_no_incumbent_flags(capsys, algorithm, flag):
    # BFBnB's incumbent has one setup, initial_upper_bound's defaults
    assert main(["learn", str(GOLDEN_SCORES), "--algorithm", algorithm,
                 *flag]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"bnopt: unrecognized arguments: {' '.join(flag)}"]


@pytest.mark.parametrize("argv", [
    ["score", str(FIXTURE_CSV), "--max-parents", "-1"],
    ["learn", str(FIXTURE_CSV), "--mem-budget", "-5"],
    ["learn", str(FIXTURE_CSV), "--mem-budget", "0"],
    ["score", str(FIXTURE_CSV), "--delimiter", ""],
    ["score", str(FIXTURE_CSV), "--delimiter", ";;"],
    ["learn", str(FIXTURE_CSV), "--delimiter", ";;"],
    ["verify", str(FIXTURE_CSV), "--delimiter", ""],
    # brute-force dynamic programming is a test reference, not a learner
    ["learn", str(FIXTURE_CSV), "--algorithm", "dp"],
    ["verify", str(FIXTURE_CSV), "--max-n", "0"],
    ["verify", str(FIXTURE_CSV), "--max-n", "-1"],
], ids=["max-parents-negative", "mem-budget-negative", "mem-budget-zero",
        "delimiter-empty", "delimiter-two-chars", "learn-delimiter",
        "verify-delimiter", "learn-algorithm-dp", "verify-max-n-zero",
        "verify-max-n-negative"])
def test_out_of_range_flag_is_usage_error(capsys, argv):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("groups", ["1-a,3-4", "1-2", "1-2,3-5", "", "2-1"])
def test_bad_groups_rejected_before_scoring(capsys, groups):
    # a CSV input: the grouping is checked once the header gives n, so the
    # only stderr line is the usage error, not "# scoring ..." before it
    assert main(["learn", str(FIXTURE_CSV), "--heuristic", "static",
                 "--groups", groups]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("bnopt: "), err
    assert "# scoring" not in captured.err


@pytest.mark.parametrize("k", ["99", "1"])
def test_bad_k_rejected_before_scoring(capsys, k):
    # like --groups, --k is checked against 2..n once the header gives n
    assert main(["learn", str(FIXTURE_CSV), "--heuristic", "dynamic",
                 "--k", k]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err == [f"bnopt: pattern size cap {k} outside 2..4"], err


@pytest.mark.parametrize("algorithm", ["astar", "bfbnb"])
def test_learn_default_k_on_two_variables(tmp_path, capsys, algorithm):
    # without --k the pattern size cap is min(3, n); an explicit 3 stays
    # out of range
    two = tmp_path / "two.scores"
    two.write_text("n 2\nvar A 2\n1.0 1 B\n5.0 0\nvar B 1\n1.0 0\n")
    argv = ["learn", str(two), "--algorithm", algorithm,
            "--heuristic", "dynamic"]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["k"] == 2
    assert report["total_score"] == 2.0
    assert report["parents"] == {"A": ["B"], "B": []}
    assert main(argv + ["--k", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_mem_budget_env_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("BNOPT_MEM_BUDGET", value)
    assert main(["learn", str(FIXTURE_CSV)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "BNOPT_MEM_BUDGET" in err[0]


def test_memory_budget_exit(tmp_path, capsys, monkeypatch):
    # one 9-variable component: its first expansion stores 10 nodes, over
    # the 1,500-byte budget (7 nodes)
    data = random_dataset(9, 150, seed=18)
    csv = write_csv(tmp_path, data)
    rc = main(["learn", str(csv), "--mem-budget", "1500"])
    assert rc == EXIT_MEMORY
    monkeypatch.setenv("BNOPT_MEM_BUDGET", "1500")
    assert main(["learn", str(csv)]) == EXIT_MEMORY


def test_pdb_counted_against_budget_before_scoring(capsys, monkeypatch):
    from bnopt import heuristics
    monkeypatch.setattr(heuristics, "pattern_costs",
                        lambda *a: pytest.fail("pattern sweep started"))
    # the fixture's auto groups price 2 * 2^2 patterns, k = 2 prices
    # 1 + 4 + 6; one byte short of either is refused before scoring
    for flags, entries in ((["--heuristic", "static"], 8),
                           (["--heuristic", "dynamic", "--k", "2"], 11)):
        need = entries * heuristics.PDB_ENTRY_BYTES
        assert main(["learn", str(FIXTURE_CSV), *flags, "--mem-budget",
                     str(need - 1)]) == EXIT_MEMORY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"bnopt: the {flags[1]} pattern database prices {entries} "
            f"patterns, ~{need} bytes, over the {need - 1}-byte budget"]
    monkeypatch.undo()
    assert main(["learn", str(FIXTURE_CSV), "--heuristic", "static",
                 "--mem-budget", str(1 << 20)]) == EXIT_OK


def _flat_score_file(tmp_path, n):
    """A score file of n variables whose tables hold only the empty set."""
    p = tmp_path / f"flat{n}.scores"
    p.write_text(f"n {n}\n" + "".join(f"var X{i} 1\n1.0 0\n"
                                      for i in range(1, n + 1)))
    return p


def test_largest_static_groups_refused_under_default_budget(tmp_path, capsys,
                                                           monkeypatch):
    # two groups at the size cap 25 would price 2^26 patterns, ~14.8 GB
    from bnopt import heuristics
    p = _flat_score_file(tmp_path, 50)
    monkeypatch.setattr(heuristics, "pattern_costs",
                        lambda *a: pytest.fail("pattern sweep started"))
    assert main(["learn", str(p), "--heuristic", "static",
                 "--groups", "1-25,26-50"]) == EXIT_MEMORY
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "prices 67108864 patterns" in err[0], err


@pytest.mark.parametrize("flags", [["--groups", "1-26,27-52"], [],
                                   ["--mem-budget", "100000000000"]],
                         ids=["explicit", "auto", "auto-large-budget"])
def test_auto_groups_checked_like_explicit_ones(tmp_path, capsys,
                                                monkeypatch, flags):
    # auto halves 52 variables into two groups of 26, over the size cap
    from bnopt import heuristics
    monkeypatch.setattr(heuristics, "pattern_costs",
                        lambda *a: pytest.fail("pattern sweep started"))
    p = _flat_score_file(tmp_path, 52)
    assert main(["learn", str(p), "--heuristic", "static",
                 *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "bnopt: group of 26 variables exceeds the size cap 25 (2^26 table "
        "entries)"]


@pytest.mark.parametrize("bound, groups, entries", [
    # the simple bound prices no pattern; the default k = 3 prices every
    # pattern of at most 3 of the fixture's 4 variables, 1 + 4 + 6 + 4;
    # the auto groups, which are 1-2,3-4, price 2 * 2^2
    ("simple", None, 0), ("dynamic", None, 15), ("static", None, 8),
    ("static", "1-2,3-4", 8)],
    ids=["simple", "dynamic", "static", "static-groups"])
@pytest.mark.parametrize("algorithm", ["astar", "bfbnb"])
def test_search_budget_is_what_the_pdb_leaves(capsys, monkeypatch, algorithm,
                                              bound, groups, entries):
    from bnopt import cli, heuristics
    real = getattr(cli, algorithm)
    budgets = []

    def spy(*args, mem_budget):
        budgets.append(mem_budget)
        return real(*args, mem_budget=mem_budget)
    monkeypatch.setattr(cli, algorithm, spy)
    budget = 1 << 20
    flags = [] if groups is None else ["--groups", groups]
    assert main(["learn", str(GOLDEN_SCORES), "--algorithm", algorithm,
                 "--heuristic", bound, *flags, "--mem-budget",
                 str(budget)]) == EXIT_OK
    assert budgets == [budget - entries * heuristics.PDB_ENTRY_BYTES]
    if bound == "static":  # the price is the size of the PDB it builds
        h = StaticHeuristic(read_score_file(GOLDEN_SCORES).tables,
                            parse_grouping(groups or "auto", 4))
        assert budget - budgets[0] == h.size * heuristics.PDB_ENTRY_BYTES


@pytest.mark.parametrize("algorithm", ["astar", "bfbnb"])
def test_learn_past_64_variables(tmp_path, capsys, algorithm):
    # masks are Python ints, so no variable count is too wide for them
    p = _flat_score_file(tmp_path, 65)
    assert main(["learn", str(p), "--algorithm", algorithm]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["dataset"]["n"] == 65
    assert report["total_score"] == 65.0
    assert all(pa == [] for pa in report["parents"].values())


@pytest.mark.parametrize("path", [FIXTURE_CSV, GOLDEN_SCORES],
                         ids=["csv", "scores"])
def test_verify_limit_checked_before_any_check(capsys, monkeypatch, path):
    # a higher --max-n does not lift the limit of the exhaustive sweeps
    from bnopt import scoring, verify
    monkeypatch.setattr(verify, "DP_MAX_VARS", 3)
    monkeypatch.setattr(scoring, "build_score_tables",
                        lambda *a, **kw: pytest.fail("scored a refused file"))
    monkeypatch.setattr(verify, "run_all",
                        lambda *a: pytest.fail("checks ran"))
    assert main(["verify", str(path), "--max-n", "30"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "bnopt: 4 variables exceed the exhaustive limit 3"]


def test_score_refuses_a_score_file(capsys, monkeypatch):
    from bnopt import scoring
    monkeypatch.setattr(scoring, "build_score_tables",
                        lambda *a, **kw: pytest.fail("scored a score file"))
    assert main(["score", str(GOLDEN_SCORES)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"bnopt: {GOLDEN_SCORES}: already a score file; score reads a data "
        "file"]


def test_dynamic_counts_pinned_on_every_python(capsys):
    # gen14.scores: perfbench/gen.py's model (model seed 503, n = 14), the
    # N = 2,000 records of seed 1, scored with --max-parents 4. Sums of
    # floats are taken one term at a time, so every Python gives these
    # counts; the compensated sum() of 3.12+ gave 114, 1,631 and 20. Its
    # parent graph splits into components of 1, 12 and 1 variables. While
    # only an exactly equal differential counted as a tie with a
    # sub-pattern's, the PDB stored 113 patterns, and A* expanded 1,629
    # nodes with 6 reopenings; the G_EPS band drops the 61 that tie
    assert main(["learn", str(DATA_DIR / "gen14.scores"), "--heuristic",
                 "dynamic", "--k", "3"]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert (stats["pdb_size"], stats["nodes_expanded"], stats["reopened"]) \
        == (52, 1446, 0)


def test_score_ingestion_flags(tmp_path, capsys):
    p = tmp_path / "odd.tsv"
    p.write_text("1\tNA\n2\t1\n3\t2\n4\t1\n")
    out = tmp_path / "odd.scores"
    rc = main(["score", str(p), "--delimiter", "\t", "--no-header",
               "--missing-token", "NA", "--out", str(out)])
    assert rc == EXIT_OK
    scores = read_score_file(out)
    assert scores.names == ["X1", "X2"]  # NA row dropped, 3 records remain


def _fixture_variant(tmp_path, name, edit):
    lines = FIXTURE_CSV.read_text().splitlines()
    p = tmp_path / name
    p.write_text("".join(line + "\n" for line in edit(lines)))
    return p


@pytest.mark.parametrize("command", ["learn", "verify"])
def test_ingest_flags_on_learn_and_verify(tmp_path, capsys, command):
    assert main([command, str(FIXTURE_CSV)]) == EXIT_OK
    plain = capsys.readouterr().out
    semi = _fixture_variant(tmp_path, "semi.csv",
                            lambda ls: [ln.replace(",", ";") for ln in ls])
    assert main([command, str(semi), "--delimiter", ";"]) == EXIT_OK
    assert capsys.readouterr().out == plain
    # a missing token of its own, and no header: X1..Xn
    bare = _fixture_variant(tmp_path, "bare.csv",
                            lambda ls: ls[1:] + [ls[1].replace(",n", ",NA")])
    assert main([command, str(bare), "--no-header", "--missing-token", "NA"]) \
        == EXIT_OK
    out = capsys.readouterr().out
    if command == "learn":
        report = json.loads(out)
        assert report["dataset"]["names"] == ["X1", "X2", "X3", "X4"]
        assert report["dataset"]["N"] == 8
        assert report["total_score"] == json.loads(plain)["total_score"]
    else:
        assert out == plain


@pytest.mark.parametrize("command", ["learn", "verify"])
@pytest.mark.parametrize("flags", [["--delimiter", ","], ["--no-header"],
                                   ["--missing-token", "?"]],
                         ids=["delimiter", "no-header", "missing-token"])
def test_ingest_flags_refused_for_a_score_file(capsys, command, flags):
    assert main([command, str(GOLDEN_SCORES), *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "bnopt: --delimiter, --missing-token and --no-header apply only to a "
        "data file"]


@pytest.mark.parametrize("command", ["score", "learn", "verify"])
def test_oversized_field_is_input_error(tmp_path, capsys, command):
    limit = csv.field_size_limit()
    p = tmp_path / "big.csv"
    p.write_text("A,B\n0,1\n1," + "x" * (limit + 1) + "\n1,0\n")
    assert main([command, str(p)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"bnopt: {p}: line 3: field larger than field limit ({limit})"]


@pytest.mark.parametrize("header, name", [("A B,C", "A B"), (",C", "")],
                         ids=["whitespace", "empty"])
def test_score_refuses_unrepresentable_name_before_scoring(
        tmp_path, capsys, monkeypatch, header, name):
    from bnopt import scoring
    monkeypatch.setattr(scoring, "build_score_tables",
                        lambda *a, **kw: pytest.fail("scored the data"))
    p = tmp_path / "names.csv"
    p.write_text(header + "\n0,1\n1,0\n1,1\n")
    out = tmp_path / "old.scores"
    out.write_bytes(b"old bytes\n")
    assert main(["score", str(p), "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"bnopt: {p}: variable name {name!r} not representable"]
    assert out.read_bytes() == b"old bytes\n"


def test_write_score_file_formats_before_opening(tmp_path):
    scores = read_score_file(GOLDEN_SCORES)
    scores.names[0] = "A B"
    out = tmp_path / "old.scores"
    out.write_bytes(b"old bytes\n")
    with pytest.raises(ValueError, match="'A B' not representable"):
        write_score_file(out, scores)
    assert out.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("names, d_score, message", [
    (["A", "A", "C", "D"], 1.0, "^duplicate variable name 'A'$"),
    (["A", "B", "C", "D", "E"], 1.0, "^5 variable names for 4 score tables$"),
    (["A", "B", "C"], 1.0, "^3 variable names for 4 score tables$"),
    (list("ABCD"), float("nan"), "^block for D: non-finite score nan$"),
    (list("ABCD"), float("inf"), "^block for D: non-finite score inf$"),
], ids=["repeated", "extra-name", "missing-name", "nan", "inf"])
def test_writer_refuses_what_the_reader_refuses(tmp_path, names, d_score,
                                                message):
    # each would write a file that read_score_file refuses, or fail
    # halfway through; the refusal comes before the file is opened
    scores = read_score_file(GOLDEN_SCORES)
    scores.names = names
    scores.tables[3].entries = [(d_score, 0)]  # D's one entry, the empty set
    out = tmp_path / "old.scores"
    out.write_bytes(b"old bytes\n")
    with pytest.raises(ValueError, match=message):
        write_score_file(out, scores)
    assert out.read_bytes() == b"old bytes\n"


def test_files_written_as_utf8_in_an_ascii_locale(tmp_path):
    # every reader decodes UTF-8, so the writers must not take the
    # locale's encoding, ASCII here
    p = tmp_path / "umlaut.csv"
    p.write_text("Größe,Wert\n1,0\n0,1\n1,1\n0,0\n", encoding="utf-8")
    scores, dot = tmp_path / "umlaut.scores", tmp_path / "umlaut.dot"
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C"}
    for args in (["score", str(p), "--out", str(scores)],
                 ["learn", str(p), "--dot", str(dot)]):
        r = subprocess.run([sys.executable, "-m", "bnopt", *args],
                           capture_output=True, env=env)
        assert r.returncode == EXIT_OK, r.stderr
    assert read_score_file(scores).names == ["Größe", "Wert"]
    assert dot.read_text(encoding="utf-8").splitlines()[1] == '  "Größe";'
    # stdout is UTF-8 too: score prints its score file's bytes, and a
    # verify violation that names Größe prints it and exits 5
    r = subprocess.run([sys.executable, "-m", "bnopt", "score", str(p)],
                       capture_output=True, env=env)
    assert r.returncode == EXIT_OK, r.stderr
    assert r.stdout == scores.read_bytes()
    bad = tmp_path / "unpruned.scores"
    bad.write_text("n 2\nvar Größe 2\n1.0 0\n2.0 1 Wert\nvar Wert 1\n"
                   "1.0 0\n", encoding="utf-8")
    r = subprocess.run([sys.executable, "-m", "bnopt", "verify", str(bad)],
                       capture_output=True, env=env)
    assert r.returncode == EXIT_VERIFY, r.stderr
    assert r.stdout.decode("utf-8").splitlines()[:2] == [
        "FAIL table shape (1 violation(s))",
        "  table Größe: {Wert} kept although subset {} scores no worse"]


def test_emit_dot_shapes():
    assert emit_dot(LearnedNetwork([0, 0], 0.0), ["A", "B"]) == (
        'digraph bn {\n  "A";\n  "B";\n}\n')
    assert emit_dot(LearnedNetwork([0, 1], 0.0), ["A", "B"]) == (
        'digraph bn {\n  "A";\n  "B";\n  "A" -> "B";\n}\n')
    # a backslash is escaped before a quote, so neither ends the string
    dot = emit_dot(LearnedNetwork([0, 1], 0.0), ["A\\", 'B"'])
    assert dot.splitlines() == ["digraph bn {", r'  "A\\";', r'  "B\"";',
                                r'  "A\\" -> "B\"";', "}"]


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "bnopt", *args],
                          capture_output=True)


def test_cli_byte_identical_runs():
    args = ["learn", str(FIXTURE_CSV), "--algorithm", "astar",
            "--heuristic", "static", "--groups", "auto"]
    first = _run_cli(args)
    second = _run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    score_first = _run_cli(["score", str(FIXTURE_CSV)])
    score_second = _run_cli(["score", str(FIXTURE_CSV)])
    assert score_first.stdout == score_second.stdout


# the setups of tests/data/one_scc10.reports, written by `bnopt learn` on
# synth.random_dataset(10, 200, seed=18) before A* and BFBnB split the
# search by component, and written again when each family's score became
# the difference of two exactly rounded set sums; the last two sections
# (the dynamic PDB at k = 4 under A*, at k = 3 under BFBnB) were written
# while the greedy cover still ran through a bit-vector index
ONE_SCC_SETUPS = [
    ["--algorithm", "astar", "--heuristic", "simple"],
    ["--algorithm", "astar", "--heuristic", "dynamic", "--k", "3"],
    ["--algorithm", "astar", "--heuristic", "static"],
    ["--algorithm", "bfbnb", "--heuristic", "simple"],
    ["--algorithm", "bfbnb", "--heuristic", "static"],
    ["--algorithm", "astar", "--heuristic", "dynamic", "--k", "4"],
    ["--algorithm", "bfbnb", "--heuristic", "dynamic", "--k", "3"],
]


def test_one_component_reports_unchanged(tmp_path, capsys):
    # a parent graph that is one strongly connected component is searched
    # as one lattice: same network, counts and report bytes as before
    csv = write_csv(tmp_path, random_dataset(10, 200, seed=18))
    out = []
    for flags in ONE_SCC_SETUPS:
        assert main(["learn", str(csv), *flags]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].endswith(", components [10]")
        out.append("# " + " ".join(flags) + "\n" + captured.out)
    assert "".join(out) == (DATA_DIR / "one_scc10.reports").read_text()


def test_bfbnb_static_report_matches_library_setup(capsys):
    # the CLI's BFBnB under the static bound is the library's auto grouping
    # and initial_upper_bound's default incumbent, as the benchmark's trace
    # rebuilds it, on the first file of the bfbnb-static workload
    path = DATA_DIR / "gen14.scores"
    assert main(["learn", str(path), "--algorithm", "bfbnb", "--heuristic",
                 "static"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    scores = read_score_file(path)
    tables = scores.tables
    h = StaticHeuristic(tables, parse_grouping("auto", scores.n))
    net, stats = bfbnb(tables, h, initial_upper_bound(tables))
    assert stats.component_sizes == [1, 12, 1]
    names = scores.names
    assert report["parents"] == {names[x]: [names[y] for y in bits(P)]
                                 for x, P in enumerate(net.parents)}
    assert report["total_score"] == net.total_score
    assert report["stats"] == {
        "nodes_expanded": stats.nodes_expanded,
        "nodes_generated": stats.nodes_generated,
        "reopened": stats.reopened,
        "peak_open_size": stats.peak_open_size,
        "pdb_size": h.size,
        "forced_skipped": stats.forced_skipped}


@pytest.mark.parametrize("algorithm,sizes", [
    ("astar", ", components [1, 12, 1]"),
    ("bfbnb", ", components [1, 12, 1]")])
def test_timing_line_names_component_sizes(capsys, algorithm, sizes):
    assert main(["learn", str(DATA_DIR / "gen14.scores"), "--algorithm",
                 algorithm]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"# pdb build \d+\.\d{3}s, search \d+\.\d{3}s"
                        + re.escape(sizes), err[-1]), err
