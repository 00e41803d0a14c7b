import ast
import subprocess
import sys
from pathlib import Path

import pytest

import bnopt
from bnopt.cli import EXIT_OK, main
from conftest import DATA_DIR

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# ingest, scoring and the synthetic generator work on numpy arrays; the
# parent store, heuristics, search, verifier and CLI use plain Python
NUMPY_MODULES = {"dataset.py", "scoring.py", "synth.py"}


def _imports_numpy(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(nm == "numpy" or nm.startswith("numpy.") for nm in names):
            return True
    return False


def test_numpy_only_in_ingest_scoring_and_synth():
    src = Path(bnopt.__file__).parent
    importers = {p.name for p in src.glob("*.py") if _imports_numpy(p)}
    assert importers == NUMPY_MODULES


def test_no_assert_statements_in_package():
    # assert vanishes under python -O; invariants raise real exceptions
    src = Path(bnopt.__file__).parent
    holders = {p.name for p in src.glob("*.py")
               if any(isinstance(node, ast.Assert)
                      for node in ast.walk(ast.parse(p.read_text())))}
    assert holders == set()


def test_no_unused_imports_in_package():
    # every imported name is read in its module or re-exported by __all__
    src = Path(bnopt.__file__).parent
    unused = {}
    for p in src.glob("*.py"):
        imported, read = set(), set()
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        exported = set(bnopt.__all__) if p.name == "__init__.py" else set()
        if imported - read - exported:
            unused[p.name] = sorted(imported - read - exported)
    assert unused == {}


# the report of each score-file run is compared with the in-process CLI
SCORE_FILE_RUNS = {
    "astar-simple": ["--algorithm", "astar", "--heuristic", "simple"],
    "astar-dynamic": ["--algorithm", "astar", "--heuristic", "dynamic",
                      "--k", "3"],
    "bfbnb-static": ["--algorithm", "bfbnb", "--heuristic", "static"],
}

# runs bnopt the way `python -m bnopt` does, or only imports it when given
# no arguments, then names on the last stderr line the numpy-backed modules,
# the exhaustive references with the array module they use, and the
# slow-to-import stdlib modules (dataclasses pulls in inspect) it newly
# loaded; what site preloads does not count
CHILD = """\
import runpy, sys
before = set(sys.modules)
try:
    if len(sys.argv) > 1:
        runpy.run_module("bnopt", run_name="__main__", alter_sys=True)
    else:
        import bnopt
finally:
    print(" ".join(m for m in ("numpy", "bnopt.dataset", "bnopt.scoring",
                               "bnopt.synth", "bnopt.verify", "array",
                               "dataclasses", "inspect")
                   if m in sys.modules and m not in before),
          file=sys.stderr)
"""


def _child(args):
    c = subprocess.run([sys.executable, "-c", CHILD, *args],
                       capture_output=True, text=True)
    assert c.returncode == 0, c.stderr
    return c.stdout, c.stderr.splitlines()[-1].split()


def test_import_loads_no_numpy():
    assert _child([]) == ("", [])


@pytest.mark.parametrize("flags", SCORE_FILE_RUNS.values(),
                         ids=SCORE_FILE_RUNS.keys())
def test_score_file_learn_loads_no_numpy(capsys, flags):
    argv = ["learn", str(DATA_DIR / "fixture4.scores"), *flags]
    report, loaded = _child(argv)
    assert loaded == []
    assert main(argv) == EXIT_OK
    assert report == capsys.readouterr().out


def test_score_file_verify_loads_no_numpy(capsys):
    argv = ["verify", str(DATA_DIR / "fixture4.scores")]
    report, loaded = _child(argv)
    assert loaded == ["bnopt.verify", "array"]
    assert main(argv) == EXIT_OK
    assert report == capsys.readouterr().out


def test_search_imports_nothing_from_heuristics():
    # a search takes any bound with a value method; the exhaustive
    # references, which read the heuristics' sweep, live in verify
    tree = ast.parse((Path(bnopt.__file__).parent / "search.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported |= {a.name for a in node.names}
    assert not imported & {"heuristics", "array"}


def test_public_names_resolve():
    for name in bnopt.__all__:
        value = getattr(bnopt, name)
        # a lazily loaded name is the object its own module defines
        assert getattr(sys.modules[value.__module__], name) is value, name
    with pytest.raises(AttributeError, match="no_such_name"):
        bnopt.no_such_name


@pytest.mark.parametrize("stem", sorted(bnopt._MODULES))
def test_modules_load_on_access(stem):
    # the benchmark's trace patches names inside these module attributes
    module = bnopt.__getattr__(stem)
    assert module is sys.modules[f"bnopt.{stem}"] is getattr(bnopt, stem)


def test_import_loads_no_submodule():
    c = subprocess.run([sys.executable, "-c", "import sys, bnopt; print(*("
                        "m for m in sys.modules if m.startswith('bnopt.')))"],
                       capture_output=True, text=True)
    assert c.returncode == 0, c.stderr
    assert c.stdout.split() == []


FAILING_PROPERTY = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_prints_its_example(tmp_path):
    # under the repository's pytest settings, a falsified property ends as
    # a test failure that shows the example, not as an internal error
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    c = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                        "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                        "test_property.py"],
                       cwd=tmp_path, capture_output=True, text=True)
    assert c.returncode == 1, c.stdout + c.stderr
    assert "Falsifying example: test_fails(" in c.stdout, c.stdout
    assert "x=5," in c.stdout
