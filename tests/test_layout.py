import ast
from pathlib import Path

import bnopt

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
