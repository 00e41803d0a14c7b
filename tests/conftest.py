import os
import sys
from pathlib import Path

import pytest

# run from a fresh checkout: the package from src/, here and in the
# `python -m bnopt` child processes, and the oracle module from tests/
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")
sys.path[:0] = [SRC_DIR, str(Path(__file__).parent)]
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))

from bnopt import LearnedNetwork, best_in, build_score_tables, load_dataset
from bnopt.parent_store import ordered_sum

DATA_DIR = Path(__file__).parent / "data"
FIXTURE_CSV = DATA_DIR / "fixture4.csv"

# frozen outputs of the independent oracle run on the committed fixture
OPT_SCORE = 31.490224995673064
SIMPLE_H_EMPTY = 24.990224995673064
SCORE_C_GIVEN_A = 9.490224995673064
PAIR_AB_COST = 12.490224995673064
PAIR_AB_DIFF = 6.4902249956730635
TRIPLE_ABC_COST = 21.990224995673064
TRIPLE_ABC_DIFF = 6.5
GREEDY_K2_AT_START = 31.480449991346127
STATIC_H_AT_START = 31.480449991346127


def empty_network(tables):
    """The network with no arcs, an incumbent every BFBnB bound admits
    short of it: on pruned tables no acyclic network scores worse."""
    return LearnedNetwork([0] * len(tables),
                          ordered_sum(best_in(t, 0)[0] for t in tables))


@pytest.fixture(scope="session")
def fixture_data():
    return load_dataset(FIXTURE_CSV)


@pytest.fixture(scope="session")
def fixture_scores(fixture_data):
    return build_score_tables(fixture_data)


@pytest.fixture(scope="session")
def fixture_tables(fixture_scores):
    return fixture_scores.tables
