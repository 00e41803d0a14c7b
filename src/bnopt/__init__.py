"""Exact score-based Bayesian network structure learning.

Learning is posed as a shortest-path problem over the order graph (the
lattice of variable subsets): the arc U -> U|{x} costs the best MDL score
of x with parents drawn from U. A sparse per-variable store of sorted
unique parent sets answers those arc costs by a first-fit scan, and
additive pattern databases tighten the admissible search heuristics. A* and
breadth-first branch and bound both return provably optimal networks.
"""

from importlib import import_module

from .heuristics import (DynamicHeuristic, SimpleHeuristic, StaticHeuristic,
                         default_grouping, parse_grouping, pattern_cost_exact)
from .parent_store import (DataError, ExclusionCursor, ScoreSet, ScoreTable,
                           best_in, cursor_best, cursor_exclude, cursor_new,
                           format_score_file, read_score_file,
                           write_score_file)
from .search import (LearnedNetwork, MemoryBudgetError, SearchStats, astar,
                     bfbnb, dp_oracle, exact_distances_to_goal,
                     initial_upper_bound, reconstruct)

# The numpy-backed modules and their names load on first access (PEP 562),
# so a learn run on a score file never imports numpy.
_LAZY_MODULES = {
    "dataset": ("Dataset", "RawTable", "binarize_mean", "counts",
                "drop_incomplete", "load_dataset", "load_delimited"),
    "scoring": ("build_score_tables", "mdl_local_score", "parent_limit",
                "prune_scores"),
    "synth": ("prefix_dataset", "random_dataset"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items()
               for name in names}


def __getattr__(name):
    if name in _LAZY_MODULES:
        return import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

# no compiled kernels exist; read by the benchmark's machine probe
using_numba = False

__all__ = [
    "DataError", "Dataset", "RawTable", "binarize_mean", "counts",
    "drop_incomplete", "load_dataset", "load_delimited",
    "ScoreSet", "build_score_tables",
    "format_score_file", "mdl_local_score", "parent_limit", "prune_scores",
    "read_score_file", "write_score_file",
    "ExclusionCursor", "ScoreTable", "best_in", "cursor_best",
    "cursor_exclude", "cursor_new",
    "DynamicHeuristic", "SimpleHeuristic", "StaticHeuristic",
    "default_grouping", "parse_grouping", "pattern_cost_exact",
    "LearnedNetwork", "MemoryBudgetError", "SearchStats", "astar", "bfbnb",
    "dp_oracle", "exact_distances_to_goal", "initial_upper_bound",
    "reconstruct",
    "prefix_dataset", "random_dataset",
]
