"""Exact score-based Bayesian network structure learning.

Learning is posed as a shortest-path problem over the order graph (the
lattice of variable subsets): the arc U -> U|{x} costs the best MDL score
of x with parents drawn from U. A sparse per-variable store of sorted
unique parent sets answers those arc costs by a first-fit scan, and
additive pattern databases tighten the admissible search heuristics. A* and
breadth-first branch and bound both return provably optimal networks.
"""

from importlib import import_module

# Every public name, under the module that defines it. A module and its
# names load on first access (PEP 562), so `import bnopt` loads no
# submodule and a learn run on a score file never imports numpy.
_MODULES = {
    "dataset": ("Dataset", "RawTable", "binarize_mean", "counts",
                "drop_incomplete", "load_dataset", "load_delimited"),
    "scoring": ("build_score_tables", "mdl_local_score", "parent_limit"),
    "parent_store": ("DataError", "ScoreSet", "ScoreTable", "best_in",
                     "format_score_file", "read_score_file",
                     "write_score_file"),
    "heuristics": ("DynamicHeuristic", "SimpleHeuristic", "StaticHeuristic",
                   "default_grouping", "parse_grouping"),
    "search": ("LearnedNetwork", "MemoryBudgetError", "SearchStats", "astar",
               "bfbnb", "initial_upper_bound", "reconstruct"),
    "synth": ("prefix_dataset", "random_dataset"),
    "verify": ("dp_oracle", "exact_distances_to_goal", "pattern_cost_exact"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items()
              for name in names}


def __getattr__(name):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

# no compiled kernels exist; read by the benchmark's machine probe
using_numba = False

__all__ = list(_MODULE_OF)
