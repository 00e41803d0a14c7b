"""Exact score-based Bayesian network structure learning.

Learning is posed as a shortest-path problem over the order graph (the
lattice of variable subsets): the arc U -> U|{x} costs the best MDL score
of x with parents drawn from U. A sparse per-variable score store answers
those arc costs through one int bit row per candidate parent, and additive
pattern databases tighten the admissible search heuristics. A* and
breadth-first branch and bound both return provably optimal networks.
"""

from .dataset import (DataError, Dataset, RawTable, binarize_mean, counts,
                      drop_incomplete, load_dataset, load_delimited)
from .heuristics import (DynamicHeuristic, SimpleHeuristic, StaticHeuristic,
                         default_grouping, parse_grouping, pattern_cost_exact)
from .parent_store import (ExclusionCursor, ScoreTable, best_in,
                           best_score_naive, cursor_best, cursor_exclude,
                           cursor_new)
from .scoring import (ScoreSet, build_score_table, build_score_tables,
                      format_score_file, mdl_local_score, parent_limit,
                      prune_scores, read_score_file, write_score_file)
from .search import (LearnedNetwork, MemoryBudgetError, SearchStats, astar,
                     bfbnb, dp_oracle, exact_distances_to_goal,
                     initial_upper_bound, reconstruct)
from .synth import prefix_dataset, random_dataset

__version__ = "0.1.0"

# no compiled kernels exist; read by the benchmark's machine probe
using_numba = False

__all__ = [
    "DataError", "Dataset", "RawTable", "binarize_mean", "counts",
    "drop_incomplete", "load_dataset", "load_delimited",
    "ScoreSet", "build_score_table", "build_score_tables",
    "format_score_file", "mdl_local_score", "parent_limit", "prune_scores",
    "read_score_file", "write_score_file",
    "ExclusionCursor", "ScoreTable", "best_in", "best_score_naive",
    "cursor_best", "cursor_exclude", "cursor_new",
    "DynamicHeuristic", "SimpleHeuristic", "StaticHeuristic",
    "default_grouping", "parse_grouping", "pattern_cost_exact",
    "LearnedNetwork", "MemoryBudgetError", "SearchStats", "astar", "bfbnb",
    "dp_oracle", "exact_distances_to_goal", "initial_upper_bound",
    "reconstruct",
    "prefix_dataset", "random_dataset",
]
