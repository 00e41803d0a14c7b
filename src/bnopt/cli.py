"""Command-line front end: score, learn, verify.

Exit codes: 0 success, 2 input error, 3 flag/usage error, 4 memory budget
exceeded, 5 verification failure, 141 stdout closed by its reader. Reports
go to stdout (and --out) as JSON with a fixed key order; wall-clock timings
go to stderr so identical inputs and flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .bitset import bits
from .heuristics import (PDB_ENTRY_BYTES, DynamicHeuristic, SimpleHeuristic,
                         StaticHeuristic, check_pattern_cap, parse_grouping)
from .parent_store import (DataError, ScoreSet, check_names,
                           format_score_file, is_score_file, read_score_file,
                           write_score_file)
from .search import (DEFAULT_MEM_BUDGET, LearnedNetwork, MemoryBudgetError,
                     SearchStats, astar, bfbnb, initial_upper_bound)

# dataset and scoring load numpy, verify the exhaustive references; each is
# imported where it is needed, so a score-file learn run loads none of them
if TYPE_CHECKING:
    from .dataset import Dataset

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_MEMORY = 4
EXIT_VERIFY = 5
EXIT_PIPE = 141  # 128 + SIGPIPE


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to the usage exit code
        raise UsageError(message)


def _mem_budget(args) -> int:
    """--mem-budget, else $BNOPT_MEM_BUDGET, else the default; read when
    learn runs, so a bad value is a usage error like a bad flag."""
    if args.mem_budget is not None:
        budget, source = args.mem_budget, "--mem-budget"
    else:
        env = os.environ.get("BNOPT_MEM_BUDGET")
        if not env:
            return DEFAULT_MEM_BUDGET
        source = "BNOPT_MEM_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(f"{source} {env!r} is not an integer") from None
    if budget < 1:
        raise UsageError(f"{source} {budget}: need at least 1 byte")
    return budget


def emit_dot(net: LearnedNetwork, names: list[str]) -> str:
    """DOT text with one edge per parent relation; nodes and edges in
    ascending index order, no layout hints."""
    q = lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = ["digraph bn {"]
    lines += [f"  {q(nm)};" for nm in names]
    for x in range(net.n):
        for y in bits(net.parents[x]):
            lines.append(f"  {q(names[y])} -> {q(names[x])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _build_report(scores: ScoreSet, net: LearnedNetwork, stats: SearchStats,
                  config: dict, N, pdb_size) -> str:
    report = {
        "dataset": {"n": scores.n, "N": N, "names": scores.names},
        "config": config,
        "total_score": net.total_score,
        "parents": {
            scores.names[x]: [scores.names[y] for y in bits(net.parents[x])]
            for x in range(scores.n)
        },
        "stats": {
            "nodes_expanded": stats.nodes_expanded,
            "nodes_generated": stats.nodes_generated,
            "reopened": stats.reopened,
            "peak_open_size": stats.peak_open_size,
            "pdb_size": pdb_size,
            "forced_skipped": stats.forced_skipped,
        },
    }
    return json.dumps(report, indent=2) + "\n"


def _add_ingest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delimiter", help="one character (default ',')")
    p.add_argument("--missing-token", action="append", default=None,
                   help="token treated as a missing cell (repeatable; "
                        "replaces the default set of '?' and empty)")
    p.add_argument("--no-header", action="store_true",
                   help="headerless input; variables named X1..Xn")


def _ingest_options(args) -> dict:
    """load_dataset keyword arguments for the ingest flags given; empty
    when none is."""
    options = {}
    if args.delimiter is not None:
        if len(args.delimiter) != 1:
            raise UsageError(f"--delimiter {args.delimiter!r}: need exactly "
                             "one character")
        options["delimiter"] = args.delimiter
    if args.missing_token:
        options["missing_tokens"] = frozenset(args.missing_token)
    if args.no_header:
        options["header"] = False
    return options


def cmd_score(args) -> int:
    if args.max_parents is not None and args.max_parents < 0:
        raise UsageError(f"--max-parents {args.max_parents}: need 0 or more")
    options = _ingest_options(args)
    if is_score_file(args.input):
        raise DataError(f"{args.input}: already a score file; score reads a "
                        "data file")
    from .dataset import load_dataset
    from .scoring import build_score_tables, parent_limit
    data = load_dataset(args.input, **options)
    try:  # before scoring, so a refused name costs no scoring run
        check_names(data.names)
    except ValueError as e:
        raise DataError(f"{args.input}: {e}") from None
    limit = parent_limit(data.N)
    if args.max_parents is not None and args.max_parents > limit:
        raise UsageError(
            f"--max-parents {args.max_parents} is above the record-count "
            f"limit {limit}; the limit may only be tightened")
    print(f"# {data.n} variables, {data.N} records, parent limit "
          f"{args.max_parents if args.max_parents is not None else limit}",
          file=sys.stderr)
    scores = build_score_tables(data, max_parents=args.max_parents)
    if args.out:
        write_score_file(args.out, scores)
    else:
        sys.stdout.write(format_score_file(scores))
    return EXIT_OK


def _load_input(args) -> tuple[ScoreSet | None, Dataset | None]:
    """(scores, None) for a score file, (None, data) for a data file that
    still needs scoring."""
    options = _ingest_options(args)
    if is_score_file(args.input):
        if options:
            raise UsageError("--delimiter, --missing-token and --no-header "
                             "apply only to a data file")
        return read_score_file(args.input), None
    from .dataset import load_dataset
    return None, load_dataset(args.input, **options)


def cmd_learn(args) -> int:
    if args.k is not None and args.heuristic != "dynamic":
        raise UsageError("--k only makes sense with --heuristic dynamic")
    if args.groups is not None and args.heuristic != "static":
        raise UsageError("--groups only makes sense with --heuristic static")
    mem_budget = _mem_budget(args)
    scores, data = _load_input(args)
    n = scores.n if data is None else data.n
    # the one place the bound is decided: the report's k and groups, the
    # patterns its PDB prices (the simple bound keeps only n floats) and
    # its constructor; checked before scoring, so a typo costs no scoring run
    k = groups = None
    try:
        if args.heuristic == "simple":
            entries, make = 0, SimpleHeuristic
        elif args.heuristic == "dynamic":
            k = args.k if args.k is not None else min(3, n)
            entries = check_pattern_cap(k, n)
            make = lambda tables: DynamicHeuristic(tables, k)
        else:
            groups = "auto" if args.groups is None else args.groups
            grouping = parse_grouping(groups, n)
            entries = sum(1 << g.bit_count() for g in grouping)
            make = lambda tables: StaticHeuristic(tables, grouping)
    except ValueError as e:
        raise UsageError(str(e)) from e
    # priced against the budget before scoring; the search gets the rest
    pdb_bytes = entries * PDB_ENTRY_BYTES
    if pdb_bytes > mem_budget:
        raise MemoryBudgetError(
            f"the {args.heuristic} pattern database prices {entries} "
            f"patterns, ~{pdb_bytes} bytes, over the {mem_budget}-byte "
            "budget")
    mem_budget -= pdb_bytes
    N = limit = None
    if data is not None:
        from .scoring import build_score_tables, parent_limit
        N, limit = data.N, parent_limit(data.N)
        print(f"# scoring {args.input}: {n} variables, {N} records, "
              f"parent limit {limit}", file=sys.stderr)
        scores = build_score_tables(data)
    tables = scores.tables

    t0 = time.perf_counter()
    h = make(tables)
    pdb_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    if args.algorithm == "astar":
        net, stats = astar(tables, h, mem_budget=mem_budget)
    else:
        net, stats = bfbnb(tables, h, initial_upper_bound(tables),
                           mem_budget=mem_budget)
    search_time = time.perf_counter() - t0
    print(f"# pdb build {pdb_time:.3f}s, search {search_time:.3f}s, "
          f"components {stats.component_sizes}", file=sys.stderr)

    config = {"algorithm": args.algorithm, "heuristic": args.heuristic,
              "k": k, "groups": groups, "parent_limit": limit}
    text = _build_report(scores, net, stats, config, N, h.size)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(emit_dot(net, scores.names))
    sys.stdout.write(text)  # only once every file is written
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import check_exhaustive, run_all

    if args.max_n < 1:
        raise UsageError(f"--max-n {args.max_n}: need at least 1")
    scores, data = _load_input(args)
    n = scores.n if data is None else data.n
    # checked before scoring, so a refused data file costs no scoring run
    try:
        check_exhaustive(n)
    except ValueError as e:
        raise UsageError(str(e)) from e
    if n > args.max_n:
        raise UsageError(f"{n} variables exceed the exhaustive-check guard "
                         f"{args.max_n}; raise --max-n to force")
    if data is not None:
        from .scoring import build_score_tables
        scores = build_score_tables(data)
    ok, lines = run_all(scores, data)
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_VERIFY


def _make_parser() -> _Parser:
    p = _Parser(prog="bnopt",
                description="Exact Bayesian network structure learning by "
                            "shortest-path search over the order graph.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("score", help="compute local scores for a data file")
    ps.add_argument("input")
    ps.add_argument("--out", help="score file path (default: stdout)")
    ps.add_argument("--max-parents", type=int,
                    help="tighten the in-degree limit (downward only)")
    _add_ingest_flags(ps)
    ps.set_defaults(func=cmd_score)

    pl = sub.add_parser("learn", help="learn an optimal network from a data "
                                      "or score file")
    pl.add_argument("input")
    pl.add_argument("--algorithm", choices=["astar", "bfbnb"],
                    default="astar")
    pl.add_argument("--heuristic", choices=["simple", "dynamic", "static"],
                    default="simple")
    pl.add_argument("--k", type=int, help="pattern size cap (dynamic only, "
                                          "default 3, or n if smaller)")
    pl.add_argument("--groups", help="static grouping, e.g. '1-4,5-8' "
                                     "(1-based) or 'auto'")
    pl.add_argument("--mem-budget", type=int,
                    help="search memory budget in bytes "
                         "(default $BNOPT_MEM_BUDGET or 4 GiB)")
    pl.add_argument("--out", help="also write the JSON report here")
    pl.add_argument("--dot", help="write the network in DOT format here")
    _add_ingest_flags(pl)
    pl.set_defaults(func=cmd_learn)

    pv = sub.add_parser("verify", help="run exhaustive invariant checks")
    pv.add_argument("input")
    pv.add_argument("--max-n", type=int, default=10,
                    help="refuse exhaustive checks above this variable count")
    _add_ingest_flags(pv)
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    # every reader decodes UTF-8, so stdout is UTF-8 whatever the locale;
    # a stream the caller swapped in, such as a StringIO, has none to set
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: what stdout still buffers goes to devnull,
        # so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UsageError as e:
        print(f"bnopt: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError, ValueError) as e:
        print(f"bnopt: {e}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryBudgetError as e:
        s = e.stats
        counts = (f" (expanded {s.nodes_expanded}, generated "
                  f"{s.nodes_generated})" if s else "")
        print(f"bnopt: {e}{counts}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
