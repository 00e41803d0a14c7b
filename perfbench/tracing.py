"""Traced in-process run of the ``bnopt learn`` pipeline.

The stages are driven through bnopt's public library API in the order the
CLI uses, each inside a span. Operations called from inside a stage
(``best_in``, ``cursor_exclude``, ``reconstruct``, ``heuristic.value``, the
scoring and ingest helpers) are counted by replacing their names in the
calling module's namespace for the length of one pass; each adds a count
and a total time, not a span. Nothing in the package is edited.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, name, operation counted): every call site the pipeline reaches
PATCHES = [
    ("dataset", "load_delimited", "load_delimited"),
    ("dataset", "drop_incomplete", "drop_incomplete"),
    ("scoring", "mdl_local_score", "mdl_local_score"),
    ("heuristics", "best_in", "best_in"),
    ("search", "best_in", "best_in"),
    ("search", "cursor_exclude", "cursor_exclude"),
    ("search", "reconstruct", "reconstruct"),
]


class Tracer:
    """Spans for the stages plus (operation, stage) -> [calls, seconds]."""

    def __init__(self, record: bool):
        self.t0 = perf_counter()
        self.spans: list[dict] = []
        self.stage: str | None = None
        self.ops: dict[tuple[str, str | None], list] = defaultdict(
            lambda: [0, 0.0])
        self.rows: dict[str, int] = {}
        # inputs and answers of the inner operations, for the replays
        self.record = record
        self.q_var, self.q_cand = array("q"), array("q")
        self.q_score, self.q_pa = array("d"), array("q")
        self.v_node, self.v_value = array("q"), array("d")

    @contextmanager
    def span(self, name: str, layer: str):
        parent, self.stage = self.stage, name
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stage = parent
            self.spans.append({"name": name, "layer": layer, "parent": parent,
                               "start_s": start - self.t0,
                               "end_s": end - self.t0})

    def wrap(self, op: str, fn):
        ops = self.ops

        def counted(*args, **kwargs):
            t = perf_counter()
            out = fn(*args, **kwargs)
            c = ops[op, self.stage]
            c[0] += 1
            c[1] += perf_counter() - t
            if op == "best_in" and self.record:
                self.q_var.append(args[0].variable)
                self.q_cand.append(args[1])
                self.q_score.append(out[0])
                self.q_pa.append(out[1])
            elif op == "value" and self.record:
                self.v_node.append(args[0])
                self.v_value.append(out)
            elif op in ("load_delimited", "drop_incomplete"):
                self.rows[op] = out.n_rows
            return out
        return counted

    def totals(self, op: str, stage: str | None = None) -> tuple[int, float]:
        """Calls and seconds of an operation, in one stage or in all."""
        calls, secs = 0, 0.0
        for (o, s), (c, t) in self.ops.items():
            if o == op and stage in (None, s):
                calls += c
                secs += t
        return calls, secs

    def span_s(self, name: str) -> float:
        return sum(s["end_s"] - s["start_s"] for s in self.spans
                   if s["name"] == name)


@contextmanager
def patched(bn, tracer: Tracer):
    saved = []
    try:
        for mod_name, name, op in PATCHES:
            mod = getattr(bn, mod_name)
            saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, tracer.wrap(op, getattr(mod, name)))
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


HEURISTICS = {"simple": "SimpleHeuristic", "dynamic": "DynamicHeuristic",
              "static": "StaticHeuristic"}


def make_heuristic(bn, wl, tables):
    """The provider `bnopt learn` builds for the workload's flags."""
    cls = getattr(bn, HEURISTICS[wl.heuristic])
    if wl.heuristic == "dynamic":
        return cls(tables, wl.k)
    if wl.heuristic == "static":
        return cls(tables, bn.parse_grouping("auto", len(tables)))
    return cls(tables)


def traced_pass(bn, wl, path: str, mem_budget: int, record: bool):
    """One learn pipeline as the CLI runs it, with flag defaults
    (hill-climbing seed 0, 8 restarts). Returns the tracer and what the
    stages produced."""
    tr = Tracer(record)
    incumbent = None
    with patched(bn, tr), tr.span("learn", "pipeline"):
        if wl.from_csv:
            with tr.span("load_dataset", "dataset"):
                data = bn.load_dataset(path)
            with tr.span("build_score_tables", "scoring"):
                scores = bn.build_score_tables(data)
        else:
            with tr.span("read_score_file", "scoring"):
                scores = bn.read_score_file(path)
        tables = scores.tables
        with tr.span(HEURISTICS[wl.heuristic], "heuristics"):
            h = make_heuristic(bn, wl, tables)
        h.value = tr.wrap("value", h.value)
        try:
            if wl.algorithm == "astar":
                with tr.span("astar", "search"):
                    net, stats = bn.astar(tables, h, mem_budget=mem_budget)
            else:
                with tr.span("initial_upper_bound", "search"):
                    incumbent = bn.initial_upper_bound(tables, 0, 8)
                with tr.span("bfbnb", "search"):
                    net, stats = bn.bfbnb(tables, h, incumbent,
                                          mem_budget=mem_budget)
        finally:
            del h.value
    return tr, scores, h, net, stats, incumbent


def _per(num: float, den: int, scale: float = 1.0) -> float | None:
    return scale * num / den if den else None


def layer_metrics(tr: Tracer, wl, scores, h, net, stats, incumbent) -> dict:
    """Per-layer figures of one pass; None where the workload does not
    reach the stage."""
    solve = wl.algorithm
    scored, _ = tr.totals("mdl_local_score")
    kept = sum(len(t) for t in scores.tables)
    build_s = tr.span_s("build_score_tables")
    q_calls, q_s = tr.totals("best_in")
    v_calls, v_s = tr.totals("value")
    solve_s = tr.span_s(solve)
    read_rows = tr.rows.get("load_delimited", 0)
    opt = net.total_score
    return {
        "dataset.load_s": tr.span_s("load_dataset") if wl.from_csv else None,
        "dataset.rows_read": read_rows,
        "dataset.rows_dropped": read_rows - tr.rows.get("drop_incomplete", 0),
        "scoring.build_s": build_s if wl.from_csv else None,
        "scoring.sets_scored": scored,
        "scoring.sets_kept": kept,
        "scoring.kept_ratio": _per(kept, scored),
        "scoring.us_per_set": _per(build_s, scored, 1e6),
        "scoring.read_s": (None if wl.from_csv
                           else tr.span_s("read_score_file")),
        "parent_store.best_in_calls": q_calls,
        "parent_store.best_in_s": q_s,
        "parent_store.us_per_query": _per(q_s, q_calls, 1e6),
        "parent_store.cursor_calls": tr.totals("cursor_exclude")[0],
        "heuristics.build_s": tr.span_s(HEURISTICS[wl.heuristic]),
        "heuristics.pdb_size": h.size,
        "heuristics.value_calls": v_calls,
        "heuristics.value_s": v_s,
        "heuristics.us_per_value": _per(v_s, v_calls, 1e6),
        "heuristics.root_gap": h.value(0) / opt,
        "search.solve_s": solve_s,
        "search.self_s": (solve_s - tr.totals("best_in", solve)[1]
                          - tr.totals("value", solve)[1]),
        "search.us_per_expansion": _per(solve_s, stats.nodes_expanded, 1e6),
        "search.nodes_expanded": stats.nodes_expanded,
        "search.nodes_generated": stats.nodes_generated,
        "search.reopened": stats.reopened,
        "search.peak_open": stats.peak_open_size,
        "search.expanded_per_generated": _per(stats.nodes_expanded,
                                              stats.nodes_generated),
        "search.upper_bound_s": (tr.span_s("initial_upper_bound")
                                 if incumbent is not None else None),
        "search.incumbent_gap": (incumbent.total_score / opt
                                 if incumbent is not None else None),
        "search.reconstruct_s": tr.totals("reconstruct")[1],
        "trace.pipeline_s": tr.span_s("learn"),
    }


def replay_best_in(bn, tables, tr: Tracer) -> tuple[float, bool]:
    """Microseconds per recorded BestScore query answered again in a tight
    loop, and whether every answer matches the recorded one."""
    best_in = bn.parent_store.best_in
    pairs = list(zip(tr.q_var, tr.q_cand))
    t = perf_counter()
    got = [best_in(tables[x], cand) for x, cand in pairs]
    dt = perf_counter() - t
    same = got == list(zip(tr.q_score, tr.q_pa))
    return 1e6 * dt / len(pairs), same


def replay_value(h, tr: Tracer) -> tuple[float, bool]:
    """Microseconds per recorded heuristic evaluation, replayed likewise."""
    value = h.value
    nodes = list(tr.v_node)
    t = perf_counter()
    got = [value(U) for U in nodes]
    dt = perf_counter() - t
    return 1e6 * dt / len(nodes), got == list(tr.v_value)
