#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``bnopt learn``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/`` there. Each run generates its datasets from the seed (one, or
five for astar-dynamic), prepares a score file of each with ``bnopt
score`` and a reference optimum (not timed), then measures for the given
number of seconds.

--trace 0  closed loop, one client: each iteration spawns a child that only
           imports bnopt, the fixed reference program (reference.py), then
           one child that runs ``bnopt learn`` as ``python -m bnopt`` does
           (wall_s; cpu_s from wait4; peak_rss_mb from the child's own
           VmHWM) on the datasets in turn, and checks its report.
--trace 1  drives the same stages in-process through the library API on
           the first dataset, timing each layer from outside (see
           tracing.py); after each pass it runs one untraced learn child
           and one import-only child for the tracing overhead, and at the
           end replays the recorded inner operations in tight loops.

The gated times are relative to the reference program's, measured in the
same run, because the speed of a shared host drifts by a third or more
within minutes: wall_rel and cpu_rel are learn times in units of the
reference's, and setup_s is the import-only time in units of the
reference's wall time, times REF_WALL_S, i.e. seconds at the reference's
nominal speed (see summarize). The raw medians are printed beside them.

Human-readable lines come first; the last line of stdout is one JSON
object. The full result, with the traced spans, is written as JSON under
perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# One thread per process: numpy's OpenBLAS otherwise starts a worker at
# import that spins for ~0.1 s on the other core. Set before numpy loads;
# every child inherits it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

CHILD_TIMEOUT_S = 120
IMPORT_ONLY = ["-c", "import bnopt"]
REFERENCE = [str(HERE / "reference.py")]
# median wall time of reference.py on a quiet 2-core Xeon VM; it only sets
# the scale of setup_s
REF_WALL_S = 0.45

# ru_maxrss of a child also counts the benchmark's own pages that were
# mapped when it was forked, so a module child records its own high-water
# mark (VmHWM) at exit into the file named by its first argument, then runs
# the module the way `python -m` does.
RUN_MODULE = """\
import atexit, runpy, sys
def hwm(path=sys.argv[1]):
    with open("/proc/self/status") as f:
        kib = next(ln.split()[1] for ln in f if ln.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kib)
atexit.register(hwm)
del sys.argv[:2]
runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
"""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    N: int                   # complete records
    model_seed: int          # fixes the planted network; --seed draws records
    incomplete: int          # extra records carrying one '?' cell
    max_parents: int | None  # passed to `bnopt score`
    from_csv: bool           # learn reads the CSV, else the score file
    algorithm: str
    heuristic: str
    k: int | None = None
    datasets: int = 1        # samples per run; untraced children take turns

    def learn_flags(self) -> list[str]:
        flags = ["--algorithm", self.algorithm, "--heuristic", self.heuristic]
        return flags + (["--k", str(self.k)] if self.k else [])


# Sized so that one learn child takes about 1-2 s on a 2-core box, so that a
# run holds enough children for a median. The score-file workloads share one
# input and differ only in how the search uses the layers. With N = 2000 the
# planted network is recovered about equally well from every seed's sample,
# so the work per run moves little between seeds (BFBnB expansions by ~1%).
# A*'s expansions move more (up to a quarter on some seeds, through
# reopening), so astar-dynamic learns from five samples per run and reports
# the median over all of their children.
WORKLOADS = {w.name: w for w in [
    Workload("csv-score", n=10, N=5000, model_seed=502, incomplete=100,
             max_parents=None, from_csv=True, algorithm="astar",
             heuristic="simple"),
    Workload("astar-dynamic", n=14, N=2000, model_seed=503, incomplete=0,
             max_parents=4, from_csv=False, algorithm="astar",
             heuristic="dynamic", k=3, datasets=5),
    Workload("bfbnb-static", n=14, N=2000, model_seed=503, incomplete=0,
             max_parents=4, from_csv=False, algorithm="bfbnb",
             heuristic="static"),
]}

# per-child samples of an untraced run, and the figures made of them
SAMPLED = ["wall_s", "cpu_s", "peak_rss_mb", "setup_raw_s", "ref_wall_s",
           "ref_cpu_s"]


# Figures printed and kept in result.json but not declared in
# BENCHMARK.json, because some workload never reaches their stage. Every
# other figure takes its unit from BENCHMARK.json.
UNDECLARED_UNITS = {
    "dataset.load_s": "s", "scoring.build_s": "s", "scoring.kept_ratio": "1",
    "scoring.us_per_set": "us", "scoring.read_s": "s",
    "search.upper_bound_s": "s", "search.incumbent_gap": "1",
    "trace.pipeline_s": "s", "fail_ratio": "1",
    "wall_s": "s", "cpu_s": "s", "setup_raw_s": "s", "ref_wall_s": "s",
    "ref_cpu_s": "s",
}


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def metric_units(spec: dict) -> dict[str, str]:
    """Unit of every figure the benchmark prints, by name; a figure in unit
    'count' must repeat exactly between passes."""
    declared = {d["name"]: d["unit"]
                for d in spec["end_to_end"] + spec["per_layer"]}
    return {**UNDECLARED_UNITS, **declared}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    stdout: bytes
    stderr: bytes
    peak_kib: int | None = None  # set by run_module


class Runner:
    """Spawns Python children on the checkout's package, one at a time."""

    def __init__(self, root: Path, workdir: Path):
        src = root / "src"
        if not (src / "bnopt" / "__init__.py").is_file():
            raise BenchError(f"no bnopt package under {src}; run from the "
                             "root of a source checkout")
        self.src = src
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def run(self, argv: list[str]) -> Child:
        """Wall time from spawn to exit; user + system CPU time from
        wait4."""
        out_path = self.workdir / "child.out"
        err_path = self.workdir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return Child(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                     out_path.read_bytes(), err_path.read_bytes())

    def run_module(self, args: list[str]) -> Child:
        """`python -m args...`, also reporting the child's peak RSS."""
        hwm_path = self.workdir / "child.hwm"
        hwm_path.unlink(missing_ok=True)
        c = self.run(["-c", RUN_MODULE, str(hwm_path), *args])
        if hwm_path.exists():
            c.peak_kib = int(hwm_path.read_text())
        return c

    def checked(self, argv: list[str]) -> Child:
        c = self.run(argv)
        if c.returncode != 0:
            raise BenchError(f"{' '.join(argv)} exited {c.returncode}: "
                             f"{c.stderr.decode(errors='replace').strip()}")
        return c

    def owns(self, module_file: str) -> bool:
        return Path(module_file).resolve().is_relative_to(self.src.resolve())

    def probe(self) -> dict:
        """Import once (warming the bytecode cache) and report versions;
        refuses a bnopt imported from anywhere but this checkout."""
        c = self.checked(["-c", "import json, bnopt, numpy; print(json.dumps("
                          "{'file': bnopt.__file__, 'numpy': numpy.__version__"
                          ", 'using_numba': bool(bnopt.using_numba)}))"])
        info = json.loads(c.stdout)
        if not self.owns(info.pop("file")):
            raise BenchError("bnopt was not imported from this checkout")
        return info


@dataclass
class Inputs:
    learn_input: Path
    scores: check.ScoreFile
    ref: float
    prep_s: float


def prepare(wl: Workload, seed: int, runner: Runner) -> list[Inputs]:
    """The run's datasets: the first is drawn from the seed itself, the
    i-th after it from (seed, i)."""
    return [prepare_one(wl, seed if i == 0 else [seed, i], runner,
                        "data" if i == 0 else f"data{i}")
            for i in range(wl.datasets)]


def prepare_one(wl: Workload, seed, runner: Runner, stem: str) -> Inputs:
    """Records drawn from the seed, the score file `bnopt score` makes of
    them and the reference optimum over that file."""
    t0 = time.perf_counter()
    rows = gen.sample(gen.make_model(wl.n, wl.model_seed), wl.N, seed)
    csv_path = runner.workdir / f"{stem}.csv"
    gen.write_csv(csv_path, rows, wl.incomplete, seed)
    score_path = runner.workdir / f"{stem}.scores"
    argv = ["-m", "bnopt", "score", str(csv_path), "--out", str(score_path)]
    if wl.max_parents is not None:
        argv += ["--max-parents", str(wl.max_parents)]
    runner.checked(argv)
    scores = check.ScoreFile(score_path)
    ref = check.reference_optimum(scores)
    return Inputs(csv_path if wl.from_csv else score_path, scores, ref,
                  time.perf_counter() - t0)


def learn_args(wl: Workload, inputs: Inputs) -> list[str]:
    return ["bnopt", "learn", str(inputs.learn_input), *wl.learn_flags()]


def machine_info(root: Path, probe: dict) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                           capture_output=True, text=True)
        commit = r.stdout.strip() if r.returncode == 0 else None
    return {"cores": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": probe["numpy"],
            "bnopt_using_numba": probe["using_numba"], "git_commit": commit}


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as f:
            return " ".join(f.read().split()[:3])
    except OSError:
        return None


class Tally:
    """Failed / attempted learn runs of one set. A run fails on a nonzero
    exit, a report the checker rejects, or stdout that differs from the
    set's first run on the same input. The set is correct only if nothing
    at all was wrong."""

    def __init__(self):
        self.first: dict[Path, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, inputs: Inputs, returncode: int, stdout: bytes,
            extra=()) -> None:
        self.attempted += 1
        if returncode != 0:
            problems = [f"exit code {returncode}"]
        else:
            problems = check.report_problems(stdout, inputs.scores, inputs.ref)
            if stdout != self.first.setdefault(inputs.learn_input, stdout):
                problems.append("stdout differs from the first run of the set")
        problems += extra
        if problems:
            self.failed += 1
            self.problems += problems

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def measure(wl: Workload, datasets: list[Inputs], runner: Runner,
            seconds: float) -> tuple[dict, Tally]:
    tally = Tally()
    samples = {name: [] for name in SAMPLED}
    deadline = time.perf_counter() + seconds
    while True:
        samples["setup_raw_s"].append(runner.checked(IMPORT_ONLY).wall_s)
        ref = runner.checked(REFERENCE)
        samples["ref_wall_s"].append(ref.wall_s)
        samples["ref_cpu_s"].append(ref.cpu_s)
        inputs = datasets[tally.attempted % len(datasets)]
        c = runner.run_module(learn_args(wl, inputs))
        tally.add(inputs, c.returncode, c.stdout)
        samples["wall_s"].append(c.wall_s)
        samples["cpu_s"].append(c.cpu_s)
        if c.peak_kib is not None:
            samples["peak_rss_mb"].append(c.peak_kib / 1024)
        if (time.perf_counter() >= deadline
                and tally.attempted >= len(datasets)):
            return samples, tally


def summarize(samples: dict) -> dict[str, tuple[float, int]]:
    """(value, sample count) of every figure of an untraced run: the
    medians, and the times relative to the reference program. A relative
    time is the median over iterations of the child's time over that of the
    reference child run next to it, which follows the host's slow and
    fast stretches more closely than a ratio of two medians."""
    def rel(key: str, ref_key: str) -> float:
        return statistics.median(
            t / r for t, r in zip(samples[key], samples[ref_key]))

    count = len(samples["wall_s"])
    out = {k: (statistics.median(v), len(v)) for k, v in samples.items()}
    out["wall_rel"] = (rel("wall_s", "ref_wall_s"), count)
    out["cpu_rel"] = (rel("cpu_s", "ref_cpu_s"), count)
    out["setup_s"] = (rel("setup_raw_s", "ref_wall_s") * REF_WALL_S, count)
    return out


def stats_block(stdout: bytes) -> dict:
    return json.loads(stdout)["stats"]


def traced_count_mismatches(m: dict, cli_stats: dict) -> list[str]:
    pairs = [("search.nodes_expanded", "nodes_expanded"),
             ("search.nodes_generated", "nodes_generated"),
             ("search.reopened", "reopened"),
             ("search.peak_open", "peak_open_size"),
             ("heuristics.pdb_size", "pdb_size")]
    return [f"traced {a}={m[a]} but the CLI reports {b}={cli_stats[b]}"
            for a, b in pairs if m[a] != cli_stats[b]]


def measure_traced(wl: Workload, inputs: Inputs, runner: Runner,
                   seconds: float, units: dict[str, str]
                   ) -> tuple[dict, Tally, dict]:
    sys.path.insert(0, str(runner.src))
    import bnopt as bn
    if not runner.owns(bn.__file__):
        raise BenchError("bnopt was not imported from this checkout")
    from bnopt.search import DEFAULT_MEM_BUDGET
    mem_budget = int(os.environ.get("BNOPT_MEM_BUDGET") or DEFAULT_MEM_BUDGET)

    tally = Tally()
    passes, untraced, setup = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        tr, scores, h, net, stats, inc = tracing.traced_pass(
            bn, wl, str(inputs.learn_input), mem_budget, record=first is None)
        m = tracing.layer_metrics(tr, wl, scores, h, net, stats, inc)
        passes.append(m)
        first = first or (tr, scores, h)
        c = runner.run_module(learn_args(wl, inputs))
        untraced.append(c.wall_s)
        setup.append(runner.checked(IMPORT_ONLY).wall_s)
        extra = []
        if abs(net.total_score - inputs.ref) > check.REL_TOL * abs(inputs.ref):
            extra.append(f"traced optimum {net.total_score!r} is not "
                         f"{inputs.ref!r}")
        if c.returncode == 0:
            extra += traced_count_mismatches(m, stats_block(c.stdout))
        extra += [f"{k} changed between passes" for k, v in m.items()
                  if units[k] == "count" and v != passes[0][k]]
        tally.add(inputs, c.returncode, c.stdout, extra)
        if time.perf_counter() >= deadline:
            break
    tr, scores, h = first
    us_query, same_q = tracing.replay_best_in(bn, scores.tables, tr)
    us_value, same_v = tracing.replay_value(h, tr)
    if not (same_q and same_v):
        tally.problems.append("replayed answers differ from the recorded ones")
    # counts were checked equal across passes; times are medians
    metrics = {k: v if units[k] == "count" or v is None
               else statistics.median(p[k] for p in passes)
               for k, v in passes[0].items()}
    metrics["parent_store.replay_us_per_query"] = us_query
    metrics["heuristics.replay_us_per_value"] = us_value
    metrics["trace.overhead_ratio"] = metrics.pop("trace.pipeline_s") / (
        statistics.median(untraced) - statistics.median(setup))
    return metrics, tally, {"passes": len(passes), "spans": tr.spans}


def fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(wl: Workload, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    """One set: prepare, measure, print the human-readable lines, write
    result.json, and return the result object for the declared metrics."""
    root = Path.cwd()
    workdir = HERE / "work" / f"{wl.name}-{seed}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(root, workdir)
    machine = machine_info(root, runner.probe())
    datasets = prepare(wl, seed, runner)
    units = metric_units(spec)
    machine["loadavg_start"] = loadavg()
    if trace:
        # the traced passes must repeat their counts, so they use one input
        metrics, tally, extra = measure_traced(wl, datasets[0], runner,
                                               seconds, units)
        count = extra.pop("passes")
        values = {k: (v, units[k], count) for k, v in metrics.items()}
    else:
        raw, tally = measure(wl, datasets, runner, seconds)
        values = {k: (v, units[k], count)
                  for k, (v, count) in summarize(raw).items()}
        extra = {"samples": raw}
    machine["loadavg_end"] = loadavg()

    prep_s = sum(d.prep_s for d in datasets)
    print(f"# workload {wl.name} seed {seed} trace {trace}: "
          f"n={wl.n} N={wl.N}+{wl.incomplete} incomplete, "
          f"table entries {[d.scores.entries() for d in datasets]}, "
          f"optima {[d.ref for d in datasets]}, prep {prep_s:.2f}s")
    print("# machine " + json.dumps(machine))
    for name, (v, unit, count) in values.items():
        print(f"{wl.name:14} {name:36} {fmt(v):>14} {unit:6} "
              f"samples={count}")
    print(f"{wl.name:14} {'fail_ratio':36} {fmt(tally.fail_ratio):>14} "
          f"{units['fail_ratio']:6} samples={tally.attempted}")
    for msg in sorted(set(tally.problems)):
        print(f"# FAIL {msg}")
    with open(workdir / "result.json", "w") as f:
        json.dump({"workload": wl.name, "seed": seed, "trace": trace,
                   "machine": machine, "fail_ratio": tally.fail_ratio,
                   "problems": tally.problems, "prep_s": prep_s,
                   "metrics": {k: {"value": v, "unit": u, "samples": c}
                               for k, (v, u, c) in values.items()},
                   **extra}, f, indent=1)
    declared = spec["per_layer" if trace else "end_to_end"]
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {d["name"]: {"value": values[d["name"]][0],
                                    "unit": values[d["name"]][1]}
                        for d in declared}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"],
                   help="'all' runs every workload in turn; the last line "
                        "then sums the counts and prefixes each metric "
                        "with its workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        # the result line carries every metric BENCHMARK.json lists for the
        # mode
        spec = load_spec(Path.cwd())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(WORKLOADS[name], args.seed,
                                      args.seconds, args.trace, spec)
                   for name in names}
    except (BenchError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
