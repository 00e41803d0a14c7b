#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (n = 6), through the same code
paths as a real run.

    python3 perfbench/selftest.py        # from the root of a source checkout

Checks that every workload runs clean, that the reference program agrees
with bnopt's own DP oracle, that tampered reports are counted as failures,
that the traced counts equal the stats block of the CLI report, and that a
directory without the package is refused. Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import check
import run
import tracing

# at this seed both searches expand nodes past the incumbent and the root
TINY = {"csv-score": dict(n=6, N=300, incomplete=6),
        "astar-dynamic": dict(n=7, N=200, max_parents=None),
        "bfbnb-static": dict(n=7, N=200, max_parents=None)}
SEED = 8

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tampered(stdout: bytes, sf: check.ScoreFile) -> tuple[bytes, bytes]:
    """The report with its total shifted by one, and with two variables made
    each other's parents (through single-parent table entries where the
    tables have such a pair, so only the cycle is wrong)."""
    rep = json.loads(stdout)
    shifted = dict(rep, total_score=rep["total_score"] + 1.0)
    pairs = [(x, y) for x in range(sf.n) for y in range(x + 1, sf.n)
             if 1 << y in sf.tables[x] and 1 << x in sf.tables[y]]
    x, y = pairs[0] if pairs else (0, 1)
    a, b = sf.names[x], sf.names[y]
    cyclic = dict(rep, parents=dict(rep["parents"], **{a: [b], b: [a]}))
    return (json.dumps(shifted, indent=2).encode() + b"\n",
            json.dumps(cyclic, indent=2).encode() + b"\n")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import bnopt
    from bnopt.search import DEFAULT_MEM_BUDGET
    spec = run.load_spec(root)

    for name, size in TINY.items():
        wl = replace(run.WORKLOADS[name], **size)
        workdir = run.HERE / "work" / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        runner = run.Runner(root, workdir)
        datasets = run.prepare(wl, SEED, runner)
        inputs = datasets[0]

        for d in datasets:
            _, opt = bnopt.dp_oracle(bnopt.read_score_file(
                d.learn_input.with_suffix(".scores")).tables)
            expect(abs(opt - d.ref) <= check.REL_TOL * abs(opt),
                   f"{name}: reference optimum {d.ref!r} matches "
                   f"bnopt.dp_oracle {opt!r}")

        samples, tally = run.measure(wl, datasets, runner, seconds=0)
        expect(tally.attempted == len(samples["wall_s"]) >= 1
               and tally.fail_ratio == 0,
               f"{name}: untraced run, fail_ratio {tally.fail_ratio} "
               f"over {tally.attempted}")
        figures = run.summarize(samples)
        expect(all(d["name"] in figures and figures[d["name"]][0] > 0
                   for d in spec["end_to_end"]),
               f"{name}: untraced run gives every end-to-end metric")

        good = runner.run_module(run.learn_args(wl, inputs))
        expect(good.returncode == 0 and good.peak_kib > 0,
               f"{name}: learn child reports its own peak RSS "
               f"({good.peak_kib} KiB)")
        good = good.stdout
        shifted, cyclic = tampered(good, inputs.scores)
        t = run.Tally()
        for out in (good, shifted, cyclic):
            t.add(inputs, 0, out)
        expect(t.failed == 2 and t.attempted == 3,
               f"{name}: tampered reports count in fail_ratio "
               f"({t.failed}/{t.attempted})")
        problems = check.report_problems(shifted, inputs.scores, inputs.ref)
        expect(any("not the optimum" in p for p in problems),
               f"{name}: shifted total_score is caught: {problems}")
        problems = check.report_problems(cyclic, inputs.scores, inputs.ref)
        expect(any("cycle" in p for p in problems),
               f"{name}: cyclic parent list is caught: {problems}")

        tr, scores, h, net, stats, inc = tracing.traced_pass(
            bnopt, wl, str(inputs.learn_input), DEFAULT_MEM_BUDGET,
            record=True)
        m = tracing.layer_metrics(tr, wl, scores, h, net, stats, inc)
        cli = run.stats_block(good)
        mismatches = run.traced_count_mismatches(m, cli)
        expect(not mismatches, f"{name}: traced counts equal the CLI stats "
                               f"block {cli} {mismatches}")

        metrics, tally, _ = run.measure_traced(wl, inputs, runner, 0,
                                               run.metric_units(spec))
        expect(tally.failed == 0 and all(
            d["name"] in metrics for d in spec["per_layer"]),
            f"{name}: traced run is clean and gives every per-layer metric "
            f"{tally.problems}")

    with tempfile.TemporaryDirectory(dir=run.HERE / "work") as bare:
        try:
            run.Runner(Path(bare), Path(bare))
            refused = False
        except run.BenchError:
            refused = True
        expect(refused, "a directory without src/bnopt is refused")

    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
