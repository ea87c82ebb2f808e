"""Benchmark of the ``tfc`` command: time to a verified solution, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload operators --seed 0 --seconds 55 --trace 0

One benchmark process calls ``tfconc.cli.main`` in-process as a closed loop with
one client: each invocation starts when the previous one has returned.  The
program runs with its default threading; the host facts record what that
was.  After every pass each artifact is checked against independent
references (``checks.py``); an invocation that exits non-zero or fails a
check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones and reports the per-layer metrics from the
traced passes, plus ``trace_overhead_s``.  Every metric is printed by name
and unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostinfo
import workloads
from tracer import Tracer, check_tree, layer_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: fresh interpreters timed per run; setup_s is their median
COLD_STARTS = 3
#: fewest passes per run, untraced and traced
MIN_PASSES = 3
MIN_TRACED = 2

#: accuracy figures: unit, and how the figures of several artifacts combine
ACCURACY = {
    "eig_err_max": ("abs", max),
    "trace_gap_max": ("abs", max),
    "fourier_gap": ("abs", max),
    "hermite_overlap_min": ("cosine", min),
    "autocorr_err_max": ("abs", max),
}

#: per-layer metrics: span name -> fields reported for it
LAYERS = {
    "cli.main": ("busy_s",),
    "regions.rasterize": ("calls", "busy_s", "cells"),
    "regions.contains": ("calls", "busy_s", "points"),
    "operators.assemble": ("calls", "busy_s", "self_s", "entry_updates", "ns_per_update"),
    "operators.eigendecompose": ("calls", "busy_s", "n3_sum", "vectors_read_ratio"),
    "operators.energy": ("busy_s",),
    "operators.eigenfilter": ("busy_s",),
    "gabor.analyze": ("calls", "busy_s"),
    "scaling.scaling_experiment": ("busy_s", "self_s", "concurrency"),
    "scaling.autocorr_integral": ("calls", "busy_s", "self_s"),
    "scaling.decay_condition_margins": ("busy_s",),
    "decay.fourier_side_check": ("busy_s", "self_s"),
    "decay.hermite_benchmark": ("busy_s", "self_s"),
    "decay.decay_check": ("calls", "busy_s"),
    "decay.kernel_vanishing_check": ("busy_s",),
    "grids.fourier_transform": ("calls", "busy_s"),
    "io.write": ("calls", "busy_s", "bytes"),
}
FIELD_UNITS = {
    "busy_s": "s", "self_s": "s", "calls": "count", "cells": "count", "points": "count",
    "entry_updates": "count", "ns_per_update": "ns", "n3_sum": "count",
    "vectors_read_ratio": "ratio", "concurrency": "ratio", "bytes": "B",
}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _invoke(cli, argv: list[str]):
    """Exit status of one ``tfc`` call; a crash is reported, not raised."""
    try:
        return cli.main(argv)
    except (Exception, SystemExit):
        return traceback.format_exc(limit=3)


class Ledger:
    """Attempted and failed invocations, failure reasons, accuracy figures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.figures: dict[str, float] = {}

    def verify(self, calls, codes, log: str, record: bool) -> None:
        for call, code in zip(calls, codes):
            self.attempted += 1
            problems = [] if code == 0 else [f"exit status {code!r}"]
            if not problems:
                try:
                    found, figures = call.check(call.out)
                except (OSError, LookupError, ValueError, TypeError) as exc:
                    found, figures = [f"unreadable artifact: {exc!r}"], {}
                problems += found
                if record:
                    for name, value in figures.items():
                        combine = ACCURACY[name][1]
                        old = self.figures.get(name)
                        self.figures[name] = value if old is None else combine(old, value)
            if problems:
                self.failed += 1
                tail = log.strip().splitlines()[-3:]
                self.problems.append(f"{call.name}: {'; '.join(problems)} {tail}")

    def run_pass(self, cli, calls, record: bool = True) -> float:
        """Run ``calls`` back to back; return their wall time, then check them."""
        for call in calls:
            shutil.rmtree(call.out, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            codes = [_invoke(cli, list(call.argv)) for call in calls]
            wall = time.perf_counter() - start
        self.verify(calls, codes, sink.getvalue(), record)
        return wall


def cold_start(workload: str, seed: int, work: Path, ledger: Ledger) -> float:
    """Seconds for a fresh interpreter to import, generate inputs and warm up."""
    cmd = [sys.executable, str(HERE / "coldstart.py"), workload, str(seed), str(work)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - start
    calls = workloads.build(workload, seed, work, small=True)
    codes_file = work / "codes.json"
    codes = (json.loads(codes_file.read_text()) if codes_file.is_file()
             else [f"probe exit status {proc.returncode}"] * len(calls))
    ledger.verify(calls, codes, proc.stderr, record=False)
    return elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            small: bool = False, log=print) -> dict:
    """One benchmark run; returns the result object printed last.

    ``small`` measures the small variant of the workload (the self-test's).
    """
    log(f"host {json.dumps(hostinfo.facts())}")
    ledger = Ledger()
    setup = [] if trace else [
        cold_start(workload, seed, work / f"cold{i}", ledger) for i in range(COLD_STARTS)
    ]
    cli = importlib.import_module("tfconc.cli")
    ledger.run_pass(cli, workloads.build(workload, seed, work / "warm", small=True),
                    record=False)

    calls = workloads.build(workload, seed, work / "run", small)
    log(f"workload {workload} seed {seed}: {len(calls)} invocation(s) per pass, "
        f"closed loop, one client -- {workloads.WHY[workload]}")
    for call in calls:
        log(f"  tfc {' '.join(call.argv)}")
    plain, traced, stats, tree_problems = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(ledger.run_pass(cli, calls))
        if trace:
            with Tracer() as tracer:
                traced.append(ledger.run_pass(cli, calls))
            tree_problems += check_tree(tracer.spans)
            stats.append(layer_stats(tracer.spans))
        done = len(plain)
        elapsed = time.perf_counter() - start
        if done >= (MIN_TRACED if trace else MIN_PASSES) and elapsed * (done + 1) / done > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def show(name, value, unit, note=""):
        log(f"{name:<40} {value:<24.10g} {unit:<6} {note}")

    q1, med, q3 = _quartiles(plain)
    show("wall_s", med, "s", f"median of {len(plain)} passes; q1 {q1:.4f} q3 {q3:.4f}")
    if setup:
        q1, med_setup, q3 = _quartiles(setup)
        show("setup_s", med_setup, "s",
             f"median of {len(setup)} cold starts; q1 {q1:.4f} q3 {q3:.4f}")
    else:
        log(f"{'setup_s':<40} not measured in a traced run")
    show("peak_rss_mb", peak_rss_mb, "MB", "peak resident memory of the benchmark process")
    show("fail_rate", ledger.failed / ledger.attempted, "ratio",
         f"{ledger.failed} of {ledger.attempted} invocations")
    for name, (unit, _) in ACCURACY.items():
        if name in ledger.figures:
            show(name, ledger.figures[name], unit)
        else:
            log(f"{name:<40} n/a (no such artifact in this workload; reported as 0)")
    for problem in ledger.problems + tree_problems:
        log(f"FAILED {problem}")

    if trace:
        metrics = {}
        for span, fields in LAYERS.items():
            for field in fields:
                values = [s.get(span, {}).get(field, 0.0) for s in stats]
                metrics[f"{span}.{field}"] = {"value": statistics.median(values),
                                              "unit": FIELD_UNITS[field]}
        metrics["trace_overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
        for name, (unit, _) in ACCURACY.items():
            metrics[name] = {"value": ledger.figures.get(name, 0.0), "unit": unit}
        for name, m in metrics.items():
            if name not in ACCURACY:
                show(name, m["value"], m["unit"])
        log(f"per-layer values are medians of {len(traced)} traced passes")
    else:
        metrics = {
            "wall_s": {"value": med, "unit": "s"},
            "setup_s": {"value": med_setup, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": ledger.failed == 0 and not tree_problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tfconc" / "cli.py").is_file():
        print(f"perfbench: no tfconc sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
