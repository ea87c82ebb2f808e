"""Smoke check of the benchmark itself, on the small workload variants.

Usage (from the repository root): python3 perfbench/selftest.py

Checks that
- every metric in BENCHMARK.json, and every end-to-end metric the benchmark
  defines, is printed by name with its unit, and the result line carries
  exactly the BENCHMARK.json metrics;
- a deliberately corrupted artifact is counted as a failed invocation;
- the tracer's span tree closes: no open spans, no orphans, pool-thread
  spans hang under ``scaling_experiment``, self time is never negative, and
  leaving the tracer restores every wrapped name;
- without the program's sources the benchmark exits non-zero and prints no
  result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import threading

import run
import workloads
from tracer import Tracer, check_tree, layer_stats

#: every end-to-end metric of the benchmark, printed on each run
END_TO_END_PRINTED = ("wall_s", "setup_s", "peak_rss_mb", "fail_rate", *run.ACCURACY)


def _metric_output(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        for workload in sorted(workloads.WHY):
            lines: list[str] = []
            work = run.WORK / f"selftest-{workload}-{int(trace)}"
            result = run.measure(workload, workloads.DEV_SEED, 0.0, trace, work,
                                 small=True, log=lines.append)
            shutil.rmtree(work, ignore_errors=True)
            where = f"{workload} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: small run not correct: {lines[-12:]}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                failures.append(f"{where}: result metrics {got} != BENCHMARK.json {wanted}")
            printed = {line.split()[0]: line.split()[1:3] for line in lines if line.strip()}
            expected = dict(wanted)
            expected.update({name: None for name in END_TO_END_PRINTED})
            for name, unit in expected.items():
                if name not in printed:
                    failures.append(f"{where}: {name} not printed")
                elif unit is not None and unit not in printed[name]:
                    failures.append(f"{where}: {name} printed without unit {unit}")


def _corruption(failures: list[str]) -> None:
    cli = importlib.import_module("tfconc.cli")
    work = run.WORK / "selftest-corrupt"
    calls = workloads.build("operators", workloads.DEV_SEED, work, small=True)
    ledger = run.Ledger()
    ledger.run_pass(cli, calls)
    if ledger.failed:
        failures.append(f"clean small workload failed: {ledger.problems}")
    spectrum = next(call for call in calls if call.name == "spectrum")
    path = spectrum.out / "spectrum.csv"
    lines = path.read_text().splitlines()
    k, lam = lines[5].split(",")
    lines[5] = f"{k},{float(lam) - 0.05!r}"
    path.write_text("\n".join(lines) + "\n")
    ledger.verify([spectrum], [0], "", record=False)
    shutil.rmtree(work, ignore_errors=True)
    if ledger.failed != 1 or ledger.failed / ledger.attempted <= 0:
        failures.append("a perturbed spectrum.csv did not raise fail_rate")


def _span_tree(failures: list[str]) -> None:
    cli = importlib.import_module("tfconc.cli")
    original_main = cli.main
    for workload in sorted(workloads.WHY):
        work = run.WORK / f"selftest-trace-{workload}"
        calls = workloads.build(workload, workloads.DEV_SEED, work, small=True)
        with Tracer() as tracer:
            run.Ledger().run_pass(cli, calls)
        shutil.rmtree(work, ignore_errors=True)
        spans = tracer.spans
        failures += [f"{workload}: {p}" for p in check_tree(spans)]
        roots = [s for s in spans if s.parent is None]
        if len(roots) != len(calls):
            failures.append(f"{workload}: {len(roots)} root spans for {len(calls)} calls")
        for name, entry in layer_stats(spans).items():
            if entry.get("self_s", 0.0) < 0:
                failures.append(f"{workload}: {name} has negative self time")
        if workload == "operators":
            # the outermost spans opened on pool threads
            main_thread = threading.get_ident()
            parents = {s.id: s for s in spans}
            pool = [s for s in spans if s.thread != main_thread and (
                s.parent not in parents or parents[s.parent].thread == main_thread)]
            if not pool or any(s.parent not in parents
                               or parents[s.parent].name != "scaling.scaling_experiment"
                               for s in pool):
                failures.append("pool-thread spans do not hang under scaling_experiment")
    if cli.main is not original_main:
        failures.append("leaving the tracer did not restore tfconc.cli.main")


def _bare_checkout(failures: list[str]) -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "autocorr", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("without src/ the benchmark did not fail cleanly")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    failures: list[str] = []
    for check in (_corruption, _span_tree, _bare_checkout, _metric_output):
        before = len(failures)
        check(failures)
        print(f"selftest {check.__name__.strip('_')}: "
              f"{'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
