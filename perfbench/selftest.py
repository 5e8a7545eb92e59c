"""Fast self-test of the benchmark (about a minute on two cores).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` agrees with the metric registry and
the benchmark contract (names, units, bounds, workloads); that every
workload (``fig6-scan`` too, which
``BENCHMARK.json`` does not gate), traced and untraced, emits
every declared metric with its unit, answers everything correctly and
reports a zero error rate, and leaves no process running once it exits
(worker pools and the ``multiprocessing`` resource tracker included); and
that the benchmark refuses to run, with a non-zero exit and no result
line, when the program's sources are absent.
Exit status 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_declaration(failures: list[str]) -> dict:
    from perfbench.metrics import END_TO_END, PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        failures.append(f"BENCHMARK.json keys: {sorted(spec)}")
    for kind, registry, keys in (
        ("end_to_end", END_TO_END, {"name", "unit", "better", "bound"}),
        ("per_layer", PER_LAYER, {"name", "unit", "better"}),
    ):
        declared = [
            {k: v for k, v in vars(m).items() if k in keys} for m in registry
        ]
        if spec[kind] != declared:
            failures.append(f"BENCHMARK.json {kind} disagrees with perfbench/metrics.py")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        failures.append("a metric or workload name is used twice")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(metric["name"]) or not UNIT.match(metric["unit"]):
            failures.append(f"bad name or unit: {metric}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if max(bounds.values()) > 0.25 or bounds["setup_s"] != max(bounds.values()):
        failures.append(f"bounds must be <= 0.25 with setup_s the largest: {bounds}")
    baselines = json.loads((ROOT / "perfbench" / "baselines.json").read_text())
    for finding in baselines["findings"]:
        if finding["metric"] not in names:
            failures.append(f"baselines.json names an undeclared metric: {finding['metric']}")
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 or "\n" in workload["why"]:
            failures.append(f"bad workload entry: {workload}")
    return spec


def session_processes(sid: int) -> list[int]:
    """PIDs of the processes in session ``sid`` (empty without ``/proc``)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # Fields after the parenthesised command: state ppid pgrp session.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append(int(stat.parent.name))
    return found


def run_benchmark(args: list[str], cwd: Path) -> tuple[subprocess.CompletedProcess, list[int]]:
    """Run the benchmark in a session of its own.  Also returns the PIDs
    of any process of that session still there after it exited; those
    are killed."""
    with subprocess.Popen(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        stdout, stderr = proc.communicate(timeout=300)
    left = session_processes(proc.pid)
    for pid in left:
        with contextlib.suppress(OSError):
            os.kill(pid, signal.SIGKILL)
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr), left


def check_runs(spec: dict, failures: list[str]) -> None:
    units = {
        trace: {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
        for trace in (0, 1)
    }
    from perfbench.run import WORKLOADS

    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            done, left = run_benchmark(
                ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick"],
                ROOT,
            )
            if left:
                failures.append(f"{label}: processes left running after exit: {left}")
            if done.returncode != 0:
                failures.append(f"{label}: exit {done.returncode}\n{done.stderr[-1500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != RESULT_KEYS:
                failures.append(f"{label}: result keys {sorted(result)}")
            if emitted != units[trace]:
                failures.append(f"{label}: metrics/units {emitted} != declared {units[trace]}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                failures.append(f"{label}: a metric value is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            if trace == 0 and result["metrics"]["success_rate"]["value"] != 1.0:
                failures.append(f"{label}: error rate is not 0")
            print(f"ok  {label}: {result['attempted']} operations", flush=True)


def check_bare_directory(failures: list[str]) -> None:
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done, _ = run_benchmark(["--workload", "fig6-scan", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        failures.append("the benchmark ran without the program's sources")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    failures: list[str] = []
    spec = check_declaration(failures)
    check_bare_directory(failures)
    check_runs(spec, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("all checks passed" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
