"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig6-scan --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run's provenance.  Both, and the
traced run's spans, are also written under ``.perfbench/``.  Workloads,
metrics and bounds are declared in ``BENCHMARK.json`` and
``perfbench/metrics.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("fig6-scan", "fig8-join", "serve-feedback", "serve-workers")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="tiny inputs, one set-up (self-test)"
    )
    return parser.parse_args(argv)


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Worker pools are shut down by the workloads themselves; any worker a
    failed run left behind is killed here.  Spawning workers also starts
    the ``multiprocessing`` resource tracker, which would otherwise
    outlive this process: closing its pipe stops it, then it is reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif tracker._fd is not None:
        os.close(tracker._fd)
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.bench import SETUP_REPEATS, make_bench, run_traced, run_untraced
    from perfbench.metrics import METRICS, provenance

    bench = make_bench(args.workload, args.seed, args.quick)
    # A terminated run unwinds like a failed one, so its processes stop too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            metrics, attempted, failed, details, tracer = run_traced(bench, args.seconds)
        else:
            repeats = 1 if args.quick else SETUP_REPEATS
            metrics, attempted, failed, details = run_untraced(bench, args.seconds, repeats)
            tracer = None
    finally:
        bench.close()
        stop_children()
    correct = failed == 0 and not bench.problems

    prov = provenance(ROOT, args.workload, args.seed, bool(args.trace))
    prov["details"] = details
    prov["problems"] = bench.problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": METRICS[name].unit}
            for name, value in metrics.items()
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=2)
    )
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.jsonl", {"workload": args.workload, "seed": args.seed})

    for name, value in metrics.items():
        metric = METRICS[name]
        print(f"{name:<32} {value:>16.6g} {metric.unit:<9} [{metric.kind}, {metric.better} is better]")
    for problem in bench.problems:
        print(f"problem: {problem}")
    print("provenance: " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
