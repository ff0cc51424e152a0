"""Run one benchmark workload and print its result as a JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-object --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics instead.  Metrics of a
layer the workload does not pass through read 0.  The last line of
standard output is the result object; the lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import stats
from workloads import HERE, ROOT, SWEEPS, WORKLOADS

#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3
RUN_TIMEOUT_S = 150.0


def launch(args, setup_only: bool):
    """Start the sweep process; returns (process, watchdog, set-up seconds)."""
    command = [
        sys.executable,
        os.path.join(HERE, "sweep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    took = time.perf_counter() - started
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise RuntimeError(f"{args.workload}: set-up failed")
    return proc, watchdog, took


def finish(proc, watchdog) -> str:
    """Wait for the sweep process; returns its last output line."""
    try:
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        raise RuntimeError(f"sweep process exited with {code}")
    return lines[-1] if lines else ""


def run_sweep(args) -> dict:
    """Set up ``SETUPS`` times (the last one runs); returns the outcome."""
    setup_times = []
    for _ in range(0 if args.trace else SETUPS - 1):
        proc, watchdog, took = launch(args, setup_only=True)
        finish(proc, watchdog)
        setup_times.append(took)
    proc, watchdog, took = launch(args, setup_only=False)
    setup_times.append(took)
    outcome = json.loads(finish(proc, watchdog))
    if not args.trace:
        outcome["metrics"]["setup_s"] = (statistics.median(setup_times), "s")
    outcome["report"]["setups"] = setup_times
    return outcome


def spec_metrics(trace: bool):
    """The metrics ``BENCHMARK.json`` lists for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wanted = spec_metrics(bool(args.trace))

    if args.workload in SWEEPS:
        outcome = run_sweep(args)
    else:
        import service

        outcome = service.run(args.seed, args.seconds, bool(args.trace), SETUPS)

    measured = dict(outcome["metrics"])
    metrics = {}
    for entry in wanted:
        if args.trace:
            value, unit = measured.pop(entry["name"], (0.0, entry["unit"]))
        else:
            value, unit = measured.pop(entry["name"])
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} != {entry['unit']}")
        metrics[entry["name"]] = (value, unit)
    if measured:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(measured)}")

    attempted, failed = outcome["attempted"], outcome["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, detail in outcome["report"].items():
        print(f"{args.workload} {name}: {detail}")
    print(
        f"{args.workload} failed_share = {stats.ratio(failed, attempted):.4g} "
        f"({failed}/{attempted})"
    )
    for reason in outcome["reasons"]:
        print(f"{args.workload} failure: {reason}")
    print(json.dumps(stats.result_line(attempted, failed, metrics)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
