"""The sweep workloads' program process: the F5/F6 grid through a runner.

Started by ``run.py``, which times it from launch to the ``READY``
line it prints once set-up is done.  With ``--setup-only`` it exits
there; otherwise it sweeps the grid until ``--seconds`` are used and
prints its measurements as one JSON line.

Each sweep asks a :class:`StudyRunner` for the seven grid studies with
fresh seeds (misses: every one simulates) and reads each study back
``REREADS`` times right after it (hits, served from the runner's memo,
as ``repro fig6`` reads back the grid ``repro fig5`` simulated).  The
hits are spread over the sweep rather than bunched after it, so a
run's hit median samples the host at as many moments as it has hits.
The fresh studies are checked; a memo hit returns the very object the
runner stored, so the re-reads are timed but not counted as checked
operations.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from typing import Callable, Optional

from workloads import (
    FREQUENCIES,
    PAPER_OPTIMUM,
    REREADS,
    SWEEP_HORIZON,
    SWEEPS,
    WARMUP_RUNS,
    grid_model,
    reference,
    study_seeds,
    use_source_tree,
)

import layers
import stats

use_source_tree()

from repro.observability.instrumentation import Instrumentation, use  # noqa: E402
from repro.simulation.parallel import SharedSimulationPool  # noqa: E402
from repro.studies import StudyRequest, StudyRunner  # noqa: E402


class Sweeper:
    """One sweep workload's runner, grid, seeds and output checks."""

    def __init__(self, workload: str, seed: int):
        self.kernel, self.n_runs, processes = SWEEPS[workload]
        self.workload = workload
        self.tree, self.strategies, self.cost_model = grid_model()
        self.runner = StudyRunner(processes=processes)
        self.processes = processes
        self.reference = reference()["grid"]["rows"]
        self.timed_seeds = iter(study_seeds(seed, "sweep", 7 * 400))
        self.warm_seeds = iter(study_seeds(seed, "warm-up", 7 * 4))
        self.tally = stats.Tally()

    def request(self, frequency: float, seed: int, n_runs: int) -> StudyRequest:
        return StudyRequest(
            tree=self.tree,
            strategy=self.strategies[frequency],
            horizon=SWEEP_HORIZON,
            cost_model=self.cost_model,
            seed=seed,
            n_runs=n_runs,
            kernel=self.kernel,
        )

    def warm_up(self) -> None:
        """One pass at a small run count: prototypes built, pool warm."""
        for frequency in FREQUENCIES:
            request = self.request(
                frequency, next(self.warm_seeds), WARMUP_RUNS[self.workload]
            )
            self.runner.summary(request)

    def sweep(self, study: Optional[Callable] = None) -> dict:
        """The grid with fresh seeds, each study then read back ``REREADS`` times.

        ``study`` replaces ``runner.summary`` for the fresh studies (the
        traced run wraps it); the cached reads always ask the runner.
        """
        study = study or self.runner.summary
        requests = [
            self.request(f, next(self.timed_seeds), self.n_runs)
            for f in FREQUENCIES
        ]
        record = {"fresh": [], "cached": [], "requests": requests}
        summaries = []
        started = time.perf_counter()
        for request in requests:
            t0 = time.perf_counter()
            summaries.append(study(request))
            record["fresh"].append(time.perf_counter() - t0)
            for _ in range(REREADS):
                t0 = time.perf_counter()
                self.runner.summary(request)
                record["cached"].append(time.perf_counter() - t0)
        record["wall"] = time.perf_counter() - started
        record["summaries"] = summaries
        record["rhw"] = [
            stats.relative_half_width(
                s.cost_per_year.estimate, s.cost_per_year.half_width
            )
            for s in summaries
        ]
        self.check(summaries)
        return record

    def check(self, summaries) -> None:
        ids = [self.tally.attempt() for _ in summaries]
        for op, frequency, summary in zip(ids, FREQUENCIES, summaries):
            problems = stats.reference_failures(
                stats.kpi_errors(summary), self.reference[f"{frequency:g}"]
            )
            if problems:
                self.tally.fail(op, f"{frequency:g}/yr: " + "; ".join(problems))
        costs = {
            f: s.cost_per_year.estimate for f, s in zip(FREQUENCIES, summaries)
        }
        if not stats.optimum_ok(costs, PAPER_OPTIMUM, FREQUENCIES):
            best = min(costs, key=costs.get)
            for op in ids:
                self.tally.fail(op, f"cost optimum at {best:g}/yr")

    def run_for(self, seconds: float, study: Optional[Callable] = None) -> list:
        """Sweeps until ``seconds`` are used (at least one)."""
        done = []
        started = time.perf_counter()
        while True:
            record = self.sweep(study)
            done.append(record)
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * record["wall"] > seconds:
                return done

    def close(self) -> float:
        """Shut the pool down; returns the processes' peak RSS in MB."""
        self.runner.close()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        pool = self.processes if self.processes > 1 else 0
        return stats.peak_rss_mb(own, workers, pool)


def end_to_end(sweeps: list) -> dict:
    """The sweeps' metrics: medians over sweeps, or per policy over sweeps.

    A median over sweeps keeps a slow spell of the host that covers a
    sweep or two out of the run's figure.  The grid's studies are seven
    policies, each slower than the last, so the miss times and the
    precision cost are taken per policy.  The miss median is the grid's
    typical study, the geometric mean of the policies' median studies,
    and the tail the slowest policy's median study.  A percentile over
    the pooled studies would be one policy's time, picked by the host's
    noise and the sample count.
    """
    cached = [t for s in sweeps for t in s["cached"]]
    n_runs = sweeps[0]["requests"][0].n_runs
    hits = stats.timing([1e3 * t for t in cached])
    walls = list(zip(*(s["fresh"] for s in sweeps)))
    rhws = list(zip(*(s["rhw"] for s in sweeps)))
    per_policy = [statistics.median(times) for times in walls]
    misses = {
        "typical_study": 1e3 * statistics.geometric_mean(per_policy),
        "slowest_policy": 1e3 * max(per_policy),
        "n": len(sweeps) * len(per_policy),
    }
    traj_rates = [n_runs * len(s["fresh"]) / sum(s["fresh"]) for s in sweeps]
    req_rates = [(len(s["fresh"]) + len(s["cached"])) / s["wall"] for s in sweeps]
    return {
        "traj_per_s": (statistics.median(traj_rates), "1/s"),
        "time_to_1pct_s": (stats.grid_time_to_precision(walls, rhws), "s"),
        "req_per_s": (statistics.median(req_rates), "1/s"),
        "hit_p50_ms": (hits["p50"], "ms"),
        "miss_p50_ms": (misses["typical_study"], "ms"),
        "miss_tail_ms": (misses["slowest_policy"], "ms"),
    }, {"hits": hits, "misses": misses, "sweeps": len(sweeps)}


def measure_pool_start(sweeper: Sweeper) -> float:
    """First pool executor() through the pool's first result, in ms."""
    marks = {}
    original = SharedSimulationPool.__dict__["executor"]

    class FirstResult:
        def __init__(self, real):
            self.real = real

        def map(self, fn, *iterables):
            for result in self.real.map(fn, *iterables):
                marks.setdefault("first", time.perf_counter())
                yield result

        def __getattr__(self, name):
            return getattr(self.real, name)

    def executor(self):
        marks.setdefault("start", time.perf_counter())
        return FirstResult(original(self))

    SharedSimulationPool.executor = executor
    try:
        sweeper.warm_up()
    finally:
        SharedSimulationPool.executor = original
    if "first" not in marks:
        return 0.0
    return 1e3 * (marks["first"] - marks["start"])


def traced(sweeper: Sweeper, seconds: float):
    """Per-layer metrics: untraced half, traced half, then replays."""
    plain = sweeper.run_for(seconds / 2)
    recorder = layers.Recorder()
    pooled = sweeper.processes > 1
    remote_busiest = {layer: 0.0 for layer in layers.LAYERS}
    remote_spans = []
    counters = []
    pool = {"busy": 0.0, "dispatch": 0.0, "wall": 0.0}

    def study(request):
        instr = Instrumentation()
        mark = len(recorder.spans)
        with use(instr):
            summary = sweeper.runner.summary(request)
        registry = instr.registry.to_dict()
        counters.append(registry["counters"])
        if pooled:
            # The busiest worker's layer self times replace that much
            # of the driver's wait in sample_parallel_batch.
            for layer, seconds in layers.fold_remote(recorder).items():
                remote_busiest[layer] += seconds
            remote_spans.extend(layers.remote_spans(recorder))
            recorder.remote.clear()
            busy = [
                g["last"]
                for name, g in registry["gauges"].items()
                if name.endswith(".busy_seconds")
            ]
            wall = sum(
                s.seconds
                for s in recorder.spans[mark:]
                if s.name == "parallel.sample_parallel_batch"
            )
            pool["wall"] += wall
            pool["busy"] += sum(busy)
            pool["dispatch"] += wall - max(busy, default=0.0)
        return summary

    uninstall = layers.install(recorder)
    try:
        started = time.perf_counter()
        records = sweeper.run_for(seconds / 2, study)
        wall = time.perf_counter() - started
    finally:
        uninstall()
    studies = sum(len(r["fresh"]) for r in records)
    cached = sum(len(r["cached"]) for r in records)
    own = recorder.self_seconds()
    if pooled:
        for layer in layers.LAYERS:
            if layer != "parallel":
                own[layer] += remote_busiest[layer]
                own["parallel"] -= remote_busiest[layer]
    unattributed = wall - recorder.top_level_seconds()
    plain_wall = statistics.median(r["wall"] for r in plain)
    traced_wall = statistics.median(r["wall"] for r in records)

    # Replays: the public calls off this workload's hot path.
    replay = layers.Recorder()
    uninstall = layers.install(replay)
    mismatches = 0
    try:
        first = records[0]
        for request in first["requests"]:
            request.build_simulator()
            sweeper.runner.peek_summary(request)
        if pooled:
            serial = StudyRunner(processes=1)
            for request, pooled_summary in zip(first["requests"], first["summaries"]):
                if serial.summary(request) != pooled_summary:
                    mismatches += 1
            serial.close()
    finally:
        uninstall()

    events = sum(c.get("sim.events.executed", 0) for c in counters)
    simulated = sum(c.get("sim.trajectories", 0) for c in counters)
    metrics = {
        "studies.key_ms": (
            recorder.mean_ms("StudyRequest.key")
            + recorder.mean_ms("StudyRequest.simulator_material"),
            "ms",
        ),
        "studies.peek_ms": (replay.mean_ms("StudyRunner.peek_summary"), "ms"),
        "studies.hit_ratio": (cached / (studies + cached), "ratio"),
        "studies.disk_store_ms": (recorder.mean_ms("DiskCache.store"), "ms"),
        "studies.fanout_mismatches": (mismatches, "count"),
        "executor.build_ms": (replay.mean_ms("StudyRequest.build_simulator"), "ms"),
        "executor.simulate_us": (1e3 * recorder.mean_ms("FMTSimulator.simulate"), "us"),
        "executor.events_per_traj": (stats.ratio(events, simulated), "count"),
        "montecarlo.driver_ms": (1e3 * own["montecarlo"] / studies, "ms"),
        "parallel.busy_share": (
            stats.ratio(pool["busy"], sweeper.processes * pool["wall"]),
            "ratio",
        ),
        "parallel.dispatch_ms": (1e3 * pool["dispatch"] / studies, "ms"),
        "parallel.task_bytes": (layers.task_bytes(recorder), "bytes"),
        "parallel.tasks_per_study": (
            sum(recorder.notes.get("parallel.tasks", [])) / studies,
            "count",
        ),
    }
    notes = dict(recorder.notes)
    if pooled:
        # Pooled kernels compile inside the workers; the serial replay
        # compiles the same grid here, and times the same chunk sizes
        # without a second worker competing for the CPUs.
        notes["vectorized.epochs"] = replay.notes["vectorized.epochs"]
    metrics.update(
        layers.study_metrics(
            recorder.spans + remote_spans,
            replay.spans if pooled else recorder.spans,
            notes,
            studies,
        )
    )
    shares, report = layers.split(own, unattributed, wall)
    metrics.update(shares)
    metrics["tracing_overhead"] = (traced_wall / plain_wall - 1.0, "ratio")
    return metrics, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SWEEPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sweeper = Sweeper(args.workload, args.seed)
    pool_start_ms = 0.0
    if args.trace and sweeper.processes > 1:
        pool_start_ms = measure_pool_start(sweeper)
    else:
        sweeper.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        sweeper.close()
        return 0
    if args.trace:
        metrics, report = traced(sweeper, args.seconds)
        metrics["parallel.pool_start_ms"] = (pool_start_ms, "ms")
        sweeper.close()
    else:
        sweeps = sweeper.run_for(args.seconds)
        metrics, report = end_to_end(sweeps)
        metrics["peak_rss_mb"] = (sweeper.close(), "MB")
    out = {
        "metrics": metrics,
        "report": report,
        "attempted": sweeper.tally.attempted,
        "failed": sweeper.tally.failed,
        "reasons": sweeper.tally.reasons(),
    }
    print(json.dumps(out, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
