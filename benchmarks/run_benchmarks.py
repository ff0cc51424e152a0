"""Engine benchmark harness: measure the hot path, write ``BENCH_engine.json``.

Runs the trajectory-simulation workloads that dominate every experiment
of the paper's evaluation and records wall-clock statistics to a JSON
baseline at the repository root, so performance PRs have a trajectory
to compare against (see docs/performance.md).

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_benchmarks.py --out /tmp/bench.json

The numbers are medians over repeated batches (p95 included to expose
variance); ``trajectories_per_sec`` is derived from the median.  The
workloads seed their RNG streams deterministically, so two runs on the
same machine measure the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Callable, Dict, List

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_engine.json")


def _simulate_workload(strategy_factory, horizon: float = 50.0):
    """A closure simulating one batch of trajectories per call."""
    from repro.eijoint import build_ei_joint_fmt
    from repro.simulation.executor import FMTSimulator

    simulator = FMTSimulator(build_ei_joint_fmt(), strategy_factory(), horizon=horizon)

    def batch(seeds) -> None:
        for seed in seeds:
            simulator.simulate(np.random.default_rng(seed))

    return batch


def _montecarlo_workload(strategy_factory, horizon: float = 50.0):
    """Full MonteCarlo.run() including KPI summarization."""
    from repro.eijoint import build_ei_joint_fmt, default_cost_model
    from repro.simulation.montecarlo import MonteCarlo

    def batch(seeds) -> None:
        mc = MonteCarlo(
            build_ei_joint_fmt(),
            strategy_factory(),
            horizon=horizon,
            cost_model=default_cost_model(),
            seed=len(seeds),
        )
        mc.run(len(seeds))

    return batch


def _vectorized_workload(strategy_factory, horizon: float = 50.0, chunk=None):
    """Full MonteCarlo.run() on the lockstep vectorized kernel.

    End-to-end like :func:`_montecarlo_workload` (model build, kernel
    compile, sampling, KPI summarization all inside the timed batch),
    so the speedup vs the object workloads is what a study actually
    sees, not an isolated kernel number.  ``chunk`` tunes
    ``chunk_trajectories`` (the per-stream lockstep chunk size); the
    headline workload runs one chunk per batch, which is how a
    throughput-sensitive study would configure it.
    """
    from repro.eijoint import build_ei_joint_fmt, default_cost_model
    from repro.simulation.montecarlo import MonteCarlo

    def batch(seeds) -> None:
        kwargs = {}
        if chunk is not None:
            kwargs["chunk_trajectories"] = chunk
        mc = MonteCarlo(
            build_ei_joint_fmt(),
            strategy_factory(),
            horizon=horizon,
            cost_model=default_cost_model(),
            seed=len(seeds),
            kernel="vectorized",
            **kwargs,
        )
        mc.run(len(seeds))

    return batch


def _vectorized_parallel_workload(
    strategy_factory, horizon: float = 50.0, chunk=None, processes: int = 2
):
    """Vectorized kernel fanned out over the shared-memory worker path.

    Workers run the lockstep kernel on their seed chunks and scatter
    packed KPI columns straight into a shared-memory segment (zero-copy
    fold); the driver gathers once.  End-to-end including pool startup,
    so the number is what ``run_parallel`` actually delivers.
    """
    from repro.eijoint import build_ei_joint_fmt, default_cost_model
    from repro.simulation.montecarlo import MonteCarlo

    def batch(seeds) -> None:
        kwargs = {}
        if chunk is not None:
            kwargs["chunk_trajectories"] = chunk
        mc = MonteCarlo(
            build_ei_joint_fmt(),
            strategy_factory(),
            horizon=horizon,
            cost_model=default_cost_model(),
            seed=len(seeds),
            kernel="vectorized",
            **kwargs,
        )
        mc.run_parallel(len(seeds), processes=processes)

    return batch


def _compaction_workload(horizon: float = 50.0, chunk=None):
    """Epoch-compaction stress: a densely inspected maintained model.

    Monthly inspection rounds put ~600 epochs on the 50-year calendar;
    epoch skipping (the per-row next-event lower bound) is what keeps
    the kernel from paying a full advance pass per epoch, so this
    workload regresses first if compaction breaks.
    """
    from repro.eijoint import build_ei_joint_fmt, default_cost_model
    from repro.eijoint.strategies import inspection_policy
    from repro.simulation.montecarlo import MonteCarlo

    def batch(seeds) -> None:
        kwargs = {}
        if chunk is not None:
            kwargs["chunk_trajectories"] = chunk
        mc = MonteCarlo(
            build_ei_joint_fmt(),
            inspection_policy(12.0),
            horizon=horizon,
            cost_model=default_cost_model(),
            seed=len(seeds),
            kernel="vectorized",
            **kwargs,
        )
        mc.run(len(seeds))

    return batch


def _synthetic_trajectories(n: int, horizon: float = 50.0, seed: int = 2016):
    """Plain Trajectory objects with EI-joint-like KPI statistics.

    The aggregation benchmarks isolate estimator cost from simulation
    cost, so the raw material is drawn directly instead of simulated.
    """
    from repro.maintenance.costs import CostBreakdown
    from repro.simulation.trace import Trajectory

    rng = np.random.default_rng(seed)
    n_failures = rng.poisson(0.8, size=n)
    downtime = rng.exponential(0.05, size=n)
    costs = rng.exponential(100.0, size=(5, n))
    counts = rng.poisson(40, size=(3, n))
    out = []
    for i in range(n):
        trajectory = Trajectory(horizon=horizon, events_recorded=False)
        k = int(n_failures[i])
        if k:
            trajectory.failure_times = np.sort(
                rng.uniform(0.0, horizon, size=k)
            ).tolist()
        trajectory.downtime = float(downtime[i])
        trajectory.costs = CostBreakdown(
            inspections=float(costs[0, i]),
            preventive=float(costs[1, i]),
            corrective=float(costs[2, i]),
            failures=float(costs[3, i]),
            downtime=float(costs[4, i]),
        )
        trajectory.n_inspections = int(counts[0, i])
        trajectory.n_preventive_actions = int(counts[1, i])
        trajectory.n_corrective_replacements = int(counts[2, i])
        out.append(trajectory)
    return out


def _summarize_workloads(n: int) -> Dict[str, Callable]:
    """KPI aggregation over the same material in both representations."""
    from repro.simulation.batch import TrajectoryBatch
    from repro.simulation.metrics import reliability_curve, summarize

    objects = _synthetic_trajectories(n)
    prebuilt = TrajectoryBatch.from_trajectories(objects)
    grid = np.linspace(0.0, 50.0, 101)

    return {
        "summarize-objects": lambda seeds: summarize(objects),
        "summarize-batch": lambda seeds: summarize(prebuilt),
        "reliability-curve-batch": lambda seeds: reliability_curve(
            prebuilt, grid
        ),
    }


def _parallel_workload(strategy_factory, keep: bool, horizon: float = 50.0):
    """End-to-end run_parallel: simulate + IPC + aggregate.

    Workers ship packed columns either way; ``keep=True`` also
    rebuilds the trajectory objects from the batch (objects cross the
    pipe only for event-recording runs).
    """
    from repro.eijoint import build_ei_joint_fmt, default_cost_model
    from repro.simulation.montecarlo import MonteCarlo

    def batch(seeds) -> None:
        mc = MonteCarlo(
            build_ei_joint_fmt(),
            strategy_factory(),
            horizon=horizon,
            cost_model=default_cost_model(),
            seed=len(seeds),
        )
        mc.run_parallel(len(seeds), keep_trajectories=keep)

    return batch


def build_workloads(quick: bool = False) -> Dict[str, Dict[str, object]]:
    """Workload name -> {batch, batch_size, repeats}."""
    from repro.eijoint import current_policy, unmaintained

    sim_size = 50 if quick else 200
    sim_repeats = 3 if quick else 9
    agg_size = 5_000 if quick else 50_000
    agg_repeats = 3 if quick else 7
    par_size = 2_000 if quick else 50_000
    par_repeats = 2 if quick else 3
    # The vectorized workloads keep full sizing even in quick mode: the
    # lockstep kernel's per-chunk overhead amortizes by batch size, so a
    # smaller quick batch would measure a different workload and trip
    # the quick-vs-full-baseline regression compare in CI.  The kernel
    # is fast enough that full sizing stays CI-friendly anyway.
    vec_size = 20_000
    vec_repeats = 3 if quick else 5

    workloads: Dict[str, Dict[str, object]] = {
        "eijoint-current-policy": {
            "batch": _simulate_workload(current_policy),
            "batch_size": sim_size,
            "repeats": sim_repeats,
        },
        "eijoint-unmaintained": {
            "batch": _simulate_workload(unmaintained),
            "batch_size": sim_size,
            "repeats": sim_repeats,
        },
        "eijoint-montecarlo": {
            "batch": _montecarlo_workload(current_policy),
            "batch_size": sim_size,
            "repeats": sim_repeats,
        },
        # Vectorized-kernel counterparts of the object workloads.  The
        # larger batch size reflects the kernel's lockstep chunking
        # (DEFAULT_CHUNK_TRAJECTORIES = 16384); CI gates a minimum
        # speedup of these over the object workloads via
        # compare_bench.py --require-speedup.
        "eijoint-unmaintained-vectorized": {
            "batch": _vectorized_workload(unmaintained),
            "batch_size": vec_size,
            "repeats": vec_repeats,
        },
        # The headline workload runs the whole batch as one lockstep
        # chunk (chunk_trajectories = batch size): epoch compaction
        # amortizes over rows, so the tuned chunk is where the kernel's
        # advertised throughput lives.  The study-level knob is
        # StudyRequest(chunk_trajectories=...) / --chunk-size.
        "eijoint-current-policy-vectorized": {
            "batch": _vectorized_workload(current_policy, chunk=vec_size),
            "batch_size": vec_size,
            "repeats": vec_repeats,
        },
        # Zero-copy shared-memory fan-out of the same workload: workers
        # scatter packed columns into one segment, the driver gathers
        # once.  Fixed full sizing (like the other vectorized
        # workloads) so quick CI measures the same fan-out.
        "eijoint-current-policy-vectorized-parallel": {
            "batch": _vectorized_parallel_workload(
                current_policy, chunk=vec_size
            ),
            "batch_size": vec_size,
            "repeats": vec_repeats,
        },
        # Maintained-model compaction stress: ~600 inspection epochs.
        "eijoint-monthly-inspect-vectorized": {
            "batch": _compaction_workload(chunk=vec_size),
            "batch_size": vec_size,
            "repeats": vec_repeats,
        },
    }
    for name, fn in _summarize_workloads(agg_size).items():
        workloads[f"{name}-{agg_size // 1000}k"] = {
            "batch": fn,
            "batch_size": agg_size,
            "repeats": agg_repeats,
        }
    for name, keep in (
        ("parallel-objects", True),
        ("parallel-batch", False),
    ):
        workloads[f"{name}-{par_size // 1000}k"] = {
            "batch": _parallel_workload(unmaintained, keep=keep),
            "batch_size": par_size,
            "repeats": par_repeats,
        }
    return workloads


def profile_phases(batch: Callable, batch_size: int) -> Dict[str, float]:
    """Per-phase wall-time totals for one instrumented batch.

    Runs one extra batch under an ambient
    :class:`~repro.observability.Instrumentation` AFTER the timed
    repeats, so the baseline numbers stay un-instrumented; the phase
    breakdown (``sim.simulate.seconds``, ``mc.summarize.seconds``,
    worker chunk timers, ...) comes from the run telemetry's timer
    totals — the same numbers a ``--profile`` CLI run reports.
    """
    from repro.observability import Instrumentation
    from repro.observability import instrumentation as obs

    instrumentation = Instrumentation()
    with obs.use(instrumentation):
        batch(range(batch_size))
    snapshot = instrumentation.registry.to_dict()
    return {
        name: stats["total_seconds"]
        for name, stats in snapshot["timers"].items()
    }


def measure(
    batch: Callable, batch_size: int, repeats: int, warmup: int = 1
) -> Dict[str, float]:
    """Time ``repeats`` batches of ``batch_size`` trajectories each."""
    for _ in range(warmup):
        batch(range(batch_size))
    per_trajectory: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        batch(range(batch_size))
        elapsed = time.perf_counter() - start
        per_trajectory.append(elapsed / batch_size)
    per_trajectory.sort()
    median = statistics.median(per_trajectory)
    p95 = per_trajectory[min(len(per_trajectory) - 1, int(0.95 * len(per_trajectory)))]
    return {
        "batch_size": batch_size,
        "repeats": repeats,
        "median_s_per_trajectory": median,
        "p95_s_per_trajectory": p95,
        "trajectories_per_sec": 1.0 / median if median > 0 else float("inf"),
    }


def run(quick: bool = False) -> Dict[str, object]:
    results = {}
    for name, spec in build_workloads(quick).items():
        results[name] = measure(
            spec["batch"], spec["batch_size"], spec["repeats"]
        )
        results[name]["phase_wall_s"] = profile_phases(
            spec["batch"], spec["batch_size"]
        )
        print(
            f"{name}: median {results[name]['median_s_per_trajectory'] * 1e6:.1f} "
            f"us/trajectory ({results[name]['trajectories_per_sec']:.0f} traj/s)"
        )
    from repro._version import __version__

    return {
        "schema": "repro-bench/1",
        "suite": "engine",
        "version": __version__,
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke sizing")
    parser.add_argument("--out", default=DEFAULT_OUT, metavar="PATH")
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
