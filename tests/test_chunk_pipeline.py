"""The chunk pipeline behind every batch run: progress, fan-out, payloads.

``MonteCarlo.run`` and ``run_parallel`` on any process count or pool
run the same tasks through the same fold, so a watched fan-out reports
progress however it runs, the default fan-out never starts more
workers than the study has seed items, and trajectory objects cross
the pipeline only when they carry recorded events.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint.strategies import current_policy
from repro.observability import spans as sp
from repro.observability.spans import SpanCollector
from repro.simulation import parallel
from repro.simulation.montecarlo import MonteCarlo
from repro.simulation.parallel import SharedSimulationPool, simulate_batch
from repro.simulation.vectorized import runs_lockstep

TREE = build_ei_joint_fmt()
POLICY = current_policy()


def _mc(kernel="object", seed=2016, record_events=False):
    return MonteCarlo(
        TREE,
        POLICY,
        horizon=10.0,
        seed=seed,
        kernel=kernel,
        record_events=record_events,
    )


class _Collector:
    def __init__(self):
        self.events = []

    def update(self, event):
        self.events.append(event)

    def close(self):
        pass


@pytest.fixture(scope="module")
def shared_pools():
    pools = {1: SharedSimulationPool(1), 2: SharedSimulationPool(2)}
    yield pools
    for pool in pools.values():
        pool.shutdown()


@pytest.mark.parametrize("kernel", ["object", "vectorized"])
@pytest.mark.parametrize(
    "fanout",
    [{"processes": 1}, {"processes": 2}, {"shared": 1}, {"shared": 2}],
    ids=["processes-1", "processes-2", "shared-pool-1", "shared-pool-2"],
)
def test_watched_fanout_reports_completion(kernel, fanout, shared_pools):
    n_runs = 400
    reporter = _Collector()
    pool = shared_pools[fanout["shared"]] if "shared" in fanout else None
    driver = _mc(kernel)
    assert runs_lockstep(driver.simulator) == (kernel == "vectorized")
    result = driver.run_parallel(
        n_runs, processes=fanout.get("processes"), pool=pool, progress=reporter
    )
    assert reporter.events, "watched fan-out emitted no progress"
    last = reporter.events[-1]
    assert last.done is True
    assert last.completed == n_runs
    assert all(event.phase == "mc.run_parallel" for event in reporter.events)
    completed = [event.completed for event in reporter.events]
    assert completed == sorted(completed)
    assert result.summary == _mc(kernel).run(n_runs).summary


def test_default_fanout_counts_seed_items(monkeypatch):
    # 1 000 lockstep runs are one chunk at the default chunk cap: one
    # task, so the default fan-out runs it in-process.
    monkeypatch.setattr(parallel, "_available_cpu_count", lambda: 8)
    collector = SpanCollector()
    with sp.use(collector):
        fanned = _mc("vectorized").run_parallel(1000)
    spans = [r for r in collector.records if r["name"] == "mc.run_parallel"]
    assert [span["attributes"]["processes"] for span in spans] == [1]
    assert fanned.summary == _mc("vectorized").run(1000).summary


def _engine_objects(n_runs, seed=2016):
    simulator = _mc(seed=seed).simulator
    return simulate_batch(simulator, np.random.SeedSequence(seed).spawn(n_runs))


@pytest.mark.parametrize("processes", [None, 2])
def test_kept_trajectories_rebuilt_from_columns_equal_engine_objects(processes):
    n_runs = 60
    driver = _mc()
    if processes is None:
        result = driver.run(n_runs, keep_trajectories=True)
    else:
        result = driver.run_parallel(
            n_runs, processes=processes, keep_trajectories=True
        )
    expected = _engine_objects(n_runs)
    assert len(result.trajectories) == n_runs
    for kept, engine in zip(result.trajectories, expected):
        assert kept == engine
    assert result.batch is not None and result.batch.n_runs == n_runs


@pytest.mark.parametrize("processes", [None, 2])
def test_recorded_events_travel_with_kept_trajectories(processes):
    n_runs = 30
    driver = _mc(record_events=True)
    if processes is None:
        result = driver.run(n_runs, keep_trajectories=True)
    else:
        result = driver.run_parallel(
            n_runs, processes=processes, keep_trajectories=True
        )
    assert len(result.trajectories) == n_runs
    assert all(t.events_recorded for t in result.trajectories)
    assert all(t.events for t in result.trajectories)
    serial = _mc(record_events=True).run(n_runs, keep_trajectories=True)
    assert result.trajectories == serial.trajectories
