"""Parallel Monte Carlo: correctness and serial equivalence."""

import hashlib
import os
import pickle

import numpy as np
import pytest

from repro.errors import SimulationError, ValidationError
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability import Instrumentation
from repro.observability import instrumentation as obs
from repro.simulation.executor import FMTSimulator
from repro.simulation.montecarlo import MonteCarlo
from repro.simulation.parallel import (
    MAX_DEFAULT_PROCESSES,
    default_process_count,
    sample_parallel,
    sample_parallel_batch,
    simulate_batch,
    simulate_batch_columns,
)


def test_simulate_batch_matches_individual(maintained_tree):
    simulator = FMTSimulator(
        maintained_tree, MaintenanceStrategy.none(), horizon=20.0
    )
    seeds = np.random.SeedSequence(5).spawn(10)
    batch = simulate_batch(simulator, seeds)
    individually = [
        simulator.simulate(np.random.default_rng(seed)) for seed in seeds
    ]
    assert [t.n_failures for t in batch] == [
        t.n_failures for t in individually
    ]


def test_sample_parallel_single_process_equals_batch(maintained_tree):
    simulator = FMTSimulator(
        maintained_tree, MaintenanceStrategy.none(), horizon=20.0
    )
    seeds = np.random.SeedSequence(6).spawn(20)
    serial = simulate_batch(simulator, seeds)
    parallel = sample_parallel(simulator, seeds, processes=1)
    assert [t.failure_times for t in serial] == [
        t.failure_times for t in parallel
    ]


def test_sample_parallel_two_processes_preserves_order(maintained_tree):
    simulator = FMTSimulator(
        maintained_tree, MaintenanceStrategy.none(), horizon=20.0
    )
    seeds = np.random.SeedSequence(7).spawn(30)
    serial = simulate_batch(simulator, seeds)
    parallel = sample_parallel(simulator, seeds, processes=2, chunk_size=7)
    assert [t.failure_times for t in serial] == [
        t.failure_times for t in parallel
    ]


def test_run_parallel_matches_run(maintained_tree, inspection_strategy):
    serial = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=11
    ).run(40)
    parallel = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=11
    ).run_parallel(40, processes=2)
    assert (
        serial.summary.expected_failures.estimate
        == parallel.summary.expected_failures.estimate
    )
    assert serial.unreliability.estimate == parallel.unreliability.estimate


def test_run_parallel_validation(maintained_tree):
    mc = MonteCarlo(maintained_tree, None, horizon=5.0)
    with pytest.raises(ValidationError):
        mc.run_parallel(0)
    with pytest.raises(ValidationError):
        mc.run_parallel(4, processes=0)
    simulator = FMTSimulator(
        maintained_tree, MaintenanceStrategy.none(), horizon=5.0
    )
    with pytest.raises(ValidationError):
        sample_parallel(simulator, [], processes=0)
    with pytest.raises(ValidationError):
        sample_parallel(simulator, [], processes=2, chunk_size=0)


@pytest.mark.parametrize("processes", [1, 2, 4])
def test_bit_identity_across_process_counts(
    maintained_tree, inspection_strategy, processes
):
    """Serial and parallel sampling agree bit-for-bit at any fan-out."""
    simulator = FMTSimulator(
        maintained_tree, inspection_strategy, horizon=25.0
    )
    seeds = np.random.SeedSequence(42).spawn(24)
    serial = simulate_batch(simulator, seeds)
    parallel = sample_parallel(simulator, seeds, processes=processes)
    assert [t.failure_times for t in serial] == [
        t.failure_times for t in parallel
    ]
    assert [t.downtime for t in serial] == [t.downtime for t in parallel]
    assert [t.costs.total for t in serial] == [
        t.costs.total for t in parallel
    ]
    assert [t.n_preventive_actions for t in serial] == [
        t.n_preventive_actions for t in parallel
    ]


def test_simulator_pickle_roundtrip(maintained_tree, inspection_strategy):
    """Workers receive the simulator by pickling; the copy must behave
    identically to the original under the same seed."""
    simulator = FMTSimulator(
        maintained_tree, inspection_strategy, horizon=20.0
    )
    clone = pickle.loads(pickle.dumps(simulator))
    seed = np.random.SeedSequence(9)
    original = simulator.simulate(np.random.default_rng(seed))
    copied = clone.simulate(np.random.default_rng(seed))
    assert original.failure_times == copied.failure_times
    assert original.costs.total == copied.costs.total
    assert original.n_inspections == copied.n_inspections


def test_default_process_count_bounds():
    assert 1 <= default_process_count() <= MAX_DEFAULT_PROCESSES
    assert default_process_count(1) == 1
    assert default_process_count(0) == 1  # degenerate task count stays valid


def test_default_process_count_respects_affinity_mask(monkeypatch):
    """A cgroup/affinity restriction wins over the raw machine count.

    Regression: ``default_process_count`` used ``os.cpu_count()``
    directly, oversubscribing containers pinned to a few cores.
    """
    from repro.simulation import parallel

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
    )
    assert parallel._available_cpu_count() == 3
    assert default_process_count() == 3
    assert default_process_count(2) == 2


def test_default_process_count_without_affinity_support(monkeypatch):
    """Platforms lacking sched_getaffinity fall back to cpu_count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    from repro.simulation import parallel

    assert parallel._available_cpu_count() == 6
    assert default_process_count() == 6
    # And a None cpu_count still yields a valid fan-out.
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel._available_cpu_count() == 1
    assert default_process_count() == 1


def test_run_parallel_default_processes(maintained_tree, inspection_strategy):
    serial = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=10.0, seed=21
    ).run(12)
    parallel = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=10.0, seed=21
    ).run_parallel(12, processes=None)
    assert (
        serial.summary.expected_failures.estimate
        == parallel.summary.expected_failures.estimate
    )


def _columns_equal(batch, other):
    assert batch.horizon == other.horizon
    np.testing.assert_array_equal(batch.failure_times, other.failure_times)
    np.testing.assert_array_equal(batch.failure_offsets, other.failure_offsets)
    np.testing.assert_array_equal(batch.downtime, other.downtime)
    for field, column in batch.costs.items():
        np.testing.assert_array_equal(column, other.costs[field])
    np.testing.assert_array_equal(batch.n_inspections, other.n_inspections)


def test_simulate_batch_columns_matches_objects(maintained_tree):
    from repro.simulation.batch import TrajectoryBatch

    simulator = FMTSimulator(
        maintained_tree, MaintenanceStrategy.none(), horizon=20.0
    )
    seeds = np.random.SeedSequence(13).spawn(15)
    columns = simulate_batch_columns(simulator, seeds)
    objects = TrajectoryBatch.from_trajectories(simulate_batch(simulator, seeds))
    _columns_equal(columns, objects)


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_sample_parallel_batch_bit_identical(
    maintained_tree, inspection_strategy, processes
):
    """Columnar worker IPC returns exactly the object path's columns."""
    from repro.simulation.batch import TrajectoryBatch

    simulator = FMTSimulator(
        maintained_tree, inspection_strategy, horizon=25.0
    )
    seeds = np.random.SeedSequence(42).spawn(24)
    reference = TrajectoryBatch.from_trajectories(
        sample_parallel(simulator, seeds, processes=processes)
    )
    batch = sample_parallel_batch(
        simulator, seeds, processes=processes, chunk_size=5
    )
    _columns_equal(batch, reference)


def test_run_parallel_streams_batch(maintained_tree, inspection_strategy):
    result = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=11
    ).run_parallel(30, processes=2)
    assert result.trajectories is None
    assert result.batch is not None
    assert result.batch.n_runs == 30
    serial = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=11
    ).run(30)
    assert (
        serial.summary.cost_per_year.estimate
        == result.summary.cost_per_year.estimate
    )
    assert (
        serial.summary.availability.upper == result.summary.availability.upper
    )


class _CrashingSimulator:
    """Stand-in whose worker dies abruptly (not a Python exception)."""

    def simulate(self, rng):
        os._exit(17)


def test_worker_crash_raises_simulation_error():
    seeds = np.random.SeedSequence(0).spawn(8)
    with pytest.raises(SimulationError, match="worker process"):
        sample_parallel(_CrashingSimulator(), seeds, processes=2, chunk_size=2)


def test_config_less_stand_in_crash_under_ambient_instrumentation():
    """A stand-in with no ``config`` counts into no registry, so a
    pooled run under an ambient one still ends in the pipeline's error,
    not in a worker's failed registry swap."""
    seeds = np.random.SeedSequence(0).spawn(8)
    with obs.use(Instrumentation()):
        with pytest.raises(SimulationError, match="worker process"):
            sample_parallel(
                _CrashingSimulator(), seeds, processes=2, chunk_size=2
            )


def test_pickled_simulator_ships_no_registry():
    """An instrumented simulator pickles to the bytes of a plain one,
    before and after its runs, so a pool task carries no registry and
    workers keep one digest per simulator; ``clone()`` keeps it."""
    from repro.eijoint.model import build_ei_joint_fmt
    from repro.eijoint.strategies import current_policy

    def pickles(instrumentation):
        mc = MonteCarlo(
            build_ei_joint_fmt(), current_policy(), horizon=10.0, seed=1,
            instrumentation=instrumentation,
        )
        blobs = [pickle.dumps(mc.simulator)]
        for _ in range(2):
            mc.run(300)
            blobs.append(pickle.dumps(mc.simulator))
        assert mc.simulator.clone().config.instrumentation is instrumentation
        return [(len(blob), hashlib.sha256(blob).hexdigest()) for blob in blobs]

    instrumentation = Instrumentation()
    assert pickles(instrumentation) == pickles(None)
    counters = instrumentation.registry.to_dict()["counters"]
    assert counters[obs.SIM_TRAJECTORIES] == 600


@pytest.fixture
def stand_in_executors(monkeypatch):
    """Replace the pool's ProcessPoolExecutor; returns those created."""
    import time

    from repro.simulation import parallel

    created = []

    class StandIn:
        def __init__(self, max_workers):
            time.sleep(0.01)  # widen the check-then-create window
            self.stopped = False
            created.append(self)

        def submit(self, fn, *args):
            return None

        def shutdown(self, wait=True, cancel_futures=False):
            self.stopped = True

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", StandIn)
    return created


def test_shared_pool_hands_two_threads_one_executor(stand_in_executors):
    """Concurrent first uses of a shared pool create one executor.

    Regression: ``executor()`` created its executor lazily without a
    lock, so two threads could each create one, and ``shutdown()``
    only ever stopped the one the pool kept.
    """
    import sys
    import threading

    from repro.simulation.parallel import SharedSimulationPool

    threads_n = 8  # more threads than this project's CI runners have cores
    pool = SharedSimulationPool(2)
    barrier = threading.Barrier(threads_n)
    got = []

    def first_use():
        barrier.wait(5.0)
        got.append(pool.executor())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_use) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    created = stand_in_executors
    assert len(created) == 1
    assert got == [created[0]] * threads_n
    pool.shutdown()
    assert created[0].stopped


def test_late_crash_report_keeps_the_rebuilt_executor(stand_in_executors):
    """Every study on a broken executor discards it; one that notices
    late must not discard the executor a later study started since."""
    from repro.simulation.parallel import SharedSimulationPool

    pool = SharedSimulationPool(2)
    broken = pool.executor()
    pool._discard(broken)  # the first study to see the crash
    rebuilt = pool.executor()  # the next study
    pool._discard(broken)  # a study that noticed the crash late
    assert rebuilt is not broken
    assert pool.executor() is rebuilt
    assert broken.stopped and not rebuilt.stopped
    pool.shutdown()
    assert rebuilt.stopped
