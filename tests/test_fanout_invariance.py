"""A vectorized study returns the same bytes however it is fanned out.

The lockstep kernel runs one chunk plan, a pure function of
``(n_runs, chunk_trajectories)``, and seeds chunk ``i`` from
``root.spawn(k)[i]``.  So a serial ``run``, ``run_parallel`` on any
number of processes (dedicated or shared pool, shared-memory fold on or
off), a watched or a silent run, and a pooled ``StudyRunner`` must all
return ``==`` summaries, having spawned exactly ``k`` streams.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import FMTBuilder
from repro.errors import ValidationError
from repro.maintenance.actions import clean
from repro.maintenance.modules import InspectionModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.simulation import parallel
from repro.simulation.montecarlo import MonteCarlo
from repro.simulation.parallel import SharedSimulationPool
from repro.simulation.vectorized import chunk_plan
from repro.studies.runner import StudyRequest, StudyRunner

def _tree():
    builder = FMTBuilder("fanout")
    builder.degraded_event("a", phases=3, mean=6.0, threshold=2)
    builder.degraded_event("b", phases=2, mean=9.0, threshold=1)
    builder.or_gate("top", ["a", "b"])
    return builder.build("top")


def _strategy():
    module = InspectionModule("i", period=1.0, targets=["a"], action=clean())
    return MaintenanceStrategy("s", inspections=(module,))


TREE = _tree()
STRATEGY = _strategy()


def _mc(seed, chunk):
    return MonteCarlo(
        TREE,
        STRATEGY,
        horizon=8.0,
        seed=seed,
        kernel="vectorized",
        chunk_trajectories=chunk,
    )


class _Collector:
    def __init__(self):
        self.events = []

    def update(self, event):
        self.events.append(event)

    def close(self):
        pass


@pytest.fixture(scope="module")
def pools():
    shared = {2: SharedSimulationPool(2), 3: SharedSimulationPool(3)}
    yield shared
    for pool in shared.values():
        pool.shutdown()


@pytest.fixture(scope="module")
def runner():
    pooled = StudyRunner(processes=2)
    yield pooled
    pooled.close()


# ----------------------------------------------------------------------
# The chunk plan
# ----------------------------------------------------------------------
@given(
    n_runs=st.integers(min_value=1, max_value=100_000),
    chunk=st.integers(min_value=1, max_value=50_000),
)
def test_chunk_plan_is_near_equal(n_runs, chunk):
    plan = chunk_plan(n_runs, chunk)
    assert len(plan) == math.ceil(n_runs / chunk)
    assert sum(plan) == n_runs
    assert max(plan) - min(plan) <= 1
    assert max(plan) <= chunk
    assert plan == sorted(plan, reverse=True)


def test_chunk_plan_rejects_empty_inputs():
    with pytest.raises(ValidationError):
        chunk_plan(0, 10)
    with pytest.raises(ValidationError):
        chunk_plan(10, 0)


@pytest.mark.parametrize("processes", [2, 3])
def test_pooled_plan_never_depends_on_processes(processes, pools):
    # The shared-memory segment is sized from the dispatched tasks' row
    # counts: one task per chunk of the plan, whatever the pool size.
    plans = []
    real_writer = parallel.ShmBatchWriter

    def recording_writer(horizon, rows):
        plans.append(list(rows))
        return real_writer(horizon, rows)

    with mock.patch.object(parallel, "ShmBatchWriter", recording_writer):
        _mc(seed=4, chunk=70).run_parallel(500, pool=pools[processes])
        _mc(seed=4, chunk=70).run_parallel(500, processes=processes)
    assert plans == [chunk_plan(500, 70)] * 2


# ----------------------------------------------------------------------
# Fan-out invariance
# ----------------------------------------------------------------------
@st.composite
def _studies(draw):
    n_runs = draw(st.integers(min_value=1, max_value=1500))
    chunk = draw(
        st.integers(min_value=max(1, n_runs // 12), max_value=2 * n_runs)
    )
    return {
        "n_runs": n_runs,
        "chunk": chunk,
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        "processes": draw(st.sampled_from([1, 2, 3])),
        "shared_pool": draw(st.booleans()),
        "shm": draw(st.booleans()),
        "watched": draw(st.booleans()),
    }


@settings(max_examples=80, deadline=None)
@given(study=_studies())
def test_fanout_invariance(study, pools, runner):
    n_runs, chunk, seed = study["n_runs"], study["chunk"], study["seed"]
    k = len(chunk_plan(n_runs, chunk))

    serial_driver = _mc(seed, chunk)
    serial = serial_driver.run(n_runs)
    assert serial_driver._seed_sequence.n_children_spawned == k

    processes = study["processes"]
    pool = pools.get(processes) if study["shared_pool"] else None
    progress = _Collector() if study["watched"] else None
    driver = _mc(seed, chunk)
    with mock.patch.object(
        parallel, "shared_memory_available", lambda: study["shm"]
    ):
        fanned = driver.run_parallel(
            n_runs, processes=processes, pool=pool, progress=progress
        )
    assert fanned.summary == serial.summary
    assert driver._seed_sequence.n_children_spawned == k

    watched = _Collector()
    assert _mc(seed, chunk).run(n_runs, progress=watched).summary == (
        serial.summary
    )

    # The pooled runner simulates every study on its pool, with the
    # serial bytes.
    request = StudyRequest(
        tree=TREE,
        strategy=STRATEGY,
        horizon=8.0,
        seed=seed,
        n_runs=n_runs,
        kernel="vectorized",
        chunk_trajectories=chunk,
    )
    assert runner.summary(request) == serial.summary


@pytest.mark.parametrize("n_runs", [1, 599, 600])
def test_pooled_runner_matches_serial(n_runs, runner):
    request = StudyRequest(
        tree=TREE,
        strategy=STRATEGY,
        horizon=8.0,
        seed=11,
        n_runs=n_runs,
        kernel="vectorized",
        chunk_trajectories=128,
    )
    assert runner.summary(request) == _mc(11, 128).run(n_runs).summary
