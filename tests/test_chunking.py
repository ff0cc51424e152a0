"""The ``chunk_trajectories`` knob: config, determinism, progress, keys.

The chunk cap fixes the lockstep kernel's chunk plan — how many
trajectories each RNG stream simulates — so it is part of every
vectorized study's identity, and of no object-engine study's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.maintenance.strategy import MaintenanceStrategy
from repro.simulation.batch import COST_FIELDS, TrajectoryBatch
from repro.simulation.executor import (
    DEFAULT_CHUNK_TRAJECTORIES,
    FMTSimulator,
    SimulationConfig,
)
from repro.simulation.montecarlo import MonteCarlo
from repro.simulation.vectorized import VectorizedKernel
from repro.studies import key as key_mod
from repro.studies.runner import StudyRequest
from repro.core.builder import FMTBuilder


def _tree():
    builder = FMTBuilder("chunked")
    builder.degraded_event("a", phases=3, mean=6.0, threshold=2)
    builder.degraded_event("b", phases=2, mean=9.0, threshold=1)
    builder.or_gate("top", ["a", "b"])
    return builder.build("top")


def _mc(seed=7, chunk=None, horizon=10.0):
    kwargs = {}
    if chunk is not None:
        kwargs["chunk_trajectories"] = chunk
    return MonteCarlo(
        _tree(),
        MaintenanceStrategy.none(),
        horizon=horizon,
        seed=seed,
        kernel="vectorized",
        **kwargs,
    )


def _assert_batches_equal(a: TrajectoryBatch, b: TrajectoryBatch) -> None:
    assert np.array_equal(a.failure_times, b.failure_times)
    assert np.array_equal(a.failure_offsets, b.failure_offsets)
    assert np.array_equal(a.downtime, b.downtime)
    for field in COST_FIELDS:
        assert np.array_equal(a.costs[field], b.costs[field]), field
    assert np.array_equal(a.n_inspections, b.n_inspections)
    assert np.array_equal(a.n_preventive_actions, b.n_preventive_actions)
    assert np.array_equal(
        a.n_corrective_replacements, b.n_corrective_replacements
    )


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------
def test_chunk_trajectories_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(horizon=10.0, chunk_trajectories=0)
    with pytest.raises(ValidationError):
        SimulationConfig(horizon=10.0, chunk_trajectories=-4)
    assert SimulationConfig(horizon=10.0).chunk_trajectories == (
        DEFAULT_CHUNK_TRAJECTORIES
    )


def test_montecarlo_chunk_argument():
    mc = _mc(chunk=16)
    assert mc.simulator.config.chunk_trajectories == 16
    assert _mc().simulator.config.chunk_trajectories == (
        DEFAULT_CHUNK_TRAJECTORIES
    )


def test_study_request_validates_chunk():
    with pytest.raises(ValidationError):
        StudyRequest(
            tree=_tree(),
            strategy=MaintenanceStrategy.none(),
            horizon=10.0,
            seed=1,
            n_runs=10,
            chunk_trajectories=0,
        )


# ----------------------------------------------------------------------
# Chunk-boundary determinism
# ----------------------------------------------------------------------
def test_chunk_boundary_determinism():
    # run(40) at chunk 16 must equal hand-driving the kernel over the
    # same stream plan: ceil(40/16) = 3 near-equal chunks (14, 13, 13),
    # one spawned child each.
    mc = _mc(seed=7, chunk=16)
    result = mc.run(40)

    kernel = VectorizedKernel(_mc(seed=7, chunk=16).simulator)
    seeds = np.random.SeedSequence(7).spawn(3)
    manual = TrajectoryBatch.merge(
        [
            kernel.simulate_chunk(14, np.random.default_rng(seeds[0])),
            kernel.simulate_chunk(13, np.random.default_rng(seeds[1])),
            kernel.simulate_chunk(13, np.random.default_rng(seeds[2])),
        ]
    )
    _assert_batches_equal(result.batch, manual)
    assert mc._seed_sequence.n_children_spawned == 3


def test_rerun_bit_identical():
    _assert_batches_equal(
        _mc(seed=5, chunk=16).run(50).batch,
        _mc(seed=5, chunk=16).run(50).batch,
    )


# ----------------------------------------------------------------------
# Progress: watched runs are bit-identical to silent ones
# ----------------------------------------------------------------------
class _Collector:
    def __init__(self):
        self.events = []

    def update(self, event):
        self.events.append(event)

    def close(self):
        pass


def test_watched_run_bit_identical_to_silent():
    silent = _mc(seed=9, chunk=64).run(200)
    reporter = _Collector()
    watched = _mc(seed=9, chunk=64).run(200, progress=reporter)
    _assert_batches_equal(silent.batch, watched.batch)
    assert silent.summary == watched.summary
    assert reporter.events, "watched run emitted no progress"
    completed = [event.completed for event in reporter.events]
    assert completed == sorted(completed)
    assert completed[-1] == 200
    assert reporter.events[-1].done
    # In-chunk events fire between chunk boundaries (multiples of 64),
    # at the object path's throttle cadence.
    boundaries = {64, 128, 200}
    assert any(c not in boundaries for c in completed), (
        "expected in-chunk progress events, got only boundary events"
    )


# ----------------------------------------------------------------------
# Study-key fracturing
# ----------------------------------------------------------------------
def _material(**overrides):
    kwargs = dict(
        tree="tree-material",
        strategy=None,
        horizon=10.0,
        cost_model="costs",
        seed=3,
        n_runs=100,
        confidence=0.95,
        record_events=False,
    )
    kwargs.update(overrides)
    return key_mod.study_material(**kwargs)


def test_object_material_ignores_chunk():
    # The object engine never reads the chunk cap, so it stays out of
    # the material whatever its value; the kernel itself is always in.
    assert _material() == _material(
        chunk_trajectories=DEFAULT_CHUNK_TRAJECTORIES
    )
    assert _material() == _material(chunk_trajectories=512)
    assert "chunk_trajectories" not in _material()
    assert '"kernel"' in _material()


def test_non_default_chunk_fractures_material():
    default = _material(
        kernel="vectorized", chunk_trajectories=DEFAULT_CHUNK_TRAJECTORIES
    )
    fractured = _material(kernel="vectorized", chunk_trajectories=512)
    assert fractured != default
    # A vectorized study always carries its chunk cap, the default too.
    assert "chunk_trajectories" in default
    assert "chunk_trajectories" in fractured
    assert _material(kernel="vectorized", chunk_trajectories=512) == fractured
    with pytest.raises(ValueError):
        _material(kernel="vectorized")


def test_study_request_key_fractures_on_chunk():
    base = dict(
        tree=_tree(),
        strategy=MaintenanceStrategy.none(),
        horizon=10.0,
        seed=1,
        n_runs=10,
        kernel="vectorized",
    )
    default_key = StudyRequest(**base).key()
    explicit_default = StudyRequest(
        chunk_trajectories=DEFAULT_CHUNK_TRAJECTORIES, **base
    ).key()
    tuned = StudyRequest(chunk_trajectories=512, **base).key()
    assert default_key.digest == explicit_default.digest
    assert tuned.digest != default_key.digest


def test_object_study_key_ignores_chunk():
    base = dict(
        tree=_tree(),
        strategy=MaintenanceStrategy.none(),
        horizon=10.0,
        seed=1,
        n_runs=10,
    )
    default_key = StudyRequest(**base).key()
    assert StudyRequest(chunk_trajectories=512, **base).key() == default_key
    assert StudyRequest(chunk_trajectories=1, **base).key() == default_key


def test_old_salt_disk_entry_is_a_miss(tmp_path, monkeypatch):
    # A cache written before the chunk plan changed (salt v1, 4096-row
    # chunk layout) must never serve the current vectorized kernel.
    from repro.observability.instrumentation import Instrumentation
    from repro.studies.runner import StudyRunner

    request = StudyRequest(
        tree=_tree(),
        strategy=MaintenanceStrategy.none(),
        horizon=10.0,
        seed=1,
        n_runs=50,
        kernel="vectorized",
    )
    old_salt = "repro-1.0.0/studies-v1"
    assert key_mod.CODE_SALT != old_salt
    with monkeypatch.context() as patch:
        patch.setattr(key_mod, "CODE_SALT", old_salt)
        StudyRunner(cache_dir=str(tmp_path)).summary(request)
    assert list(tmp_path.rglob("*")), "old-salt entry was not written"

    instr = Instrumentation()
    StudyRunner(cache_dir=str(tmp_path), instrumentation=instr).summary(
        request
    )
    assert instr.registry.counter("study.disk_hits").value == 0
    assert instr.registry.counter("study.misses").value == 1


def test_study_request_chunk_roundtrips_wire():
    request = StudyRequest(
        tree=_tree(),
        strategy=MaintenanceStrategy.none(),
        horizon=10.0,
        seed=1,
        n_runs=10,
        chunk_trajectories=512,
    )
    assert StudyRequest.from_dict(request.to_dict()).chunk_trajectories == 512
    legacy = request.to_dict()
    del legacy["chunk_trajectories"]
    assert StudyRequest.from_dict(legacy).chunk_trajectories == (
        DEFAULT_CHUNK_TRAJECTORIES
    )


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_chunk_size(tmp_path, capsys):
    from repro.cli import main
    from repro.dsl import save_file

    model = tmp_path / "model.fmt"
    save_file(_tree(), model)
    code = main(
        [
            "simulate",
            str(model),
            "--runs",
            "64",
            "--kernel",
            "vectorized",
            "--chunk-size",
            "32",
        ]
    )
    assert code == 0
    assert "unreliability" in capsys.readouterr().out
