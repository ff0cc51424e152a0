"""Rare-event subsystem: importance functions, splitting, estimator.

Covers the acceptance criteria of the rare-event PR:

* structure-derived importance is monotone along failing trajectories
  of the (unmaintained) EI-joint and tops out at 1 exactly on failure;
* both splitting methods agree with the exact CTMC transient
  unreliability on a small Markovian tree (99% CI coverage);
* fixed effort agrees with crude Monte Carlo on the full EI-joint;
* crude-MC results are bit-identical with the subsystem configured but
  unused;
* serial and parallel rare-event runs are bit-identical.
"""

import os

import numpy as np
import pytest

from repro.core.builder import FMTBuilder
from repro.ctmc.compiler import compile_fmt
from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint.parameters import default_parameters
from repro.eijoint.strategies import inspection_policy, unmaintained
from repro.errors import EstimationError, SimulationError, ValidationError
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability.instrumentation import (
    RARE_CLONES,
    RARE_LEVEL_UP,
    RARE_SEGMENTS,
    Instrumentation,
)
from repro.rareevent import (
    RareEventConfig,
    RareEventEstimator,
    StructureImportance,
    candidate_thresholds,
    crude_equivalent_runs,
    select_thresholds,
)
from repro.simulation.executor import FMTSimulator, SimulationConfig
from repro.simulation.montecarlo import MonteCarlo


def _absorbing() -> MaintenanceStrategy:
    return MaintenanceStrategy("absorbing", on_system_failure="none")


@pytest.fixture
def markovian_tree():
    """Small unmaintained multi-phase tree with an exact CTMC solution."""
    builder = FMTBuilder("markovian")
    builder.degraded_event("left", phases=3, mean=30.0)
    builder.degraded_event("right", phases=2, mean=20.0)
    builder.and_gate("top", ["left", "right"])
    return builder.build("top")


# ----------------------------------------------------------------------
# Importance function
# ----------------------------------------------------------------------
def test_importance_bounds_and_failure(markovian_tree):
    importance = StructureImportance(markovian_tree)
    assert importance({"left": 0, "right": 0}) == 0.0
    assert 0.0 < importance({"left": 1, "right": 0}) < 1.0
    # Both leaves failed -> the AND top fails -> importance exactly 1.
    assert importance({"left": 3, "right": 2}) == 1.0
    assert importance.max_value == 1.0


def test_importance_monotone_along_failing_trajectory():
    """Phases only climb without maintenance, so importance must too."""
    params = default_parameters()
    tree = build_ei_joint_fmt(params)
    importance = StructureImportance(tree)
    config = SimulationConfig(horizon=400.0)
    simulator = FMTSimulator(tree, unmaintained(), config=config)
    failing_seen = 0
    for seed in range(40):
        simulator.begin(np.random.default_rng(seed))
        last = importance.of(simulator)
        while simulator.step():
            value = importance.of(simulator)
            assert value >= last - 1e-12
            last = value
        if simulator.system_failed:
            failing_seen += 1
            assert importance.of(simulator) == 1.0
    assert failing_seen > 0  # 400 y without maintenance: most runs fail


def test_importance_weights_reshape_and_validate(markovian_tree):
    damped = StructureImportance(markovian_tree, {"left": 0.5})
    unit = StructureImportance(markovian_tree)
    state = {"left": 2, "right": 0}
    assert damped(state) < unit(state)
    # A failed event maps to 1.0 regardless of its weight.
    assert damped({"left": 3, "right": 2}) == 1.0
    with pytest.raises(ValidationError):
        StructureImportance(markovian_tree, {"nope": 1.0})
    with pytest.raises(ValidationError):
        StructureImportance(markovian_tree, {"left": 0.0})


def test_candidate_and_selected_thresholds(markovian_tree):
    candidates = candidate_thresholds(markovian_tree, None)
    assert all(0.0 < c < 1.0 for c in candidates)
    assert list(candidates) == sorted(set(candidates))
    chosen = select_thresholds(candidates, 2)
    assert len(chosen) == 2
    assert set(chosen) <= set(candidates)
    # The highest candidate is always kept: it is the last gate before
    # failure, and dropping it would make the final stage the rare one.
    assert chosen[-1] == candidates[-1]


# ----------------------------------------------------------------------
# Exactness on a Markovian tree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["fixed_effort", "restart"])
def test_splitting_covers_ctmc_unreliability(markovian_tree, method):
    horizon = 8.0
    exact = compile_fmt(markovian_tree, _absorbing(), mode="unreliability")
    truth = exact.unreliability(horizon)
    assert 1e-5 < truth < 1e-2  # genuinely small, still testable
    config = RareEventConfig(
        method=method,
        n_levels=3,
        effort=400,
        n_replications=8,
        splits=4,
        n_roots=3000,
    )
    mc = MonteCarlo(markovian_tree, _absorbing(), horizon=horizon, seed=42)
    result = mc.run_rare_event(config, confidence=0.99)
    interval = result.unreliability
    assert interval.lower <= truth <= interval.upper
    # And the point estimate is in the right ballpark, not just covered
    # by a huge interval.
    assert truth / 5 < interval.estimate < truth * 5


def test_fixed_effort_agrees_with_crude_on_ei_joint():
    params = default_parameters()
    tree = build_ei_joint_fmt(params)
    strategy = inspection_policy(4.0, parameters=params)
    crude = MonteCarlo(tree, strategy, horizon=2.0, seed=3).run(
        4000, confidence=0.99
    )
    splitting = MonteCarlo(tree, strategy, horizon=2.0, seed=4).run_rare_event(
        RareEventConfig(
            method="fixed_effort", thresholds=(0.5, 2 / 3), effort=300,
            n_replications=6,
        ),
        confidence=0.99,
    )
    a, b = crude.unreliability, splitting.unreliability
    assert a.lower <= b.upper and b.lower <= a.upper


# ----------------------------------------------------------------------
# Reproducibility and integration
# ----------------------------------------------------------------------
def _trajectory_fingerprint(result):
    return [
        (t.failure_times, t.downtime, t.costs.total, t.n_inspections)
        for t in result.trajectories
    ]


def test_crude_mc_bit_identical_with_unused_subsystem():
    """Configuring rare_event must not perturb crude-MC streams."""
    params = default_parameters()
    tree = build_ei_joint_fmt(params)
    strategy = inspection_policy(4.0, parameters=params)
    plain = MonteCarlo(tree, strategy, horizon=15.0, seed=11).run(
        120, keep_trajectories=True
    )
    configured = MonteCarlo(
        tree,
        strategy,
        horizon=15.0,
        seed=11,
        rare_event=RareEventConfig(method="restart", n_roots=50),
    ).run(120, keep_trajectories=True)
    assert _trajectory_fingerprint(plain) == _trajectory_fingerprint(configured)


def test_rare_event_run_reproducible_and_seed_sensitive(markovian_tree):
    config = RareEventConfig(effort=100, n_replications=4, n_levels=2)
    first = MonteCarlo(
        markovian_tree, _absorbing(), horizon=8.0, seed=5
    ).run_rare_event(config)
    second = MonteCarlo(
        markovian_tree, _absorbing(), horizon=8.0, seed=5
    ).run_rare_event(config)
    other = MonteCarlo(
        markovian_tree, _absorbing(), horizon=8.0, seed=6
    ).run_rare_event(config)
    assert first.unreliability.estimate == second.unreliability.estimate
    assert first.n_trajectories == second.n_trajectories
    assert first.unreliability.estimate != other.unreliability.estimate


@pytest.mark.parametrize("method", ["fixed_effort", "restart"])
def test_rare_event_parallel_bit_identical(markovian_tree, method):
    config = RareEventConfig(
        method=method, effort=80, n_replications=4, n_roots=40, n_levels=2
    )
    serial = MonteCarlo(
        markovian_tree, _absorbing(), horizon=8.0, seed=9
    ).run_rare_event(config, processes=1)
    parallel = MonteCarlo(
        markovian_tree, _absorbing(), horizon=8.0, seed=9
    ).run_rare_event(config, processes=2)
    assert serial.unreliability.estimate == parallel.unreliability.estimate
    assert serial.unreliability.lower == parallel.unreliability.lower
    assert serial.n_trajectories == parallel.n_trajectories


def test_rare_event_worker_crash_raises_simulation_error(
    markovian_tree, monkeypatch
):
    def crash(self, rng):
        os._exit(1)

    # Pool workers are forked, so they run the patched unit body.
    monkeypatch.setattr(RareEventEstimator, "simulate", crash)
    config = RareEventConfig(method="restart", n_roots=8, n_levels=2)
    mc = MonteCarlo(markovian_tree, _absorbing(), horizon=8.0, seed=9)
    with pytest.raises(SimulationError, match="worker process"):
        mc.run_rare_event(config, processes=2)


def test_rare_event_after_crude_run_uses_distinct_streams(markovian_tree):
    mc = MonteCarlo(markovian_tree, _absorbing(), horizon=8.0, seed=5)
    mc.run(50)
    config = RareEventConfig(effort=100, n_replications=4, n_levels=2)
    after = mc.run_rare_event(config)
    fresh = MonteCarlo(
        markovian_tree, _absorbing(), horizon=8.0, seed=5
    ).run_rare_event(config)
    # Streams advance: a rare-event run after a crude run consumes
    # later child seeds, so it differs from a fresh driver's run.
    assert after.unreliability.estimate != fresh.unreliability.estimate


def test_instrumentation_counters_recorded(markovian_tree):
    instrumentation = Instrumentation()
    config = SimulationConfig(horizon=8.0, instrumentation=instrumentation)
    simulator = FMTSimulator(markovian_tree, _absorbing(), config=config)
    estimator = RareEventEstimator(
        simulator,
        RareEventConfig(effort=100, n_replications=2, n_levels=2),
    )
    seeds = np.random.SeedSequence(0).spawn(2)
    estimator.estimate(seeds)
    counters = instrumentation.registry.to_dict()["counters"]
    assert counters[RARE_SEGMENTS] > 0
    assert counters[RARE_LEVEL_UP] > 0
    assert counters[RARE_CLONES] > 0


# ----------------------------------------------------------------------
# Degenerate cases and validation
# ----------------------------------------------------------------------
def test_zero_hits_fall_back_to_wilson(markovian_tree):
    # A tiny effort on a rare event: no replication reaches failure.
    config = RareEventConfig(
        effort=2, n_replications=2, thresholds=(0.9,)
    )
    result = MonteCarlo(
        markovian_tree, _absorbing(), horizon=0.01, seed=1
    ).run_rare_event(config)
    interval = result.unreliability
    assert interval.estimate == 0.0
    assert interval.lower == 0.0
    assert interval.upper > 0.0  # Wilson zero-success upper bound


def test_single_phase_tree_rejected(simple_and_tree):
    simulator = FMTSimulator(simple_and_tree, _absorbing(), horizon=10.0)
    with pytest.raises(EstimationError):
        RareEventEstimator(simulator, RareEventConfig())


def test_estimator_rejects_wrong_seed_count(markovian_tree):
    simulator = FMTSimulator(
        markovian_tree, _absorbing(), config=SimulationConfig(horizon=8.0)
    )
    estimator = RareEventEstimator(
        simulator, RareEventConfig(n_replications=4, n_levels=2)
    )
    with pytest.raises(ValidationError):
        estimator.estimate(np.random.SeedSequence(0).spawn(3))


def test_config_validation():
    with pytest.raises(ValidationError):
        RareEventConfig(method="importance_sampling")
    with pytest.raises(ValidationError):
        RareEventConfig(effort=1)
    with pytest.raises(ValidationError):
        RareEventConfig(splits=1)
    with pytest.raises(ValidationError):
        RareEventConfig(n_roots=1)
    with pytest.raises(ValidationError):
        RareEventConfig(n_levels=0)


def test_threshold_validation(markovian_tree):
    simulator = FMTSimulator(
        markovian_tree, _absorbing(), config=SimulationConfig(horizon=8.0)
    )
    for bad in ((0.8, 0.5), (0.0, 0.5), (0.5, 1.0), ()):
        with pytest.raises(ValidationError):
            RareEventEstimator(
                simulator, RareEventConfig(thresholds=bad)
            ).estimate(np.random.SeedSequence(0).spawn(8))


def test_crude_equivalent_runs_inverts_wilson():
    from repro.stats.confidence import ConfidenceInterval

    interval = ConfidenceInterval(1e-4, 0.5e-4, 1.5e-4, 0.95)
    runs = crude_equivalent_runs(interval)
    assert runs is not None and runs > 100_000
    degenerate = ConfidenceInterval(0.0, 0.0, 1e-3, 0.95)
    assert crude_equivalent_runs(degenerate) is None
