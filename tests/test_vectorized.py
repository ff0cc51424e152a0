"""Tests of the lockstep vectorized kernel and its differential oracle.

The vectorized kernel draws the same distributions as the object engine
in a different order, so the contract is distributional equivalence —
checked here by the differential harness (KS tests + CI overlap) on the
paper's model and on hypothesis-generated random trees — plus exact
bit-identity of the fallback path, which routes through the object
engine trajectory by trajectory.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import FMTBuilder
from repro.eijoint.model import build_ei_joint_fmt
from repro.eijoint.parameters import default_cost_model
from repro.eijoint.strategies import current_policy, unmaintained
from repro.errors import ValidationError
from repro.maintenance.actions import clean, replace
from repro.maintenance.costs import CostModel
from repro.maintenance.modules import InspectionModule, RepairModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.simulation import compare_kernels
from repro.simulation.executor import FMTSimulator, SimulationConfig
from repro.simulation.montecarlo import MonteCarlo
from repro.simulation.parallel import simulate_batch_columns
from repro.simulation.vectorized import (
    iter_vectorized_batches,
    vectorized_fallback_reason,
)


def _simulator(tree, strategy, horizon=20.0, kernel="vectorized", costs=None):
    config = SimulationConfig(
        horizon=horizon,
        cost_model=costs if costs is not None else CostModel(),
        kernel=kernel,
    )
    return FMTSimulator(tree, strategy, config=config)


def _two_event_tree(gate="or"):
    builder = FMTBuilder("vec")
    builder.degraded_event("a", phases=3, mean=6.0, threshold=2)
    builder.degraded_event("b", phases=2, mean=9.0, threshold=1)
    getattr(builder, f"{gate}_gate")("top", ["a", "b"])
    return builder.build("top")


# ----------------------------------------------------------------------
# Configuration plumbing
# ----------------------------------------------------------------------
def test_kernel_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(horizon=10.0, kernel="warp")
    with pytest.raises(ValidationError):
        SimulationConfig(horizon=10.0, kernel="vectorized", record_events=True)


def test_montecarlo_kernel_argument():
    tree = _two_event_tree()
    mc = MonteCarlo(tree, MaintenanceStrategy.none(), horizon=10.0, seed=3,
                    kernel="vectorized")
    assert mc.simulator.config.kernel == "vectorized"
    result = mc.run(500)
    assert 0.0 <= result.summary.unreliability.estimate <= 1.0


def test_run_keep_trajectories_roundtrip():
    tree = _two_event_tree()
    mc = MonteCarlo(tree, MaintenanceStrategy.none(), horizon=10.0, seed=3,
                    kernel="vectorized")
    result = mc.run(300, keep_trajectories=True)
    assert len(result.trajectories) == 300
    assert all(t.events_recorded is False for t in result.trajectories)


# ----------------------------------------------------------------------
# Fallback classification
# ----------------------------------------------------------------------
def test_fallback_reason_none_for_plain_model():
    tree = _two_event_tree()
    assert vectorized_fallback_reason(
        _simulator(tree, MaintenanceStrategy.none())
    ) is None


def test_fallback_reason_none_for_ei_joint_policies():
    tree = build_ei_joint_fmt()
    for strategy in (unmaintained(), current_policy()):
        assert vectorized_fallback_reason(_simulator(tree, strategy)) is None


def test_fallback_reason_exponential_timing():
    tree = _two_event_tree()
    module = InspectionModule(
        "i", period=1.0, targets=["a"], action=clean(), timing="exponential"
    )
    strategy = MaintenanceStrategy("s", inspections=(module,))
    reason = vectorized_fallback_reason(_simulator(tree, strategy))
    assert reason is not None and "exponential" in reason


def test_fallback_reason_delayed_action():
    tree = _two_event_tree()
    module = InspectionModule(
        "i", period=1.0, targets=["a"], action=clean(), delay=0.25
    )
    strategy = MaintenanceStrategy("s", inspections=(module,))
    reason = vectorized_fallback_reason(_simulator(tree, strategy))
    assert reason is not None and "delayed" in reason


def test_fallback_reason_gate_trigger_rdep():
    builder = FMTBuilder("vec")
    builder.degraded_event("a", phases=3, mean=6.0, threshold=2)
    builder.degraded_event("b", phases=2, mean=9.0, threshold=1)
    builder.degraded_event("c", phases=2, mean=9.0, threshold=1)
    builder.or_gate("sub", ["a", "b"])
    builder.or_gate("top", ["sub", "c"])
    builder.rdep("r", trigger="sub", targets=["c"], factor=2.0)
    tree = builder.build("top")
    reason = vectorized_fallback_reason(
        _simulator(tree, MaintenanceStrategy.none())
    )
    assert reason is not None and "gate" in reason


def test_fallback_reason_chained_rdep():
    builder = FMTBuilder("vec")
    builder.degraded_event("a", phases=2, mean=4.0, threshold=1)
    builder.degraded_event("b", phases=2, mean=6.0, threshold=1)
    builder.degraded_event("c", phases=2, mean=8.0, threshold=1)
    builder.or_gate("top", ["a", "b", "c"])
    builder.rdep("r1", trigger="a", targets=["b"], factor=2.0)
    builder.rdep("r2", trigger="b", targets=["c"], factor=2.0)
    tree = builder.build("top")
    reason = vectorized_fallback_reason(
        _simulator(tree, MaintenanceStrategy.none())
    )
    assert reason is not None and "chained" in reason.lower()


def test_fallback_reason_pand_gate_child():
    builder = FMTBuilder("vec")
    builder.degraded_event("a", phases=2, mean=4.0, threshold=1)
    builder.degraded_event("b", phases=2, mean=6.0, threshold=1)
    builder.degraded_event("c", phases=2, mean=8.0, threshold=1)
    builder.or_gate("sub", ["a", "b"])
    builder.pand_gate("top", ["sub", "c"])
    tree = builder.build("top")
    reason = vectorized_fallback_reason(
        _simulator(tree, MaintenanceStrategy.none())
    )
    assert reason is not None and "PAND" in reason


# ----------------------------------------------------------------------
# Fallback path: bit-identical to the object engine
# ----------------------------------------------------------------------
def test_fallback_path_bit_identical_to_object_engine():
    tree = _two_event_tree()
    module = InspectionModule(
        "i", period=1.0, targets=["a", "b"], action=clean(),
        timing="exponential",
    )
    strategy = MaintenanceStrategy("s", inspections=(module,))
    costs = CostModel(inspection_visit=30.0, downtime_per_year=1000.0)
    seeds = np.random.SeedSequence(42).spawn(300)

    assert vectorized_fallback_reason(
        _simulator(tree, strategy, costs=costs)
    ) is not None
    via_object = simulate_batch_columns(
        _simulator(tree, strategy, kernel="object", costs=costs), seeds
    )
    via_vectorized = simulate_batch_columns(
        _simulator(tree, strategy, kernel="vectorized", costs=costs), seeds
    )

    np.testing.assert_array_equal(
        via_object.failure_times, via_vectorized.failure_times
    )
    np.testing.assert_array_equal(
        via_object.failure_offsets, via_vectorized.failure_offsets
    )
    np.testing.assert_array_equal(via_object.downtime, via_vectorized.downtime)
    for field in via_object.costs:
        np.testing.assert_array_equal(
            via_object.costs[field], via_vectorized.costs[field]
        )
    np.testing.assert_array_equal(
        via_object.n_inspections, via_vectorized.n_inspections
    )


def test_iter_vectorized_batches_covers_all_seeds():
    tree = _two_event_tree()
    seeds = np.random.SeedSequence(5).spawn(1000)
    sim = _simulator(tree, MaintenanceStrategy.none())
    with pytest.warns(DeprecationWarning):
        chunks = iter_vectorized_batches(sim, seeds, chunk_size=256)
    assert sum(len(chunk) for chunk in chunks) == 1000


# ----------------------------------------------------------------------
# Distributional equivalence on the paper's model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy_factory", [unmaintained, current_policy])
def test_ei_joint_differential(strategy_factory):
    report = compare_kernels(
        build_ei_joint_fmt(),
        strategy_factory(),
        horizon=30.0,
        cost_model=default_cost_model(),
        n_runs=1500,
        seed=19,
        alpha=1e-4,
    )
    assert report.fallback_reason is None
    assert report.passed, report.describe()


def test_pand_composition_matches_object_engine():
    """Exact-composition PAND: order-respecting failures only."""
    builder = FMTBuilder("vec")
    builder.degraded_event("first", phases=2, mean=3.0, threshold=1)
    builder.degraded_event("second", phases=3, mean=5.0, threshold=2)
    builder.pand_gate("top", ["first", "second"])
    tree = builder.build("top")
    report = compare_kernels(
        tree,
        MaintenanceStrategy.none(),
        horizon=25.0,
        n_runs=1500,
        seed=23,
        alpha=1e-4,
    )
    assert report.fallback_reason is None
    assert report.passed, report.describe()


def test_rdep_acceleration_matches_object_engine():
    builder = FMTBuilder("vec")
    builder.degraded_event("trig", phases=2, mean=4.0, threshold=1)
    builder.degraded_event("dep", phases=3, mean=10.0, threshold=2)
    builder.or_gate("top", ["trig", "dep"])
    builder.rdep("r", trigger="trig", targets=["dep"], factor=3.0)
    tree = builder.build("top")
    module = InspectionModule(
        "i", period=2.0, targets=["trig", "dep"], action=clean()
    )
    strategy = MaintenanceStrategy(
        "s", inspections=(module,), on_system_failure="replace",
        system_repair_time=0.1,
    )
    report = compare_kernels(
        tree,
        strategy,
        horizon=25.0,
        cost_model=CostModel(
            inspection_visit=10.0,
            system_failure=500.0,
            downtime_per_year=2000.0,
        ),
        n_runs=1500,
        seed=29,
        alpha=1e-4,
    )
    assert report.fallback_reason is None
    assert report.passed, report.describe()


# ----------------------------------------------------------------------
# Property: random small trees agree across kernels
# ----------------------------------------------------------------------
@given(
    gate=st.sampled_from(["or", "and", "pand", "vot"]),
    phases_a=st.integers(min_value=1, max_value=4),
    phases_b=st.integers(min_value=2, max_value=4),
    mean_a=st.floats(min_value=2.0, max_value=12.0),
    mean_b=st.floats(min_value=2.0, max_value=12.0),
    with_rdep=st.booleans(),
    with_inspection=st.booleans(),
    with_shared_round=st.booleans(),
    period=st.floats(min_value=0.5, max_value=3.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=10, deadline=None)
def test_random_tree_kernel_equivalence(
    gate, phases_a, phases_b, mean_a, mean_b, with_rdep, with_inspection,
    with_shared_round, period, seed,
):
    builder = FMTBuilder("prop")
    builder.degraded_event("a", phases=phases_a, mean=mean_a,
                           threshold=max(1, phases_a - 1))
    builder.degraded_event("b", phases=phases_b, mean=mean_b,
                           threshold=max(1, phases_b - 1))
    builder.degraded_event("c", phases=2, mean=8.0, threshold=1)
    if gate == "vot":
        builder.voting_gate("top", 2, ["a", "b", "c"])
    else:
        getattr(builder, f"{gate}_gate")("top", ["a", "b", "c"])
    if with_rdep:
        builder.rdep("r", trigger="a", targets=["c"], factor=2.5)
    tree = builder.build("top")
    modules = ()
    if with_inspection:
        modules = (
            InspectionModule("i", period=period, targets=["b", "c"],
                             action=clean()),
        )
        if with_shared_round:
            # Shares c with round i at every other epoch of i.
            modules += (
                InspectionModule("j", period=2 * period, targets=["a", "c"],
                                 action=replace(), detection_probability=0.8),
            )
    strategy = MaintenanceStrategy(
        "s", inspections=modules, on_system_failure="replace",
        system_repair_time=0.05,
    )
    def differential(n_runs, seed):
        return compare_kernels(
            tree,
            strategy,
            horizon=20.0,
            cost_model=CostModel(system_failure=100.0,
                                 downtime_per_year=1000.0),
            n_runs=n_runs,
            seed=seed,
            alpha=1e-5,
        )

    report = differential(600, seed)
    assert report.fallback_reason is None
    if not report.passed:
        # The CI-overlap leg is a binary check on two independent 95%
        # intervals, so a correct kernel still trips it now and then at
        # n=600.  Escalate the sample size before declaring bias: a
        # real discrepancy only gets more significant with more runs.
        report = differential(6000, seed + 1)
        assert report.passed, report.describe()


def test_repair_module_matches_object_engine():
    tree = _two_event_tree()
    module = RepairModule("renew", period=5.0, targets=["a", "b"],
                          action=replace())
    strategy = MaintenanceStrategy("s", repairs=(module,))
    report = compare_kernels(
        tree,
        strategy,
        horizon=30.0,
        cost_model=CostModel(
            action_costs={"replace": 200.0}, downtime_per_year=500.0
        ),
        n_runs=1500,
        seed=31,
        alpha=1e-4,
    )
    assert report.fallback_reason is None
    assert report.passed, report.describe()


def test_rounds_sharing_a_component_visit_in_the_engines_order():
    """At an instant where rounds meet, both engines run them in the
    order the engine scheduled them: from t = 2 on, the period-2 round
    goes before the period-1 round, so its ``replace()`` renews what the
    period-1 ``clean`` would otherwise have partly restored."""
    builder = FMTBuilder("shared")
    builder.degraded_event("c", phases=3, mean=3.0, threshold=1)
    builder.basic_event("d", mean=50.0)
    builder.or_gate("top", ["c", "d"])
    strategy = MaintenanceStrategy("shared", inspections=(
        InspectionModule("i", period=1.0, targets=["c"],
                         action=clean(restore_phases=1)),
        InspectionModule("j", period=2.0, targets=["c"], action=replace()),
    ))
    report = compare_kernels(
        builder.build("top"),
        strategy,
        horizon=20.0,
        cost_model=CostModel(action_costs={"clean": 1.0, "replace": 100.0}),
        n_runs=4000,
        seed=11,
    )
    assert report.fallback_reason is None
    assert report.passed, report.describe()
