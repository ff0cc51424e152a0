"""Every active deprecation shim warns and still works.

The deprecation policy (docs/api.md, "API stability & deprecation")
keeps replaced surfaces behind shims for at least one release; this
module pins each shim's warning *and* its behaviour, so a shim cannot
silently rot before its removal release.
"""

import warnings

import pytest

from repro.simulation.engine import Engine, ScheduledEvent


# ----------------------------------------------------------------------
# ScheduledEvent ordering (tentpole: tuple-keyed event calendar)
# ----------------------------------------------------------------------
def test_scheduled_event_ordering_warns_and_orders():
    engine = Engine()
    early = engine.schedule(1.0, lambda: None, priority=0)
    late = engine.schedule(2.0, lambda: None, priority=0)
    with pytest.warns(DeprecationWarning, match="ScheduledEvent ordering"):
        assert early < late
    with pytest.warns(DeprecationWarning):
        assert not (late < early)


def test_scheduled_event_ordering_ties_break_by_priority_then_seq():
    engine = Engine()
    first = engine.schedule(1.0, lambda: None, priority=1)
    second = engine.schedule(1.0, lambda: None, priority=0)
    third = engine.schedule(1.0, lambda: None, priority=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        assert second < first  # lower priority value wins
        assert first < third  # same priority: insertion order wins


def test_engine_hot_path_emits_no_deprecation_warnings():
    """The engine itself never trips its own shim."""
    engine = Engine()
    fired = []
    engine.schedule(2.0, lambda: fired.append(2))
    engine.schedule(1.0, lambda: fired.append(1))
    engine.schedule(1.0, lambda: fired.append(0), priority=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        engine.run_until(10.0)
    assert fired == [0, 1, 2]


# ----------------------------------------------------------------------
# repro.experiments.EXPERIMENTS (api_redesign: experiment registry)
# ----------------------------------------------------------------------
def test_experiments_dict_warns_and_matches_registry():
    import repro.experiments as experiments
    from repro.experiments.registry import iter_experiments

    with pytest.warns(DeprecationWarning, match="repro.experiments.EXPERIMENTS"):
        legacy = experiments.EXPERIMENTS
    assert legacy == dict(iter_experiments())
    assert list(legacy)[0] == "table1"


def test_experiments_unknown_attribute_still_raises():
    import repro.experiments as experiments

    with pytest.raises(AttributeError):
        experiments.NOT_A_REAL_NAME


# ----------------------------------------------------------------------
# Per-trajectory-seed vectorized drivers (perf_opt: one chunk plan)
# ----------------------------------------------------------------------
def _vectorized_simulator():
    from repro.core.builder import FMTBuilder
    from repro.maintenance.strategy import MaintenanceStrategy
    from repro.simulation.executor import FMTSimulator, SimulationConfig

    builder = FMTBuilder("shim")
    builder.degraded_event("a", phases=3, mean=6.0, threshold=2)
    builder.degraded_event("b", phases=2, mean=9.0, threshold=1)
    builder.or_gate("top", ["a", "b"])
    return FMTSimulator(
        builder.build("top"),
        MaintenanceStrategy.none(),
        config=SimulationConfig(horizon=10.0, kernel="vectorized"),
    )


def test_iter_vectorized_batches_warns_and_works():
    import numpy as np

    from repro.simulation import iter_vectorized_batches

    seeds = np.random.SeedSequence(5).spawn(100)
    with pytest.warns(DeprecationWarning, match="iter_vectorized_batches"):
        chunks = list(
            iter_vectorized_batches(_vectorized_simulator(), seeds, 40)
        )
    assert [len(chunk) for chunk in chunks] == [40, 40, 20]


def test_simulate_batch_columns_vectorized_warns_and_works():
    import numpy as np

    from repro.simulation import (
        iter_vectorized_batches,
        simulate_batch_columns_vectorized,
    )
    from repro.simulation.batch import TrajectoryBatch

    def seeds():
        # Fresh sequences per call: the shims spawn from the first seed
        # of each chunk, which advances that seed's spawn counter.
        return np.random.SeedSequence(6).spawn(100)

    simulator = _vectorized_simulator()
    with pytest.warns(
        DeprecationWarning, match="simulate_batch_columns_vectorized"
    ):
        merged = simulate_batch_columns_vectorized(simulator, seeds(), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        expected = TrajectoryBatch.merge(
            list(iter_vectorized_batches(simulator, seeds(), 40))
        )
    assert len(merged) == 100
    assert np.array_equal(merged.failure_times, expected.failure_times)
    assert np.array_equal(merged.failure_offsets, expected.failure_offsets)


def test_vectorized_drivers_are_warning_free():
    """The chunk-plan drivers never trip the per-seed shims."""
    from repro.simulation.montecarlo import MonteCarlo

    simulator = _vectorized_simulator()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        MonteCarlo(simulator=simulator, seed=3).run(300)
        MonteCarlo(simulator=simulator, seed=3).run_parallel(300, processes=1)


# ----------------------------------------------------------------------
# Shims must not leak into ordinary library use
# ----------------------------------------------------------------------
def test_simulation_stack_is_warning_free():
    import numpy as np

    from repro.eijoint import build_ei_joint_fmt, current_policy
    from repro.simulation.executor import FMTSimulator

    simulator = FMTSimulator(build_ei_joint_fmt(), current_policy(), horizon=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        simulator.simulate(np.random.default_rng(3))
        simulator.clone().simulate(np.random.default_rng(3))


# ----------------------------------------------------------------------
# CLI options before the command (api_redesign: argparse subparsers)
# ----------------------------------------------------------------------
def test_cli_leading_options_warn_and_rotate(capsys):
    from repro.cli import main

    with pytest.warns(DeprecationWarning, match="before the command"):
        assert main(["--quick", "table1"]) == 0
    assert "ferrous_dust" in capsys.readouterr().out


def test_cli_command_first_is_warning_free(capsys):
    from repro.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert main(["table1", "--quick"]) == 0
    capsys.readouterr()
