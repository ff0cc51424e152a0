"""Monte Carlo driver: reproducibility, stopping, result surface."""

import pytest

from repro.errors import ValidationError
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability.instrumentation import (
    TIMER_SIMULATE,
    TIMER_SUMMARIZE,
    Instrumentation,
)
from repro.simulation.executor import FMTSimulator, SimulationConfig
from repro.simulation.montecarlo import MonteCarlo
from repro.stats.sequential import RelativePrecisionRule


def _mc(tree, strategy=None, **kw):
    return MonteCarlo(tree, strategy or MaintenanceStrategy.none(), **kw)


def test_same_seed_reproduces_results(maintained_tree):
    first = _mc(maintained_tree, horizon=30.0, seed=7).run(50)
    second = _mc(maintained_tree, horizon=30.0, seed=7).run(50)
    assert (
        first.summary.expected_failures.estimate
        == second.summary.expected_failures.estimate
    )
    assert first.unreliability.estimate == second.unreliability.estimate


def test_different_seeds_differ(maintained_tree):
    first = _mc(maintained_tree, horizon=30.0, seed=1).run(50)
    second = _mc(maintained_tree, horizon=30.0, seed=2).run(50)
    assert (
        first.summary.expected_failures.estimate
        != second.summary.expected_failures.estimate
    )


def test_batching_invariance(maintained_tree):
    """Two batches of 25 equal one batch of 50 under the same seed."""
    whole = _mc(maintained_tree, horizon=30.0, seed=9)
    split = _mc(maintained_tree, horizon=30.0, seed=9)
    all_at_once = whole.sample(50)
    in_parts = split.sample(25) + split.sample(25)
    assert [t.n_failures for t in all_at_once] == [
        t.n_failures for t in in_parts
    ]


def test_run_requires_positive_count(maintained_tree):
    with pytest.raises(ValidationError):
        _mc(maintained_tree, horizon=10.0).run(0)


def test_result_properties(maintained_tree, inspection_strategy):
    result = _mc(
        maintained_tree, inspection_strategy, horizon=20.0, seed=3
    ).run(100)
    assert result.n_runs == 100
    assert 0.0 <= result.unreliability.estimate <= 1.0
    assert 0.0 <= result.reliability <= 1.0
    assert result.failures_per_year.estimate >= 0.0
    assert 0.0 <= result.availability.estimate <= 1.0
    assert result.cost_per_year.estimate == 0.0  # no cost model given


def test_reliability_at_requires_raw_material(maintained_tree):
    # A result stripped of both the object list and the batch (e.g. a
    # summary deserialized on its own) cannot produce a curve.
    from repro.simulation.montecarlo import MonteCarloResult

    summary = _mc(maintained_tree, horizon=20.0).run(5).summary
    bare = MonteCarloResult(summary=summary)
    with pytest.raises(ValidationError):
        bare.reliability_at([1.0])


def test_reliability_at_works_from_streamed_batch(maintained_tree):
    kept = _mc(maintained_tree, horizon=20.0, seed=4).run(
        60, keep_trajectories=True
    )
    streamed = _mc(maintained_tree, horizon=20.0, seed=4).run(60)
    assert streamed.trajectories is None
    assert streamed.batch is not None
    grid = [0.0, 5.0, 10.0, 20.0]
    _, from_objects = kept.reliability_at(grid)
    _, from_batch = streamed.reliability_at(grid)
    assert from_objects == from_batch


def test_reliability_at_with_kept_trajectories(maintained_tree):
    result = _mc(maintained_tree, horizon=20.0, seed=4).run(
        200, keep_trajectories=True
    )
    times, intervals = result.reliability_at([0.0, 10.0, 20.0])
    assert intervals[0].estimate == 1.0
    assert intervals[2].estimate <= intervals[1].estimate


def test_run_to_precision_stops(maintained_tree):
    rule = RelativePrecisionRule(
        relative_error=0.25, min_samples=50, max_samples=2000
    )
    result = _mc(maintained_tree, horizon=50.0, seed=5).run_to_precision(
        rule, batch_size=50
    )
    assert 50 <= result.n_runs <= 2000
    interval = result.summary.expected_failures
    assert (
        interval.relative_half_width <= 0.25 or result.n_runs == 2000
    )


def test_run_to_precision_respects_max_samples(maintained_tree):
    rule = RelativePrecisionRule(
        relative_error=1e-12, min_samples=50, max_samples=100
    )
    result = _mc(maintained_tree, horizon=5.0, seed=6).run_to_precision(
        rule, batch_size=50
    )
    assert result.n_runs == 100


def test_run_to_precision_unreliability_target(maintained_tree):
    rule = RelativePrecisionRule(
        relative_error=0.3, min_samples=50, max_samples=1000
    )
    result = _mc(maintained_tree, horizon=30.0, seed=8).run_to_precision(
        rule, batch_size=50, target="unreliability"
    )
    assert 50 <= result.n_runs <= 1000


def test_run_to_precision_cost_target(maintained_tree):
    from repro.maintenance.costs import CostModel

    mc = MonteCarlo(
        maintained_tree,
        MaintenanceStrategy.none(),
        horizon=30.0,
        cost_model=CostModel(system_failure=100.0),
        seed=9,
    )
    rule = RelativePrecisionRule(
        relative_error=0.3, min_samples=50, max_samples=1000
    )
    result = mc.run_to_precision(rule, batch_size=50, target="cost")
    assert result.cost_per_year.estimate > 0.0


def test_run_to_precision_all_zero_stream_stops_with_warning(simple_and_tree):
    # A horizon so short that no failure is ever observed: the relative
    # precision rule can never trigger, so the all-zero cap must.
    rule = RelativePrecisionRule(
        relative_error=0.1, min_samples=50, max_samples=1_000_000
    )
    mc = _mc(simple_and_tree, horizon=1e-9, seed=2)
    with pytest.warns(RuntimeWarning, match="all-zero|zero on all"):
        result = mc.run_to_precision(
            rule, batch_size=100, max_zero_samples=300
        )
    assert 300 <= result.n_runs <= 400
    assert result.summary.expected_failures.estimate == 0.0
    assert result.summary.expected_failures.upper > 0.0


def test_run_to_precision_rejects_bad_zero_cap(maintained_tree):
    with pytest.raises(ValidationError):
        _mc(maintained_tree).run_to_precision(max_zero_samples=0)


def test_run_to_precision_unknown_target(maintained_tree):
    with pytest.raises(ValidationError):
        _mc(maintained_tree, horizon=5.0).run_to_precision(target="banana")


def test_run_to_precision_rejects_bad_batch(maintained_tree):
    with pytest.raises(ValidationError):
        _mc(maintained_tree, horizon=5.0).run_to_precision(batch_size=0)


def test_horizon_property(maintained_tree):
    assert _mc(maintained_tree, horizon=12.5).horizon == 12.5


def test_simulator_config_instrumentation_times_summarize(maintained_tree):
    """The simulator's own instrumentation gets every timer of the
    study, not only the ones its simulator records."""
    instrumentation = Instrumentation()
    simulator = FMTSimulator(
        maintained_tree,
        MaintenanceStrategy("corrective"),
        config=SimulationConfig(horizon=5.0, instrumentation=instrumentation),
    )
    MonteCarlo(simulator=simulator, seed=1).run(20)
    timers = instrumentation.registry.to_dict()["timers"]
    assert TIMER_SIMULATE in timers
    assert TIMER_SUMMARIZE in timers


@pytest.mark.parametrize(
    "argument",
    [
        "tree",
        "strategy",
        "cost_model",
        "horizon",
        "record_events",
        "instrumentation",
        "kernel",
        "chunk_trajectories",
    ],
)
def test_prototype_driver_takes_no_model_or_config_argument(
    maintained_tree, argument
):
    """A driver built from a prototype takes its model and configuration
    from the prototype alone: each of these, given a value (even the
    prototype's own), raises."""
    config = SimulationConfig(horizon=5.0)
    simulator = FMTSimulator(maintained_tree, config=config)
    values = {
        "tree": maintained_tree,
        "strategy": MaintenanceStrategy.none(),
        "cost_model": config.cost_model,
        "horizon": config.horizon,
        "record_events": True,
        "instrumentation": Instrumentation(),
        "kernel": config.kernel,
        "chunk_trajectories": config.chunk_trajectories,
    }
    with pytest.raises(ValidationError, match="simulator= takes"):
        MonteCarlo(simulator=simulator, seed=1, **{argument: values[argument]})
    assert MonteCarlo(simulator=simulator, seed=1).horizon == 5.0
