"""Observability stack: metrics, instrumentation, tracing, logging.

The load-bearing guarantee tested here is the regression required by
the instrumentation layer's contract: attaching an
:class:`~repro.observability.Instrumentation` must never perturb the
simulation — instrumented and uninstrumented runs of the EI-joint
model under the same seed are bit-identical.
"""

import json
import logging
import pickle

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability import (
    Instrumentation,
    MetricsRegistry,
    current,
    percentile,
    use,
)
from repro.observability import instrumentation as obs
from repro.observability.logging_setup import get_logger, kv, parse_level
from repro.observability.metrics import Timer
from repro.observability.profiling import profile_call
from repro.observability.tracing import (
    TRACE_SCHEMA_VERSION,
    trace_records,
    write_trace_file,
)
from repro.simulation.engine import Engine
from repro.simulation.executor import FMTSimulator, SimulationConfig
from repro.simulation.montecarlo import MonteCarlo


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_counter_gauge_timer_basics():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.5)
    registry.timer("t").observe(0.5)
    assert registry.counter("c").value == 5
    assert registry.gauge("g").value == 2.5
    assert registry.timer("t").count == 1
    assert registry.timer("t").total == 0.5


def test_metric_name_bound_to_one_kind():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValidationError):
        registry.timer("x")


def test_percentile_interpolates():
    samples = [1.0, 2.0, 3.0, 4.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 4.0
    assert percentile(samples, 50) == 2.5
    with pytest.raises(ValidationError):
        percentile([], 50)
    with pytest.raises(ValidationError):
        percentile(samples, 101)


def test_timer_quantiles_and_context_manager():
    timer = Timer("t")
    for value in (0.1, 0.2, 0.3, 0.4, 0.5):
        timer.observe(value)
    assert timer.quantile(50.0) == pytest.approx(0.3)
    assert timer.max == pytest.approx(0.5)
    assert timer.mean == pytest.approx(0.3)
    with timer.time():
        pass
    assert timer.count == 6


def test_timer_sample_cap_keeps_count_and_total():
    timer = Timer("t", max_samples=3)
    for value in (1.0, 2.0, 3.0, 4.0):
        timer.observe(value)
    assert timer.count == 4
    assert timer.total == pytest.approx(10.0)
    assert timer.max == pytest.approx(4.0)  # exact even past the cap


def test_timer_reservoir_surfaces_late_run_outliers():
    # The pre-PR-6 first-N policy froze the sample window on the first
    # max_samples observations, so quantiles of a long run described
    # only its warm-up.  The reservoir keeps a uniform sample of
    # everything observed: a late regime change must show up.
    timer = Timer("late-outliers", max_samples=64)
    for _ in range(500):
        timer.observe(0.001)
    for _ in range(500):
        timer.observe(1.0)
    kept_late = sum(1 for sample in timer._samples if sample == 1.0)
    assert kept_late > 0, "late observations never entered the reservoir"
    # Half the stream is slow, so the reservoir should be roughly
    # half slow too (exact count is fixed by the name-seeded RNG).
    assert 16 <= kept_late <= 48
    assert timer.quantile(95.0) == pytest.approx(1.0)
    assert timer.max == pytest.approx(1.0)
    assert timer.count == 1000 and len(timer._samples) == 64


def test_timer_observe_many_equals_one_observe_per_sample():
    # Batches that start below, straddle and lie past the sample cap.
    values = [((7 * i) % 23) / 1000.0 for i in range(40)]
    one_by_one = Timer("batched", max_samples=16)
    for value in values:
        one_by_one.observe(value)
    batched = Timer("batched", max_samples=16)
    for start, stop in ((0, 10), (10, 10), (10, 25), (25, 40)):
        batched.observe_many(values[start:stop])
    assert batched.count == one_by_one.count == 40
    assert batched.total == one_by_one.total
    assert batched.max == one_by_one.max
    assert batched._samples == one_by_one._samples


def test_timer_reservoir_is_deterministic_per_name():
    def fill(timer):
        for value in range(200):
            timer.observe(value / 1000.0)
        return timer

    first = fill(Timer("same-name", max_samples=16))
    second = fill(Timer("same-name", max_samples=16))
    assert first._samples == second._samples
    other = fill(Timer("other-name", max_samples=16))
    assert other._samples != first._samples  # different seed, same data


def test_gauge_tracks_last_min_max_envelope():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    for value in (5.0, 1.0, 3.0):
        gauge.set(value)
    assert gauge.value == 3.0
    assert gauge.summary() == {"last": 3.0, "min": 1.0, "max": 5.0}
    untouched = registry.gauge("idle")
    assert untouched.summary() == {"last": 0.0, "min": 0.0, "max": 0.0}
    snapshot = registry.to_dict()["gauges"]
    assert snapshot["depth"]["max"] == 5.0


def test_gauge_merge_keeps_envelope_not_last_writer():
    parent, worker_a, worker_b = (
        MetricsRegistry(), MetricsRegistry(), MetricsRegistry(),
    )
    parent.gauge("load").set(2.0)
    worker_a.gauge("load").set(7.0)
    worker_b.gauge("load").set(1.0)
    worker_b.gauge("untouched")  # created but never set: contributes nothing
    parent.merge(worker_a)
    parent.merge(worker_b)
    merged = parent.gauge("load")
    assert merged.last == 1.0  # chunk completion order: b merged last
    assert merged.min == 1.0 and merged.max == 7.0
    assert parent.gauge("untouched").n_sets == 0


def test_registry_merge_carries_exact_timer_max():
    parent, worker = MetricsRegistry(), MetricsRegistry()
    worker_timer = worker.timer("t")
    worker_timer.max_samples = 2
    for value in (0.1, 0.2, 9.0, 0.3):
        worker_timer.observe(value)
    parent.merge(worker)
    merged = parent.timer("t")
    assert merged.count == 4
    assert merged.total == pytest.approx(9.6)
    assert merged.max == pytest.approx(9.0)  # survives reservoir eviction


def test_registry_to_dict_json_roundtrip(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a").inc(3)
    registry.timer("b").observe(0.25)
    path = tmp_path / "metrics.json"
    registry.write_json(path)
    loaded = json.loads(path.read_text())
    assert loaded["counters"]["a"] == 3
    assert loaded["timers"]["b"]["count"] == 1
    assert loaded["timers"]["b"]["p95_seconds"] == pytest.approx(0.25)


def test_registry_render_text_lists_everything():
    registry = MetricsRegistry()
    registry.counter("hits").inc(2)
    registry.gauge("depth").set(7)
    registry.timer("lap").observe(1.0)
    text = registry.render_text(title="report")
    assert "== report ==" in text
    assert "hits" in text and "depth" in text and "lap" in text
    assert MetricsRegistry().render_text().endswith("(empty)")


def test_registry_merge_folds_workers():
    parent, worker = MetricsRegistry(), MetricsRegistry()
    parent.counter("n").inc(1)
    worker.counter("n").inc(2)
    worker.timer("t").observe(0.5)
    parent.merge(worker)
    assert parent.counter("n").value == 3
    assert parent.timer("t").count == 1


# ----------------------------------------------------------------------
# Instrumentation object + ambient context
# ----------------------------------------------------------------------
def test_ambient_instrumentation_scoping():
    assert current() is None
    instr = Instrumentation()
    with use(instr):
        assert current() is instr
        with use(None):  # passthrough, not an override
            assert current() is instr
    assert current() is None


def test_instrumentation_pickles():
    instr = Instrumentation()
    instr.count("sim.trajectories", 3)
    clone = pickle.loads(pickle.dumps(instr))
    assert clone.registry.counter("sim.trajectories").value == 3


def test_engine_reports_event_counters():
    instr = Instrumentation()
    engine = Engine(instrumentation=instr)
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    handle.cancel()
    engine.run_until(5.0)
    counters = instr.registry.to_dict()["counters"]
    assert counters[obs.EVENTS_SCHEDULED] == 2
    assert counters[obs.EVENTS_CANCELLED] == 1
    assert counters[obs.EVENTS_EXECUTED] == 1


def test_simulator_counts_activity(maintained_tree, inspection_strategy, rng):
    instr = Instrumentation()
    config = SimulationConfig(horizon=40.0, instrumentation=instr)
    simulator = FMTSimulator(maintained_tree, inspection_strategy, config=config)
    simulator.simulate(rng)
    counters = instr.registry.to_dict()["counters"]
    assert counters[obs.SIM_TRAJECTORIES] == 1
    assert counters[obs.SIM_PHASE_JUMPS] > 0
    assert counters[obs.SIM_INSPECTIONS] > 0
    assert counters[obs.EVENTS_EXECUTED] > 0
    timers = instr.registry.to_dict()["timers"]
    assert timers[obs.TIMER_SIMULATE]["count"] == 1


# ----------------------------------------------------------------------
# The bit-identity regression (the tentpole's acceptance criterion)
# ----------------------------------------------------------------------
def _ei_joint_mc(instrumentation):
    from repro.eijoint.model import build_ei_joint_fmt
    from repro.eijoint.strategies import current_policy

    return MonteCarlo(
        build_ei_joint_fmt(),
        current_policy(),
        horizon=15.0,
        seed=2016,
        record_events=True,
        instrumentation=instrumentation,
    )


def _ei_joint_trajectories(instrumentation):
    return _ei_joint_mc(instrumentation).sample(25)


def _assert_trajectories_identical(plain, instrumented):
    for a, b in zip(plain, instrumented):
        assert a.failure_times == b.failure_times
        assert a.downtime == b.downtime
        assert a.costs.total == b.costs.total
        assert a.n_inspections == b.n_inspections
        assert a.n_preventive_actions == b.n_preventive_actions
        assert a.n_corrective_replacements == b.n_corrective_replacements
        assert [
            (e.time, e.component, e.kind, e.corrective, e.phase) for e in a.events
        ] == [
            (e.time, e.component, e.kind, e.corrective, e.phase) for e in b.events
        ]


def test_instrumented_ei_joint_run_is_bit_identical():
    plain = _ei_joint_trajectories(None)
    instr = Instrumentation()
    instrumented = _ei_joint_trajectories(instr)
    assert instr.registry.counter(obs.SIM_TRAJECTORIES).value == 25
    _assert_trajectories_identical(plain, instrumented)


def test_full_telemetry_ei_joint_run_is_bit_identical():
    """Metrics + spans + progress attached at once must stay passive."""
    import io

    from repro.observability import JsonlProgressReporter, SpanCollector
    from repro.observability import spans as sp
    from repro.observability.progress import use_progress

    plain = _ei_joint_trajectories(None)
    instr = Instrumentation()
    collector = SpanCollector()
    reporter = JsonlProgressReporter(stream=io.StringIO())
    with sp.use(collector), use_progress(reporter):
        watched = _ei_joint_mc(instr).run(25, keep_trajectories=True)
    _assert_trajectories_identical(plain, watched.trajectories)
    assert instr.registry.counter(obs.SIM_TRAJECTORIES).value == 25
    assert [r["name"] for r in collector.records] == ["mc.run"]
    assert reporter.events_seen > 0


def test_ambient_instrumentation_is_bit_identical(maintained_tree, inspection_strategy):
    plain = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=3
    ).run(30)
    instr = Instrumentation()
    with use(instr):
        ambient = MonteCarlo(
            maintained_tree, inspection_strategy, horizon=20.0, seed=3
        ).run(30)
    assert (
        plain.summary.expected_failures.estimate
        == ambient.summary.expected_failures.estimate
    )
    assert plain.summary.cost_per_year.estimate == ambient.summary.cost_per_year.estimate
    assert instr.registry.counter(obs.SIM_TRAJECTORIES).value == 30
    assert instr.registry.timer(obs.TIMER_SUMMARIZE).count == 1


# ----------------------------------------------------------------------
# Trace export
# ----------------------------------------------------------------------
def test_trace_records_schema(maintained_tree, inspection_strategy):
    mc = MonteCarlo(
        maintained_tree,
        inspection_strategy,
        horizon=30.0,
        seed=5,
        record_events=True,
    )
    trajectories = mc.sample(4)
    records = list(trace_records(trajectories))
    header = records[0]
    assert header["record"] == "header"
    assert header["schema_version"] == TRACE_SCHEMA_VERSION
    assert header["n_trajectories"] == 4
    kinds = [r["record"] for r in records]
    assert kinds.count("trajectory") == 4
    events = [r for r in records if r["record"] == "event"]
    total_events = sum(len(t.events) for t in trajectories)
    assert len(events) == total_events
    for event in events:
        assert set(event) == {
            "record", "trajectory", "time", "component", "kind",
            "corrective", "phase",
        }


def test_write_trace_file_is_valid_jsonl(tmp_path, maintained_tree, inspection_strategy):
    mc = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=6,
        record_events=True,
    )
    path = tmp_path / "trace.jsonl"
    count = write_trace_file(mc.sample(3), path)
    lines = path.read_text().splitlines()
    assert len(lines) == count
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["record"] == "header"


# ----------------------------------------------------------------------
# Logging setup
# ----------------------------------------------------------------------
def test_get_logger_namespacing():
    assert get_logger("simulation.engine").name == "repro.simulation.engine"
    assert get_logger("repro.cli").name == "repro.cli"
    assert get_logger("repro").name == "repro"


def test_parse_level():
    assert parse_level("DEBUG") == logging.DEBUG
    assert parse_level("info") == logging.INFO
    assert parse_level(logging.ERROR) == logging.ERROR
    assert parse_level(None) is None
    with pytest.raises(ValueError):
        parse_level("loud")


def test_kv_formatting():
    assert kv("done", runs=3, rate=0.25) == "done runs=3 rate=0.25"
    assert kv("bare") == "bare"


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
def test_profile_call_returns_result_and_stats():
    result, text = profile_call(sum, [1, 2, 3])
    assert result == 6
    assert "function calls" in text
