"""Run telemetry: spans, progress reporting, Prometheus exposition.

Covers the PR-6 observability subsystem end to end: hierarchical span
tracing across the worker pool (including the cross-process context
round-trip), the worker-metric fold that makes ``--profile`` truthful
for parallel runs, live progress/convergence reporting, the Prometheus
text endpoint, and the instrumentation overhead budget.
"""

import io
import json
import math
import pickle
import urllib.request
from collections import Counter as TallyCounter

import numpy as np
import pytest

from repro.cli import main
from repro.dsl import save_file
from repro.observability import (
    Instrumentation,
    JsonlProgressReporter,
    MetricsRegistry,
    MetricsServer,
    ProgressEvent,
    ProgressReporter,
    Span,
    SpanCollector,
    SpanContext,
    TerminalProgressReporter,
    render_prometheus,
    use_progress,
)
from repro.observability import instrumentation as obs
from repro.observability import spans as sp
from repro.observability.exposition import CONTENT_TYPE, mangle_metric_name
from repro.observability.progress import current_progress, tee
from repro.simulation.montecarlo import MonteCarlo
from repro.simulation.parallel import sample_parallel, sample_parallel_batch


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_span_context_roundtrips_dict_and_pickle():
    context = SpanContext(trace_id="ab" * 16, span_id="cd" * 8)
    assert SpanContext.from_dict(context.to_dict()) == context
    assert pickle.loads(pickle.dumps(context)) == context


def test_span_without_collector_is_shared_noop():
    with sp.span("untraced") as opened:
        assert opened is sp.NULL_SPAN
        assert sp.current_context() is None
    with sp.span("also-untraced") as again:
        assert again is opened


def test_nested_spans_form_one_connected_trace():
    collector = SpanCollector()
    with sp.use(collector):
        with sp.span("outer", {"k": 1}) as outer:
            assert sp.current_context() == outer.context
            with sp.span("inner"):
                pass
        assert sp.current_context() is None
    inner, outer = collector.records  # children complete first
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["trace_id"] == outer["trace_id"]
    assert inner["parent_id"] == outer["span_id"]
    assert outer["parent_id"] is None
    assert outer["attributes"] == {"k": 1}
    assert inner["duration_seconds"] <= outer["duration_seconds"]
    assert all(r["status"] == "ok" for r in collector.records)


def test_span_error_status_and_propagation():
    collector = SpanCollector()
    with pytest.raises(RuntimeError):
        with sp.span("doomed", collector=collector):
            raise RuntimeError("boom")
    (record,) = collector.records
    assert record["status"] == "error"


def test_worker_style_record_parents_across_the_wire():
    collector = SpanCollector()
    with sp.use(collector):
        with sp.span("dispatch") as parent:
            shipped = parent.context.to_dict()  # travels with the task
    worker_span = Span.start("worker.chunk", parent=shipped,
                             attributes={"chunk": 0})
    record = worker_span.end().to_dict()  # travels back with the result
    collector.add_record(record)
    dispatch = [r for r in collector.records if r["name"] == "dispatch"][0]
    assert record["trace_id"] == dispatch["trace_id"]
    assert record["parent_id"] == dispatch["span_id"]


def test_collector_writes_valid_jsonl(tmp_path):
    collector = SpanCollector()
    with sp.span("a", collector=collector):
        pass
    path = tmp_path / "spans.jsonl"
    assert collector.write_jsonl_file(path) == 1
    (line,) = path.read_text().splitlines()
    record = json.loads(line)
    assert record["record"] == "span"
    assert record["schema_version"] == sp.SPAN_SCHEMA_VERSION
    assert record["end_time"] >= record["start_time"]


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------
def test_progress_event_to_dict_drops_none_fields():
    event = ProgressEvent(phase="mc.run", completed=10, total=100)
    record = event.to_dict()
    assert record["record"] == "progress"
    assert record["completed"] == 10
    assert "eta_seconds" not in record and "estimate" not in record


def test_terminal_reporter_formats_convergence_line():
    line = TerminalProgressReporter.format(
        ProgressEvent(
            phase="mc.run_to_precision", completed=400,
            elapsed_seconds=2.0, rate_per_sec=200.0, estimate=1.5,
            ci_half_width=0.12, relative_half_width=0.08, target=0.05,
        )
    )
    assert "mc.run_to_precision:" in line
    assert "400 trajectories" in line
    assert "ci-half-width 0.12" in line
    assert "rel 0.08 -> target 0.05" in line
    done = TerminalProgressReporter.format(
        ProgressEvent(phase="mc.run", completed=5, total=5, done=True)
    )
    assert "5/5 (100%)" in done and done.endswith("done")


class _TtyStringIO(io.StringIO):
    """A StringIO that claims to be an interactive terminal."""

    def isatty(self):
        return True


def test_terminal_reporter_throttles_but_always_paints_done():
    buffer = _TtyStringIO()
    reporter = TerminalProgressReporter(stream=buffer, min_interval=3600.0)
    for completed in (1, 2, 3):
        reporter.update(ProgressEvent(phase="p", completed=completed, total=4))
    reporter.update(ProgressEvent(phase="p", completed=4, total=4, done=True))
    reporter.close()
    text = buffer.getvalue()
    assert reporter.events_seen == 4
    assert text.count("\r") == 2  # first paint + forced done paint
    assert text.endswith("done\x1b[K\n")


def test_terminal_reporter_non_tty_emits_plain_lines():
    """Piped/captured streams must never see \\r or ANSI escapes."""
    buffer = io.StringIO()  # StringIO.isatty() is False
    reporter = TerminalProgressReporter(stream=buffer, min_interval=3600.0)
    for completed in (1, 2, 3):
        reporter.update(ProgressEvent(phase="p", completed=completed, total=4))
    reporter.update(ProgressEvent(phase="p", completed=4, total=4, done=True))
    reporter.close()
    text = buffer.getvalue()
    assert reporter.is_tty is False
    assert "\r" not in text and "\x1b" not in text
    lines = text.splitlines()
    assert len(lines) == 2  # first paint + forced done paint (throttled)
    assert lines[0].startswith("p: 1/4")
    assert lines[-1].endswith("done")


def test_terminal_reporter_non_tty_default_throttle_is_coarser():
    assert TerminalProgressReporter(stream=io.StringIO()).min_interval == 1.0


def test_progress_event_to_dict_drops_non_finite_floats():
    event = ProgressEvent(
        phase="p", completed=1, ci_half_width=math.inf,
        relative_half_width=math.nan, estimate=2.5,
    )
    record = event.to_dict()
    assert "ci_half_width" not in record
    assert "relative_half_width" not in record
    assert record["estimate"] == 2.5
    json.dumps(record, allow_nan=False)  # strict-JSON serializable


def test_jsonl_reporter_requires_exactly_one_sink(tmp_path):
    with pytest.raises(ValueError):
        JsonlProgressReporter()
    with pytest.raises(ValueError):
        JsonlProgressReporter(stream=io.StringIO(), path=tmp_path / "p.jsonl")
    path = tmp_path / "progress.jsonl"
    reporter = JsonlProgressReporter(path=path)
    reporter.update(ProgressEvent(phase="p", completed=1, total=2))
    reporter.close()
    (line,) = path.read_text().splitlines()
    assert json.loads(line)["phase"] == "p"


def test_tee_fans_out_and_ambient_scoping():
    first, second = io.StringIO(), io.StringIO()
    combined = tee(
        JsonlProgressReporter(stream=first),
        JsonlProgressReporter(stream=second),
    )
    assert isinstance(combined, ProgressReporter)
    assert current_progress() is None
    with use_progress(combined):
        assert current_progress() is combined
        current_progress().update(ProgressEvent(phase="p", completed=1))
    assert current_progress() is None
    assert first.getvalue() == second.getvalue() != ""
    single = JsonlProgressReporter(stream=io.StringIO())
    assert tee(single) is single


# ----------------------------------------------------------------------
# Driver integration: run / run_to_precision / run_parallel
# ----------------------------------------------------------------------
def test_run_emits_progress_and_stays_bit_identical(
    maintained_tree, inspection_strategy
):
    silent = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=9
    ).run(60)
    buffer = io.StringIO()
    watched = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=9
    ).run(60, progress=JsonlProgressReporter(stream=buffer))
    assert watched.summary == silent.summary
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert events[-1]["done"] is True
    assert events[-1]["completed"] == 60
    assert all(e["total"] == 60 for e in events)
    completed = [e["completed"] for e in events]
    assert completed == sorted(completed)


def test_run_keep_trajectories_with_progress_matches(
    maintained_tree, inspection_strategy
):
    silent = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=4
    ).run(20, keep_trajectories=True)
    watched = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=4
    ).run(
        20,
        keep_trajectories=True,
        progress=JsonlProgressReporter(stream=io.StringIO()),
    )
    assert watched.summary == silent.summary
    assert len(watched.trajectories) == 20


def test_run_to_precision_reports_convergence(
    maintained_tree, inspection_strategy
):
    from repro.stats.sequential import RelativePrecisionRule

    buffer = io.StringIO()
    collector = SpanCollector()
    rule = RelativePrecisionRule(relative_error=0.2, max_samples=2000)
    with sp.use(collector):
        result = MonteCarlo(
            maintained_tree, inspection_strategy, horizon=20.0, seed=5
        ).run_to_precision(
            rule=rule,
            batch_size=100,
            keep_trajectories=False,
            progress=JsonlProgressReporter(stream=buffer),
        )
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert events[-1]["done"] is True
    assert events[-1]["completed"] == result.n_runs
    assert events[-1]["target"] == 0.2
    converged = [e for e in events if "ci_half_width" in e]
    assert converged, "no convergence fields reported"
    assert all(e["phase"] == "mc.run_to_precision" for e in events)
    names = [r["name"] for r in collector.records]
    assert names == ["mc.run_to_precision"]
    assert collector.records[0]["attributes"]["n_samples"] == result.n_runs


def test_run_parallel_roundtrip_merges_workers_and_connects_spans(
    maintained_tree, inspection_strategy
):
    serial = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=11
    ).run(80)
    instr = Instrumentation()
    collector = SpanCollector()
    buffer = io.StringIO()
    with sp.use(collector), use_progress(JsonlProgressReporter(stream=buffer)):
        parallel = MonteCarlo(
            maintained_tree, inspection_strategy, horizon=20.0, seed=11,
            instrumentation=instr,
        ).run_parallel(80, processes=2)
    assert parallel.summary == serial.summary
    # Worker-side counters folded into the parent registry.
    counters = instr.registry.to_dict()["counters"]
    assert counters[obs.SIM_TRAJECTORIES] == 80
    gauges = instr.registry.to_dict()["gauges"]
    assert gauges[obs.SIM_WORKERS]["last"] >= 1
    per_worker = [n for n in gauges if n.startswith(obs.SIM_WORKER_PREFIX + ".")]
    assert any(n.endswith(".trajectories") for n in per_worker)
    total_by_worker = sum(
        gauges[n]["last"] for n in per_worker if n.endswith(".trajectories")
    )
    assert total_by_worker == 80
    # One connected trace: every worker chunk hangs off mc.run_parallel.
    records = collector.records
    names = TallyCounter(r["name"] for r in records)
    assert names["mc.run_parallel"] == 1
    assert names["worker.chunk"] >= 1
    assert len({r["trace_id"] for r in records}) == 1
    ids = {r["span_id"] for r in records}
    chunks = [r for r in records if r["name"] == "worker.chunk"]
    parent = [r for r in records if r["name"] == "mc.run_parallel"][0]
    assert all(c["parent_id"] == parent["span_id"] for c in chunks)
    assert all(
        r["parent_id"] is None or r["parent_id"] in ids for r in records
    )
    assert sum(c["attributes"]["n_trajectories"] for c in chunks) == 80
    # Progress saw the fan-out complete.
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert events[-1]["done"] is True and events[-1]["completed"] == 80


@pytest.mark.parametrize("kernel", ["object", "vectorized"])
def test_in_process_run_parallel_reports_what_run_does(kernel):
    from repro.eijoint.model import build_ei_joint_fmt
    from repro.eijoint.strategies import current_policy

    def watched(call):
        instrumentation, collector = Instrumentation(), SpanCollector()
        mc = MonteCarlo(
            build_ei_joint_fmt(), current_policy(), horizon=15.0, seed=2016,
            kernel=kernel,
        )
        with obs.use(instrumentation), sp.use(collector):
            summary = call(mc).summary
        registry = instrumentation.registry.to_dict()
        names = [r["name"] for r in collector.records]
        return summary, registry["counters"], registry["gauges"], names

    run = watched(lambda mc: mc.run(300))
    in_process = watched(lambda mc: mc.run_parallel(300, processes=1))
    assert in_process[0] == run[0]
    assert in_process[1] == run[1]
    assert run[1][obs.SIM_TRAJECTORIES] == 300
    for _, _, gauges, names in (run, in_process):
        assert "worker.chunk" not in names
        assert not [n for n in gauges if n.startswith(obs.SIM_WORKER_PREFIX)]


def _ei_joint_simulator():
    from repro.eijoint.model import build_ei_joint_fmt
    from repro.eijoint.strategies import current_policy
    from repro.simulation.executor import FMTSimulator

    return FMTSimulator(build_ei_joint_fmt(), current_policy(), horizon=10.0)


@pytest.mark.parametrize(
    "sample", [sample_parallel, sample_parallel_batch], ids=lambda f: f.__name__
)
def test_direct_pooled_call_counts_what_an_in_process_call_does(sample):
    """A direct pipeline call takes the pipeline's telemetry rule: on a
    pool, the workers' counters merge into the ambient registry."""
    simulator = _ei_joint_simulator()

    def counters(processes):
        instrumentation = Instrumentation()
        with obs.use(instrumentation):
            sample(
                simulator, np.random.SeedSequence(1).spawn(200),
                processes=processes,
            )
        return {
            key: value
            for key, value in instrumentation.registry.to_dict()["counters"].items()
            if key.startswith("sim.")
        }

    in_process = counters(1)
    assert in_process[obs.SIM_TRAJECTORIES] == 200
    assert counters(2) == in_process


def test_direct_pooled_call_parents_its_chunks_to_the_ambient_span():
    collector = SpanCollector()
    with sp.use(collector), sp.span("caller"):
        sample_parallel_batch(
            _ei_joint_simulator(), np.random.SeedSequence(1).spawn(200),
            processes=2,
        )
    (caller,) = [r for r in collector.records if r["name"] == "caller"]
    chunks = [r for r in collector.records if r["name"] == "worker.chunk"]
    assert chunks
    assert all(c["parent_id"] == caller["span_id"] for c in chunks)
    assert sum(c["attributes"]["n_trajectories"] for c in chunks) == 200


def test_run_parallel_without_telemetry_unchanged(
    maintained_tree, inspection_strategy
):
    plain = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=3
    ).run_parallel(40, processes=2)
    serial = MonteCarlo(
        maintained_tree, inspection_strategy, horizon=20.0, seed=3
    ).run(40)
    assert plain.summary == serial.summary


def test_rare_event_progress_and_span():
    from repro.core.builder import FMTBuilder
    from repro.maintenance.strategy import MaintenanceStrategy
    from repro.rareevent.estimator import RareEventConfig

    builder = FMTBuilder("markovian")
    builder.degraded_event("left", phases=3, mean=30.0)
    builder.degraded_event("right", phases=2, mean=20.0)
    builder.and_gate("top", ["left", "right"])
    tree = builder.build("top")
    config = RareEventConfig(effort=50, n_replications=3, n_levels=2)
    buffer = io.StringIO()
    collector = SpanCollector()
    mc = MonteCarlo(
        tree,
        MaintenanceStrategy("absorbing", on_system_failure="none"),
        horizon=8.0,
        seed=13,
        rare_event=config,
    )
    with sp.use(collector), use_progress(JsonlProgressReporter(stream=buffer)):
        mc.run_rare_event()
    names = [r["name"] for r in collector.records]
    assert names == ["mc.run_rare_event"]
    assert collector.records[0]["attributes"]["method"] == config.method
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    units = [e for e in events if e["phase"] == "rare.units"]
    assert len(units) == config.n_units
    assert units[-1]["done"] is True


def _rare_event_counters_progress_spans(processes):
    """A watched, traced, instrumented 8-root RESTART run."""
    from repro.core.builder import FMTBuilder
    from repro.maintenance.strategy import MaintenanceStrategy
    from repro.rareevent.estimator import RareEventConfig

    builder = FMTBuilder("markovian")
    builder.degraded_event("left", phases=3, mean=30.0)
    builder.degraded_event("right", phases=2, mean=20.0)
    builder.and_gate("top", ["left", "right"])
    mc = MonteCarlo(
        builder.build("top"),
        MaintenanceStrategy("absorbing", on_system_failure="none"),
        horizon=8.0,
        seed=9,
    )
    config = RareEventConfig(method="restart", n_roots=8, n_levels=2)
    instrumentation = Instrumentation()
    collector = SpanCollector()
    buffer = io.StringIO()
    with obs.use(instrumentation), sp.use(collector), use_progress(
        JsonlProgressReporter(stream=buffer)
    ):
        result = mc.run_rare_event(config, processes=processes)
    counters = {
        name: value
        for name, value in instrumentation.registry.to_dict()["counters"].items()
        if name.startswith(("sim.", "rare."))
    }
    events = [json.loads(line) for line in buffer.getvalue().splitlines()]
    return result, counters, events, collector.records


def test_pooled_rare_event_run_reports_what_a_serial_run_does():
    serial, serial_counters, _, _ = _rare_event_counters_progress_spans(1)
    result, counters, events, spans = _rare_event_counters_progress_spans(2)
    assert result == serial
    assert any(name.startswith("sim.") for name in serial_counters)
    assert counters == serial_counters
    # The driver reports one progress record per unit, the last done.
    units = [e for e in events if e["phase"] == "rare.units"]
    assert len(units) == len(events) == result.n_units
    assert [e["completed"] for e in units] == list(range(1, result.n_units + 1))
    assert units[-1]["done"] is True
    (run,) = [r for r in spans if r["name"] == "mc.run_rare_event"]
    chunks = [r for r in spans if r["name"] == "worker.chunk"]
    assert len(chunks) == result.n_units
    assert all(c["parent_id"] == run["span_id"] for c in chunks)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def test_mangle_metric_name_is_stable():
    assert mangle_metric_name("sim.worker.0.chunks") == "repro_sim_worker_0_chunks"
    assert mangle_metric_name("sim.trajectories", namespace="") == "sim_trajectories"
    assert mangle_metric_name("0weird", namespace="") == "_0weird"


def test_render_prometheus_families():
    registry = MetricsRegistry()
    registry.counter("sim.trajectories").inc(7)
    registry.gauge("sim.workers").set(2)
    registry.gauge("sim.workers").set(4)
    registry.timer("sim.simulate.seconds").observe(0.5)
    text = registry.render_prometheus()
    assert "# TYPE repro_sim_trajectories_total counter" in text
    assert "repro_sim_trajectories_total 7.0" in text
    assert "# TYPE repro_sim_workers gauge" in text
    assert "repro_sim_workers 4.0" in text
    assert "repro_sim_workers_min 2.0" in text
    assert "repro_sim_workers_max 4.0" in text
    assert "# TYPE repro_sim_simulate_seconds summary" in text
    assert 'repro_sim_simulate_seconds{quantile="0.5"} 0.5' in text
    assert "repro_sim_simulate_seconds_count 1.0" in text
    assert text.endswith("\n")


def test_render_prometheus_accepts_legacy_bare_gauges():
    text = render_prometheus(
        {"counters": {}, "gauges": {"depth": 3.0}, "timers": {}}
    )
    assert "repro_depth 3.0" in text


def test_metrics_server_scrapes_live_registry():
    registry = MetricsRegistry()
    registry.counter("sim.trajectories").inc(42)
    with MetricsServer(registry, port=0).start() as server:
        base = f"http://{server.host}:{server.port}"
        with urllib.request.urlopen(f"{base}/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == CONTENT_TYPE
            body = response.read().decode("utf-8")
        assert "repro_sim_trajectories_total 42.0" in body
        with urllib.request.urlopen(f"{base}/healthz") as response:
            assert json.loads(response.read()) == {"status": "ok"}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/other")
        assert excinfo.value.code == 404
        assert server.requests_served == 3


def test_metrics_server_callable_source_rereads_per_scrape(tmp_path):
    path = tmp_path / "metrics.json"
    registry = MetricsRegistry()
    registry.counter("n").inc(1)
    registry.write_json(path)

    def snapshot():
        return json.loads(path.read_text())

    with MetricsServer(snapshot, port=0).start() as server:
        url = f"http://{server.host}:{server.port}/metrics"
        with urllib.request.urlopen(url) as response:
            assert b"repro_n_total 1.0" in response.read()
        registry.counter("n").inc(1)
        registry.write_json(path)  # the file changed between scrapes
        with urllib.request.urlopen(url) as response:
            assert b"repro_n_total 2.0" in response.read()


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_progress_and_trace_out(tmp_path, capsys, maintained_tree):
    model = tmp_path / "model.fmt"
    save_file(maintained_tree, model)
    progress_path = tmp_path / "progress.jsonl"
    trace_path = tmp_path / "trace.jsonl"
    code = main([
        "simulate", str(model), "--runs", "120", "--horizon", "10",
        "--processes", "1",
        "--progress-out", str(progress_path), "--trace-out", str(trace_path),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "span records written" in captured.err
    events = [
        json.loads(line) for line in progress_path.read_text().splitlines()
    ]
    assert events and events[-1]["done"] is True
    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    names = {r["name"] for r in spans}
    assert {"study.request", "mc.run"} <= names
    ids = {r["span_id"] for r in spans}
    assert all(
        r["parent_id"] is None or r["parent_id"] in ids for r in spans
    )


def test_cli_simulates_on_a_pool_by_default(
    tmp_path, capsys, maintained_tree, monkeypatch
):
    from repro.simulation import parallel

    monkeypatch.setattr(parallel, "_available_cpu_count", lambda: 2)
    model = tmp_path / "model.fmt"
    save_file(maintained_tree, model)
    trace_path = tmp_path / "trace.jsonl"
    args = ["simulate", str(model), "--runs", "120", "--horizon", "10"]
    assert main(args + ["--trace-out", str(trace_path)]) == 0
    pooled = capsys.readouterr().out
    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    names = TallyCounter(r["name"] for r in spans)
    assert names["mc.run_parallel"] == 1 and names["worker.chunk"] >= 1
    assert "mc.run" not in names
    ids = {r["span_id"] for r in spans}
    assert all(
        r["parent_id"] is None or r["parent_id"] in ids for r in spans
    )
    assert main(args + ["--processes", "1"]) == 0
    assert capsys.readouterr().out == pooled


def test_cli_metrics_serve_requires_readable_snapshot(tmp_path, capsys):
    assert main(["metrics-serve"]) == 2
    assert "missing metrics JSON path" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["metrics-serve", str(missing), "--port", "0"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_rejects_unwritable_telemetry_paths(tmp_path, capsys):
    bad = tmp_path / "not-a-dir" / "out.jsonl"
    assert main(["table1", "--progress-out", str(bad)]) == 2
    assert "--progress-out" in capsys.readouterr().err
    assert main(["table1", "--trace-out", str(bad)]) == 2
    assert "--trace-out" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Overhead budget
# ----------------------------------------------------------------------
def test_full_telemetry_overhead_within_five_percent():
    """Spans + progress + metrics together must cost <= 5% throughput.

    Measured on the EI-joint current-policy model (the paper's main
    workload).  The legs are compared on CPU time (``process_time``) so
    scheduler preemption on shared machines does not masquerade as
    telemetry cost; plain and instrumented runs are interleaved and the
    per-leg minimum taken, the standard noise-robust estimator for
    micro-benchmarks.  The budget is re-checked on fresh measurements
    before failing, because a frequency-scaling shift mid-test can
    still exceed 5% of a sub-second leg.
    """
    import time

    from repro.eijoint.model import build_ei_joint_fmt
    from repro.eijoint.strategies import current_policy

    tree = build_ei_joint_fmt()
    policy = current_policy()
    n_runs = 300

    def measure(instrumented):
        if instrumented:
            mc = MonteCarlo(
                tree, policy, horizon=15.0, seed=2016,
                instrumentation=Instrumentation(),
            )
            collector = SpanCollector()
            reporter = JsonlProgressReporter(stream=io.StringIO())
            start = time.process_time()
            with sp.use(collector), use_progress(reporter):
                mc.run(n_runs)
            return time.process_time() - start
        mc = MonteCarlo(tree, policy, horizon=15.0, seed=2016)
        start = time.process_time()
        mc.run(n_runs)
        return time.process_time() - start

    measure(False), measure(True)  # warm caches outside the measurement
    overhead = None
    for _ in range(3):
        plain, full = [], []
        for _ in range(5):
            plain.append(measure(False))
            full.append(measure(True))
        overhead = min(full) / min(plain) - 1.0
        if overhead <= 0.05:
            break
    assert overhead <= 0.05, (
        f"full telemetry costs {overhead:.1%} throughput (budget 5%)"
    )


def test_watched_run_pays_telemetry_per_chunk_not_per_trajectory():
    """Deterministic companion of the timing test above.

    By cProfile call count, a watched 300-run ``run`` (metrics, spans
    and progress, as timed above) may make at most 10 more calls per
    trajectory than a silent one: the simulator's tallies and the
    engine's event counts reach the registry once per chunk, and the
    in-chunk progress check makes no call per trajectory.  Before
    that, the difference was about 75 calls per trajectory.
    """
    import cProfile
    import pstats

    from repro.eijoint.model import build_ei_joint_fmt
    from repro.eijoint.strategies import current_policy

    tree = build_ei_joint_fmt()
    policy = current_policy()
    n_runs = 300

    def calls(instrumented):
        profile = cProfile.Profile()
        if instrumented:
            mc = MonteCarlo(
                tree, policy, horizon=15.0, seed=2016,
                instrumentation=Instrumentation(),
            )
            reporter = JsonlProgressReporter(stream=io.StringIO())
            with sp.use(SpanCollector()), use_progress(reporter):
                profile.enable()
                result = mc.run(n_runs)
                profile.disable()
        else:
            mc = MonteCarlo(tree, policy, horizon=15.0, seed=2016)
            profile.enable()
            result = mc.run(n_runs)
            profile.disable()
        return pstats.Stats(profile).total_calls, result.summary

    silent, silent_summary = calls(False)
    watched, watched_summary = calls(True)
    assert watched_summary == silent_summary
    extra = (watched - silent) / n_runs
    assert extra <= 10, (
        f"a watched run makes {extra:.1f} more calls per trajectory "
        "than a silent one (budget 10)"
    )
