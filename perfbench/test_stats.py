"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import os
from types import SimpleNamespace

import pytest

import layers
import service
import stats
from workloads import FREQUENCIES, HERE, ROOT


def test_tail_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(19) == 50.0  # only 9 beyond the median
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(99) == 50.0  # p90 would leave 9 beyond
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(10_000) == 90.0


def test_nearest_rank_is_exact_for_decimal_percentiles():
    # 99.9% of 10000 is rank 9990 (floating point gives 9990.000000000002).
    assert stats.percentile(list(range(1, 10_001)), 99.9) == 9990


def test_tail_is_nearest_rank_with_ten_beyond():
    samples = list(range(1, 101))  # 1..100
    timing = stats.timing(samples)
    assert timing["tail_q"] == 90.0
    assert timing["tail"] == 90
    assert sum(1 for s in samples if s > timing["tail"]) == 10
    assert timing["p50"] == 50.5
    assert timing["n"] == 100


def test_time_to_precision_scales_with_squared_half_width():
    # 2 s at 2% -> 4x the runs for 1% -> 8 s; 1 s already at 1% -> 1 s.
    assert stats.time_to_precision([(2.0, 0.02), (1.0, 0.01)]) == pytest.approx(9.0)
    # Halving the runs halves wall time but raises rhw by sqrt(2): same cost.
    full = stats.time_to_precision([(4.0, 0.01)])
    half = stats.time_to_precision([(2.0, 0.01 * math.sqrt(2.0))])
    assert half == pytest.approx(full)


def test_grid_time_to_precision_pools_each_policy_over_sweeps():
    # One sweep: the same as time_to_precision over the grid.
    assert stats.grid_time_to_precision([[2.0], [1.0]], [[0.02], [0.01]]) == (
        pytest.approx(stats.time_to_precision([(2.0, 0.02), (1.0, 0.01)]))
    )
    # Median wall times mean squared half-width: 2 s x mean(4, 1, 7) + 1 s x 1.
    walls = [[1.0, 2.0, 9.0], [1.0, 1.0, 1.0]]
    rhws = [[0.02, 0.01, 0.01 * math.sqrt(7.0)], [0.01, 0.01, 0.01]]
    assert stats.grid_time_to_precision(walls, rhws) == pytest.approx(2.0 * 4.0 + 1.0)


def test_windowed_rate_is_the_median_window():
    # 6 s in 3 windows of 2 s: 4, 1 and 6 events; the late one counts last.
    times = [0.1, 0.5, 1.0, 1.9, 2.5, 4.0, 4.5, 5.0, 5.5, 5.9, 6.2]
    assert stats.windowed_rate(times, 6.0, 3) == pytest.approx(2.0)
    # A slow spell in one window leaves the median alone.
    steady = [i / 10 for i in range(60)]
    stalled = [t for t in steady if not 2.0 <= t < 4.0]
    assert stats.windowed_rate(stalled, 6.0, 3) == stats.windowed_rate(steady, 6.0, 3)


def test_critical_path_follows_a_miss_through_its_job():
    post, poll = "POST /v1/studies 00000001", "GET /v1/studies/j 00000000"

    def span(layer, name, start, seconds, self_s, thread, top=True, tag=None):
        return layers.Span(layer, name, seconds, self_s, top, 0, thread, start, tag)

    spans = [
        span("service", "StudyService.handle", 0.0, 1.0, 0.8, 1, tag=post),
        span("service", "app.decode_wire", 0.2, 0.2, 0.2, 1, top=False),
        span("studies", "StudyRunner.summary", 1.5, 3.0, 1.0, 2, tag="42"),
        span("vectorized", "VectorizedKernel.simulate_chunk", 2.0, 2.0, 2.0, 2, top=False),
        span("service", "StudyService.handle", 2.0, 0.1, 0.1, 3, tag=poll),
        span("service", "StudyService.handle", 5.0, 0.1, 0.1, 3, tag=poll),
    ]
    miss = {
        "kind": "miss",
        "key": 42,
        "calls": [(post, -0.1, 1.1), (poll, 1.9, 2.2), (poll, 4.9, 5.2)],
    }
    lost = {"kind": "hit", "key": 0, "calls": [(post, 6.0, 6.5)]}
    trees = layers.subtrees(spans)
    assert service.critical_path([miss, lost], trees) == 1
    # The poll during the job waits alongside it and is left out.
    assert [s.start for s in miss["path"]] == [0.0, 1.5, 5.0]
    assert miss["job_span"].tag == "42" and lost["path"] == []
    split = layers.self_seconds(s for top in miss["path"] for s in trees[top])
    assert split["service"] == pytest.approx(0.8 + 0.2 + 0.1)
    assert split["studies"] == pytest.approx(1.0)
    assert split["vectorized"] == pytest.approx(2.0)


def test_relative_half_width_of_zero_estimate_is_infinite():
    assert stats.relative_half_width(0.0, 1.0) == math.inf
    assert stats.relative_half_width(-200.0, 10.0) == pytest.approx(0.05)


def test_standard_error_inverts_student_t_half_width():
    # t(0.975, df=9) = 2.2622
    assert stats.standard_error(2.2622, 10, 0.95) == pytest.approx(1.0, rel=1e-4)
    assert stats.standard_error(1.0, 1, 0.95) == math.inf


def test_kpi_errors_reads_failures_and_cost_of_a_summary():
    def ci(estimate, half_width):
        return SimpleNamespace(
            estimate=estimate, half_width=half_width, confidence=0.95
        )

    summary = SimpleNamespace(
        n_runs=10,
        failures_per_year=ci(0.1, 0.22622),
        cost_per_year=ci(700.0, 22.622),
    )
    errors = stats.kpi_errors(summary)
    assert sorted(errors) == ["cost_per_year", "failures_per_year"]
    assert errors["failures_per_year"] == (0.1, pytest.approx(0.1, rel=1e-4))
    assert errors["cost_per_year"] == (700.0, pytest.approx(10.0, rel=1e-4))


def test_reference_check_uses_combined_standard_errors():
    row = {"cost_per_year": 100.0, "cost_per_year_se": 3.0}
    # 4 SE study + 3 SE reference combine to 5; 25 away is exactly 5 SE.
    assert stats.reference_failures({"cost_per_year": (125.0, 4.0)}, row) == []
    problems = stats.reference_failures({"cost_per_year": (125.5, 4.0)}, row)
    assert len(problems) == 1 and "cost_per_year" in problems[0]
    # A non-finite estimate or SE never passes.
    assert stats.reference_failures({"cost_per_year": (math.nan, 4.0)}, row)


def test_optimum_must_be_the_expected_point_or_a_neighbour():
    grid = FREQUENCIES
    base = {f: 1000.0 + abs(f - 4.0) for f in grid}
    assert stats.optimum_ok(base, 4.0, grid)
    assert stats.optimum_ok({**base, 2.0: 900.0}, 4.0, grid)
    assert stats.optimum_ok({**base, 6.0: 900.0}, 4.0, grid)
    assert not stats.optimum_ok({**base, 1.0: 900.0}, 4.0, grid)
    assert not stats.optimum_ok({**base, 12.0: 900.0}, 4.0, grid)


def test_tally_counts_each_failed_operation_once():
    tally = stats.Tally()
    ops = [tally.attempt() for _ in range(4)]
    tally.fail(ops[1], "non-2xx")
    tally.fail(ops[1], "reference")
    tally.fail(ops[3], "timeout")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.reasons() == ["non-2xx", "timeout"]
    line = stats.result_line(tally.attempted, tally.failed, {"x_s": (1.5, "s")})
    assert line == {
        "correct": False,
        "attempted": 4,
        "failed": 2,
        "metrics": {"x_s": {"value": 1.5, "unit": "s"}},
    }
    assert stats.result_line(3, 0, {})["correct"] is True


def test_reference_table_covers_the_grid_and_the_service_study():
    with open(os.path.join(HERE, "reference.json")) as handle:
        table = json.load(handle)
    rows = table["grid"]["rows"]
    assert sorted(rows, key=float) == [f"{f:g}" for f in FREQUENCIES]
    for row in list(rows.values()) + [table["service"]["row"]]:
        for name in ("failures_per_year", "cost_per_year"):
            assert row[f"{name}_se"] > 0
    costs = {f: rows[f"{f:g}"]["cost_per_year"] for f in FREQUENCIES}
    assert stats.optimum_ok(costs, 4.0, FREQUENCIES)


def test_benchmark_spec_names_every_metric_once():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == [
        "sweep-object",
        "sweep-vectorized-pool",
        "service-mixed",
    ]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
