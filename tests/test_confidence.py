"""Confidence intervals: coverage sanity, edge cases, invariants."""

import math

import numpy as np
import pytest

from repro.stats.confidence import (
    ConfidenceInterval,
    mean_confidence_interval,
    proportion_confidence_interval,
    wilson_interval,
)


def test_interval_contains():
    interval = ConfidenceInterval(0.5, 0.4, 0.6, 0.95)
    assert interval.contains(0.45)
    assert not interval.contains(0.39)


def test_interval_half_width():
    interval = ConfidenceInterval(0.5, 0.4, 0.6, 0.95)
    assert interval.half_width == pytest.approx(0.1)


def test_interval_relative_half_width():
    interval = ConfidenceInterval(2.0, 1.0, 3.0, 0.95)
    assert interval.relative_half_width == pytest.approx(0.5)


def test_interval_relative_half_width_zero_estimate():
    interval = ConfidenceInterval(0.0, -1.0, 1.0, 0.95)
    assert interval.relative_half_width == math.inf


def test_interval_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        ConfidenceInterval(0.5, 0.6, 0.4, 0.95)


def test_interval_rejects_bad_confidence():
    with pytest.raises(ValueError):
        ConfidenceInterval(0.5, 0.4, 0.6, 1.5)


def test_interval_str_mentions_confidence():
    assert "@95%" in str(ConfidenceInterval(0.5, 0.4, 0.6, 0.95))


def test_interval_str_renders_non_finite_bounds_as_na():
    """Regression: degenerate (n <= 1) intervals keep their infinite
    bounds for the stopping rules, but reports must say "n/a", not
    leak "-inf"/"inf" into tables and exports."""
    degenerate = mean_confidence_interval([3.0])
    text = str(degenerate)
    assert "inf" not in text
    assert text == "3 [n/a, n/a] @95%"
    # Finite intervals are unaffected.
    assert str(ConfidenceInterval(0.5, 0.4, 0.6, 0.95)) == "0.5 [0.4, 0.6] @95%"


def test_format_ci_renders_infinite_half_width_as_na():
    from repro.experiments.common import format_ci

    degenerate = mean_confidence_interval([3.0])
    assert format_ci(degenerate) == "3 ±n/a"
    assert format_ci(ConfidenceInterval(0.5, 0.4, 0.6, 0.95)) == "0.5 ±0.1"


def test_summarize_single_run_has_no_inf_in_rendering():
    """One replication end to end: the KPI table text stays inf-free."""
    from repro.core.builder import FMTBuilder
    from repro.maintenance.strategy import MaintenanceStrategy
    from repro.simulation.montecarlo import MonteCarlo

    builder = FMTBuilder("single")
    builder.degraded_event("w", phases=2, mean=2.0, threshold=1)
    builder.or_gate("top", ["w"])
    tree = builder.build("top")
    summary = MonteCarlo(
        tree, MaintenanceStrategy.none(), horizon=10.0, seed=0
    ).run(1).summary
    assert summary.failures_per_year.lower == -math.inf  # kept for stopping
    for name in ("failures_per_year", "cost_per_year", "expected_failures"):
        assert "inf" not in str(getattr(summary, name))


def test_mean_ci_centers_on_mean():
    interval = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
    assert interval.estimate == pytest.approx(2.5)
    assert interval.lower < 2.5 < interval.upper


def test_mean_ci_empty():
    interval = mean_confidence_interval([])
    assert interval.lower == -math.inf and interval.upper == math.inf


def test_mean_ci_single_sample_is_unbounded():
    interval = mean_confidence_interval([3.0])
    assert interval.estimate == 3.0
    assert interval.lower == -math.inf


def test_mean_ci_constant_samples_zero_width():
    interval = mean_confidence_interval([2.0] * 10)
    assert interval.half_width == pytest.approx(0.0)


def test_mean_ci_width_shrinks_with_n(rng):
    small = mean_confidence_interval(list(rng.normal(size=50)))
    large = mean_confidence_interval(list(rng.normal(size=5000)))
    assert large.half_width < small.half_width


def test_mean_ci_coverage_on_normal(rng):
    hits = 0
    trials = 300
    for _ in range(trials):
        samples = rng.normal(loc=1.0, size=30)
        if mean_confidence_interval(list(samples), 0.95).contains(1.0):
            hits += 1
    assert hits / trials > 0.88


def test_wilson_point_estimate():
    interval = wilson_interval(30, 100)
    assert interval.estimate == pytest.approx(0.3)


def test_wilson_bounds_stay_in_unit_interval():
    for successes, trials in [(0, 10), (10, 10), (1, 1000), (999, 1000)]:
        interval = wilson_interval(successes, trials)
        assert 0.0 <= interval.lower <= interval.upper <= 1.0


def test_wilson_zero_successes_has_positive_upper():
    interval = wilson_interval(0, 50)
    assert interval.lower == pytest.approx(0.0, abs=1e-12)
    assert interval.upper > 0.0


def test_wilson_zero_trials_degenerates():
    interval = wilson_interval(0, 0)
    assert interval.lower == 0.0 and interval.upper == 1.0


def test_wilson_rejects_bad_counts():
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        wilson_interval(-1, 3)


def test_wilson_coverage_on_binomial(rng):
    p = 0.07
    hits = 0
    trials = 300
    for _ in range(trials):
        successes = rng.binomial(200, p)
        if wilson_interval(int(successes), 200, 0.95).contains(p):
            hits += 1
    assert hits / trials > 0.88


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_special_quantiles_equal_scipy_stats_ppf(confidence):
    """The intervals take their quantiles from ``scipy.special``.

    ``stdtrit(df, q)`` and ``ndtri(q)`` are what ``scipy.stats``' ``t.ppf``
    and ``norm.ppf`` evaluate; pinned equal to the bit so that a scipy
    release that parts them fails here instead of moving a bound.
    """
    from scipy import special, stats

    q = 0.5 + 0.5 * confidence
    df = np.concatenate([np.arange(1, 5001), [10**5, 10**6]])
    assert np.array_equal(special.stdtrit(df, q), stats.t.ppf(q, df))
    assert special.ndtri(q) == stats.norm.ppf(q)


def test_proportion_ci_is_wilson():
    assert proportion_confidence_interval(3, 10) == wilson_interval(3, 10)
