"""KPI estimators over collections of simulated trajectories.

:func:`summarize` turns raw :class:`~repro.simulation.trace.Trajectory`
records into the key performance indicators the paper analyses —
unreliability, expected number of failures, availability, and the
annual cost breakdown — each with a confidence interval.

Every estimator here accepts either a ``Sequence[Trajectory]`` or a
:class:`~repro.simulation.batch.TrajectoryBatch`; object sequences are
converted to a batch in a single pass and all arithmetic runs
vectorized over the columns.  The reductions keep the historical
left-to-right floating-point summation order (``np.cumsum``-based
sequential sums, elementwise numpy IEEE-754 ops), so the numbers are
**bit-identical** to the original per-object implementation — the
golden KPI fixtures and the batch-vs-object property tests pin this
with exact ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.errors import ValidationError
from repro.maintenance.costs import CostBreakdown
from repro.simulation.batch import COST_FIELDS, TrajectoryBatch
from repro.simulation.trace import Trajectory
from repro.stats.confidence import (
    ConfidenceInterval,
    mean_confidence_interval,
    wilson_interval,
)

__all__ = [
    "KpiSummary",
    "summarize",
    "reliability_curve",
    "availability_curve",
]

#: Either representation of a replicated study's raw material.
Trajectories = Union[Sequence[Trajectory], TrajectoryBatch]


@dataclass(frozen=True)
class KpiSummary:
    """Point estimates + confidence intervals of the standard KPIs.

    All trajectory-averaged quantities refer to the simulation horizon;
    per-year figures are annualised by dividing by the horizon.
    """

    n_runs: int
    horizon: float
    #: P(at least one system failure within the horizon).
    unreliability: ConfidenceInterval
    #: Expected number of system failures within the horizon.
    expected_failures: ConfidenceInterval
    #: Expected number of system failures per year.
    failures_per_year: ConfidenceInterval
    #: Long-run fraction of time the system is up.
    availability: ConfidenceInterval
    #: Expected total cost per year.
    cost_per_year: ConfidenceInterval
    #: Mean annual cost split by category.
    cost_breakdown_per_year: CostBreakdown
    #: Mean inspections per year actually performed.
    inspections_per_year: float
    #: Mean preventive maintenance actions per year.
    preventive_actions_per_year: float
    #: Mean corrective replacements per year.
    corrective_replacements_per_year: float

    @property
    def reliability(self) -> float:
        """Convenience: 1 - unreliability point estimate."""
        return 1.0 - self.unreliability.estimate

    @property
    def mean_failures(self) -> float:
        """Convenience: point estimate of expected failures in horizon."""
        return self.expected_failures.estimate


def _as_batch(trajectories: Trajectories, estimator: str) -> TrajectoryBatch:
    """Normalize either representation to a non-empty batch."""
    if isinstance(trajectories, TrajectoryBatch):
        if len(trajectories) == 0:
            raise ValidationError(
                f"{estimator}() needs at least one trajectory"
            )
        return trajectories
    if not trajectories:
        raise ValidationError(f"{estimator}() needs at least one trajectory")
    # Single pass over the objects; horizon consistency is validated by
    # the conversion itself.
    return TrajectoryBatch.from_trajectories(trajectories)


def _seq_sum(values: np.ndarray) -> float:
    """Strict left-to-right float64 sum (bit-identical to ``sum()``)."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def summarize(
    trajectories: Trajectories, confidence: float = 0.95
) -> KpiSummary:
    """Aggregate trajectories (or a batch of them) into a :class:`KpiSummary`.

    Raises
    ------
    ValidationError
        If ``trajectories`` is empty or horizons are inconsistent.
    """
    batch = _as_batch(trajectories, "summarize")
    n = len(batch)
    horizon = batch.horizon

    n_failures = batch.n_failures
    failed = int(np.count_nonzero(n_failures))

    if failed == 0:
        # No failures observed: the t-interval degenerates to zero
        # width at 0, claiming a certainty the data cannot support.
        # Fall back to the Wilson zero-success upper bound on the
        # failure indicator, which is exact for the mean as long as
        # multiple failures per trajectory are (as here, unobserved)
        # rare.
        upper = wilson_interval(0, n, confidence).upper
        expected_failures = ConfidenceInterval(0.0, 0.0, upper, confidence)
    else:
        expected_failures = mean_confidence_interval(
            n_failures.astype(np.float64), confidence
        )
    failures_per_year = ConfidenceInterval(
        expected_failures.estimate / horizon,
        expected_failures.lower / horizon,
        expected_failures.upper / horizon,
        confidence,
    )
    cost_total = mean_confidence_interval(batch.cost_total, confidence)
    cost_per_year = ConfidenceInterval(
        cost_total.estimate / horizon,
        cost_total.lower / horizon,
        cost_total.upper / horizon,
        confidence,
    )

    # Mean annual breakdown: sum each category column, then apply the
    # same two scale factors (1/n, then 1/horizon) the object path
    # applied via CostBreakdown.scaled().per_year().
    per_run = 1.0 / n
    per_year = 1.0 / horizon
    mean_costs = CostBreakdown(
        **{
            field: (_seq_sum(batch.costs[field]) * per_run) * per_year
            for field in COST_FIELDS
        }
    )

    return KpiSummary(
        n_runs=n,
        horizon=horizon,
        unreliability=wilson_interval(failed, n, confidence),
        expected_failures=expected_failures,
        failures_per_year=failures_per_year,
        availability=mean_confidence_interval(batch.availability, confidence),
        cost_per_year=cost_per_year,
        cost_breakdown_per_year=mean_costs,
        inspections_per_year=_count_mean(batch.n_inspections, n) / horizon,
        preventive_actions_per_year=_count_mean(batch.n_preventive_actions, n)
        / horizon,
        corrective_replacements_per_year=_count_mean(
            batch.n_corrective_replacements, n
        )
        / horizon,
    )


def _count_mean(column: np.ndarray, n: int) -> float:
    """Mean of an integer counter column (integer sums are exact)."""
    return int(np.sum(column)) / n


def _validate_grid(grid: np.ndarray, horizon: float) -> None:
    if np.any(grid < 0.0) or np.any(grid > horizon):
        raise ValidationError("time grid must lie within [0, horizon]")


def reliability_curve(
    trajectories: Trajectories,
    times: Sequence[float],
    confidence: float = 0.95,
) -> Tuple[np.ndarray, list]:
    """Empirical survival (reliability) curve over a time grid.

    The survivor counts come from one sort of the first-failure column
    plus a vectorized ``searchsorted`` over the grid — O((n + m) log n)
    instead of the historical O(n·m) per-grid-point scan — and are
    exactly the counts the scan produced.

    Returns
    -------
    (times, intervals):
        ``times`` as an array and one Wilson
        :class:`~repro.stats.confidence.ConfidenceInterval` of the
        survival probability per grid point.
    """
    batch = _as_batch(trajectories, "reliability_curve")
    first_failure = batch.first_failure
    grid = np.asarray(list(times), dtype=float)
    _validate_grid(grid, batch.horizon)
    n = len(first_failure)
    ordered = np.sort(first_failure)
    # searchsorted(side="right") counts values <= t; survivors are the
    # rest (first_failure > t), matching the historical comparison.
    survivors = n - np.searchsorted(ordered, grid, side="right")
    intervals = [
        wilson_interval(int(survived), n, confidence) for survived in survivors
    ]
    return grid, intervals


def availability_curve(
    trajectories: Sequence[Trajectory],
    times: Sequence[float],
    confidence: float = 0.95,
) -> Tuple[np.ndarray, list]:
    """Point availability A(t) = P(system up at t) over a time grid.

    Requires trajectories simulated with ``record_events=True`` (down
    intervals are reconstructed from the ``system_failure`` /
    ``system_restored`` event pairs).  Trajectories that carry an
    explicit ``events_recorded=False`` marker — including everything
    simulated with ``record_events=False`` and batch round-trips — are
    rejected outright; for hand-built records without the marker the
    check falls back to inferring it from failures without events.

    Returns
    -------
    (times, intervals):
        One Wilson interval of the up-probability per grid point.
    """
    if isinstance(trajectories, TrajectoryBatch):
        raise ValidationError(
            "availability_curve() needs Trajectory objects with recorded "
            "events; a TrajectoryBatch does not carry the event stream"
        )
    if not trajectories:
        raise ValidationError("availability_curve() needs trajectories")
    grid = np.asarray(list(times), dtype=float)
    horizon = trajectories[0].horizon
    if any(t.horizon != horizon for t in trajectories):
        raise ValidationError("trajectories have inconsistent horizons")
    _validate_grid(grid, horizon)

    starts = []
    ends = []
    for trajectory in trajectories:
        recorded = getattr(trajectory, "events_recorded", None)
        if recorded is False or (
            recorded is None and trajectory.failure_times and not trajectory.events
        ):
            raise ValidationError(
                "availability_curve() needs record_events=True "
                "(down intervals are reconstructed from events)"
            )
        down_since = None
        for event in trajectory.events:
            if event.kind == "system_failure" and down_since is None:
                down_since = event.time
            elif event.kind == "system_restored" and down_since is not None:
                starts.append(down_since)
                ends.append(event.time)
                down_since = None
        if down_since is not None:
            # Still down when observation ends: the interval is
            # right-censored, not closed at the horizon.  An open end
            # keeps the half-open membership test below truthful at
            # t == horizon (a closed end would count the system as
            # restored at the very last grid point).
            starts.append(down_since)
            ends.append(np.inf)

    n = len(trajectories)
    # Down intervals of one trajectory never overlap (failure and
    # restoration strictly alternate), so the number of intervals
    # covering t equals the number of down trajectories.  With sorted
    # endpoints that count is #{start <= t} - #{end <= t} — membership
    # is half-open (start <= t < end), so both ranks use side="right".
    # Two searchsorted passes over the whole grid replace the per-point
    # mask scan with identical integer counts.
    start_arr = np.sort(np.asarray(starts, dtype=float))
    end_arr = np.sort(np.asarray(ends, dtype=float))
    down_counts = np.searchsorted(
        start_arr, grid, side="right"
    ) - np.searchsorted(end_arr, grid, side="right")
    return grid, [
        wilson_interval(n - int(down), n, confidence) for down in down_counts
    ]
