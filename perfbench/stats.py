"""The benchmark's own arithmetic: percentiles, precision cost, checks.

Nothing here imports the program, so these helpers are tested on
their own (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Percentiles a tail may be reported at, highest last.  The ladder
#: stops at p90: a run's sample count moves with the host's speed, and
#: at this benchmark's counts (a few hundred to about 1300) a p99 rung
#: would make a tail switch percentile from run to run.
TAIL_LADDER = (50.0, 90.0)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10
#: Target relative 95% half-width of ``time_to_1pct_s``.
TARGET_RELATIVE_HALF_WIDTH = 0.01
#: A study passes when it lies this many combined SEs from its row.
REFERENCE_TOLERANCE_SE = 5.0


def _rank(q: float, n: int) -> int:
    """Nearest rank of the ``q``-th percentile among ``n`` samples."""
    # Rounded first, so 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(q, len(samples)) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with >= MIN_BEYOND samples beyond it.

    With nearest ranks, ``n - rank`` samples lie beyond the ``q``-th
    percentile.  Below ``2 * MIN_BEYOND`` samples no
    percentile qualifies and the tail collapses to the median.
    """
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= MIN_BEYOND:
            chosen = q
    return chosen


def timing(samples: Sequence[float]) -> Dict[str, float]:
    """Median, tail and the tail's percentile of a timing sample."""
    q = tail_percentile(len(samples))
    p50 = statistics.median(samples)
    return {
        "p50": p50,
        "tail": p50 if q == 50.0 else percentile(samples, q),
        "tail_q": q,
        "n": len(samples),
    }


def windowed_rate(times: Sequence[float], seconds: float, windows: int) -> float:
    """Median over ``windows`` equal windows of ``[0, seconds]`` of events per second.

    ``times`` are the events' offsets from the start; one at or past
    ``seconds`` counts in the last window.
    """
    width = seconds / windows
    counts = [0] * windows
    for t in times:
        counts[min(int(t / width), windows - 1)] += 1
    return statistics.median(c / width for c in counts)


def relative_half_width(estimate: float, half_width: float) -> float:
    """Half-width over |estimate|; infinite for a zero estimate."""
    if estimate == 0.0:
        return math.inf
    return abs(half_width / estimate)


def time_to_precision(
    studies: Iterable[Tuple[float, float]],
    target: float = TARGET_RELATIVE_HALF_WIDTH,
) -> float:
    """Seconds to pin every study's estimate to ``target``.

    ``studies`` yields ``(wall seconds, relative half-width)`` pairs.
    A half-width shrinks as 1/sqrt(runs), so reaching ``target`` costs
    ``wall * (rhw / target) ** 2`` per study; the grid costs the sum.
    """
    return sum(wall * (rhw / target) ** 2 for wall, rhw in studies)


def grid_time_to_precision(
    walls: Sequence[Sequence[float]],
    half_widths: Sequence[Sequence[float]],
    target: float = TARGET_RELATIVE_HALF_WIDTH,
) -> float:
    """:func:`time_to_precision` of a grid swept several times.

    ``walls[p]`` and ``half_widths[p]`` hold policy ``p``'s study wall
    seconds and relative half-widths, one per sweep.  Each policy costs
    its median wall times the mean over sweeps of ``(rhw / target)**2``:
    a squared half-width is a variance estimate, so its mean pools the
    sweeps' samples, and one study's sampling noise moves it less.
    """
    return sum(
        statistics.median(wall) * statistics.fmean((r / target) ** 2 for r in rhw)
        for wall, rhw in zip(walls, half_widths)
    )


def standard_error(half_width: float, n: int, confidence: float) -> float:
    """Standard error behind a Student-t confidence half-width."""
    if n < 2 or not math.isfinite(half_width):
        return math.inf
    from scipy.stats import t

    return half_width / float(t.ppf(0.5 + 0.5 * confidence, df=n - 1))


def kpi_errors(summary) -> Dict[str, Tuple[float, float]]:
    """``(estimate, standard error)`` of a KPI summary's checked KPIs."""
    return {
        name: (
            ci.estimate,
            standard_error(ci.half_width, summary.n_runs, ci.confidence),
        )
        for name, ci in (
            ("failures_per_year", summary.failures_per_year),
            ("cost_per_year", summary.cost_per_year),
        )
    }


def reference_deviation(
    estimate: float, se: float, ref_estimate: float, ref_se: float
) -> float:
    """Distance from the reference in combined standard errors."""
    combined = math.hypot(se, ref_se)
    if combined == 0.0:
        return 0.0 if estimate == ref_estimate else math.inf
    return abs(estimate - ref_estimate) / combined


def reference_failures(
    kpis: Mapping[str, Tuple[float, float]],
    row: Mapping[str, float],
    tolerance: float = REFERENCE_TOLERANCE_SE,
) -> List[str]:
    """KPIs of one study that lie outside ``tolerance`` SEs of ``row``.

    ``kpis`` maps a KPI name (``failures_per_year``, ``cost_per_year``)
    to ``(estimate, standard error)``; ``row`` holds ``<name>`` and
    ``<name>_se`` for the same names.
    """
    failures = []
    for name, (estimate, se) in kpis.items():
        z = reference_deviation(estimate, se, row[name], row[f"{name}_se"])
        if not z <= tolerance:
            failures.append(f"{name} {estimate:.6g} is {z:.1f} SE from {row[name]:.6g}")
    return failures


def optimum_ok(
    costs: Mapping[float, float], expected: float, grid: Sequence[float]
) -> bool:
    """Whether the cost-minimising grid point is ``expected`` or a neighbour."""
    ordered = sorted(grid)
    best = min(ordered, key=lambda f: costs[f])
    index = ordered.index(expected)
    return best in ordered[max(0, index - 1): index + 2]


class Tally:
    """Operations attempted and failed, with the reason for each failure.

    An operation is one submission (a study asked of the runner, or a
    POST to the service).  It fails on a non-2xx answer, a refusal, a
    timeout, or a failed output check; failing twice counts once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ids: Dict[int, str] = {}

    def attempt(self) -> int:
        """Record one attempt; returns its id for :meth:`fail`."""
        self.attempted += 1
        return self.attempted

    def fail(self, op_id: int, reason: str) -> None:
        self.failed_ids.setdefault(op_id, reason)

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def reasons(self, limit: int = 5) -> List[str]:
        return list(self.failed_ids.values())[:limit]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 for an empty denominator."""
    return numerator / denominator if denominator else 0.0


def result_line(
    attempted: int, failed: int, metrics: Mapping[str, Tuple[float, str]]
) -> Dict[str, object]:
    """The result object printed as the last line of standard output.

    The outputs are correct when at least one operation was attempted
    and none failed.
    """
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def peak_rss_mb(self_kb: int, children_kb: int, children: int) -> float:
    """Peak resident MB of a process plus ``children`` like its largest child.

    ``getrusage`` reports the calling process's own peak and, for its
    waited-for children, only the largest one's peak, so the children
    are counted as that many copies of the largest.
    """
    return (self_kb + children * children_kb) / 1024.0

