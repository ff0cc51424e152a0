"""Confidence intervals for Monte Carlo estimators.

The simulator reports every KPI as a point estimate together with a
:class:`ConfidenceInterval`.  Means use the Student-t interval;
probabilities (reliability estimates) use the Wilson score interval,
which behaves sensibly for probabilities near 0 or 1 where the normal
approximation collapses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ConfidenceInterval",
    "mean_confidence_interval",
    "proportion_confidence_interval",
    "wilson_interval",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a point estimate."""

    estimate: float
    lower: float
    upper: float
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.lower > self.upper:
            raise ValueError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return 0.5 * (self.upper - self.lower)

    @property
    def relative_half_width(self) -> float:
        """Half-width divided by |estimate|; ``inf`` for a zero estimate."""
        if self.estimate == 0.0:
            return math.inf
        return self.half_width / abs(self.estimate)

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval (inclusive)."""
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        # Degenerate intervals (n <= 1) carry infinite bounds so the
        # sequential stopping rules keep iterating; reports render them
        # as "n/a" instead of leaking "-inf" into tables and exports.
        pct = 100.0 * self.confidence
        lower = f"{self.lower:.6g}" if math.isfinite(self.lower) else "n/a"
        upper = f"{self.upper:.6g}" if math.isfinite(self.upper) else "n/a"
        return f"{self.estimate:.6g} [{lower}, {upper}] @{pct:.0f}%"


def mean_confidence_interval(
    samples: Union[Sequence[float], np.ndarray], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of ``samples``.

    Accepts any 1-D array-like; a float64 numpy array is consumed
    without conversion, which is what the columnar KPI path hands in.
    The reductions run at C speed but in strict left-to-right order
    (``np.cumsum``), so the result is bit-identical to the historical
    ``sum()``-based implementation for the same values — the golden
    KPI fixtures pin this.

    With fewer than two samples the interval degenerates to
    ``(-inf, inf)`` around the single observation (or 0 for no samples),
    which keeps sequential-stopping loops simple: they just keep going.
    """
    values = np.asarray(samples, dtype=np.float64)
    n = int(values.size)
    if n == 0:
        return ConfidenceInterval(0.0, -math.inf, math.inf, confidence)
    mean = float(np.cumsum(values)[-1]) / n
    if n == 1:
        return ConfidenceInterval(mean, -math.inf, math.inf, confidence)
    deviations = values - mean
    variance = float(np.cumsum(deviations * deviations)[-1]) / (n - 1)
    half = _t_half_width(n, variance, confidence)
    return ConfidenceInterval(mean, mean - half, mean + half, confidence)


def _t_half_width(n: int, variance: float, confidence: float) -> float:
    if variance <= 0.0:
        return 0.0
    from scipy.special import stdtrit

    critical = stdtrit(n - 1, 0.5 + 0.5 * confidence)
    return float(critical) * math.sqrt(variance / n)


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Wilson score interval for a binomial proportion.

    Preferred over the Wald interval because it never escapes ``[0, 1]``
    and has reasonable coverage for extreme proportions, which is the
    common case when estimating small unreliabilities.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts: {successes} successes of {trials} trials")
    if trials == 0:
        return ConfidenceInterval(0.0, 0.0, 1.0, confidence)
    from scipy.special import ndtri

    z = float(ndtri(0.5 + 0.5 * confidence))
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    spread = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    lower = max(0.0, center - spread)
    upper = min(1.0, center + spread)
    return ConfidenceInterval(p_hat, lower, upper, confidence)


def proportion_confidence_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> ConfidenceInterval:
    """Alias for :func:`wilson_interval`, the library's default choice."""
    return wilson_interval(successes, trials, confidence)
