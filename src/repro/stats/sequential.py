"""Streaming statistics and sequential stopping for Monte Carlo runs.

:class:`RunningStatistics` implements Welford's online algorithm so the
Monte Carlo driver never has to keep per-run sample arrays in memory.
:class:`RelativePrecisionRule` wraps the standard "run until the CI
half-width is below x% of the estimate" stopping rule used by
statistical model checkers, with a minimum-sample guard so the rule
cannot fire on noise from the first few runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.stats.confidence import ConfidenceInterval

__all__ = ["RunningStatistics", "RelativePrecisionRule"]


@dataclass
class RunningStatistics:
    """Welford online mean/variance accumulator."""

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def extend(self, values) -> None:
        """Fold an iterable of observations."""
        for value in values:
            self.add(value)

    @property
    def variance(self) -> float:
        """Unbiased sample variance; 0.0 with fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std_error(self) -> float:
        """Standard error of the mean."""
        if self.count < 1:
            return math.inf
        return math.sqrt(self.variance / self.count)

    def confidence_interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Student-t interval around the running mean."""
        if self.count < 2:
            return ConfidenceInterval(self.mean, -math.inf, math.inf, confidence)
        from scipy.special import stdtrit

        critical = float(stdtrit(self.count - 1, 0.5 + 0.5 * confidence))
        half = critical * self.std_error
        return ConfidenceInterval(
            self.mean, self.mean - half, self.mean + half, confidence
        )

    def merge(self, other: "RunningStatistics") -> "RunningStatistics":
        """Combine two accumulators (Chan's parallel update)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.mean += delta * other.count / total
        self.count = total
        return self


@dataclass
class RelativePrecisionRule:
    """Stop when the CI half-width is within ``relative_error`` of the mean.

    Parameters
    ----------
    relative_error:
        Target relative half-width, e.g. ``0.05`` for +/-5%.
    confidence:
        Confidence level of the interval the rule checks.
    min_samples:
        Never stop before this many samples have been observed.
    max_samples:
        Always stop once this many samples have been observed (a budget
        guard for estimates whose true value is zero, where the relative
        criterion can never be met).
    """

    relative_error: float = 0.05
    confidence: float = 0.95
    min_samples: int = 100
    max_samples: int = 1_000_000

    def __post_init__(self) -> None:
        if self.relative_error <= 0.0:
            raise ValueError(f"relative_error must be > 0, got {self.relative_error}")
        if self.min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {self.min_samples}")
        if self.max_samples < self.min_samples:
            raise ValueError("max_samples must be >= min_samples")

    def should_stop(self, statistics: RunningStatistics) -> bool:
        """Whether sampling can stop given the accumulated statistics."""
        if statistics.count >= self.max_samples:
            return True
        if statistics.count < self.min_samples:
            return False
        interval = statistics.confidence_interval(self.confidence)
        return interval.relative_half_width <= self.relative_error
