"""Expert-judgment elicitation and aggregation.

Where incident data is too sparse (rare failure modes), the paper's
parameters came from structured interviews with maintenance engineers.
The standard elicitation protocol asks each expert for quantiles of the
quantity of interest (e.g. "in how many years would 5% / 50% / 95% of
joints show this defect?"); this module aggregates the answers across
experts and fits an Erlang degradation model to the agreed quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import EstimationError
from repro.stats.distributions import Erlang

__all__ = ["ExpertJudgment", "aggregate_judgments", "fit_erlang_to_quantiles"]


@dataclass(frozen=True)
class ExpertJudgment:
    """One expert's quantile assessments of a lifetime (years).

    ``quantiles`` maps probability levels in (0, 1) to assessed times;
    ``weight`` allows performance-based (Cooke-style) weighting, with
    equal weights as the default protocol.
    """

    expert: str
    quantiles: Mapping[float, float]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.quantiles:
            raise EstimationError(f"{self.expert}: no quantiles given")
        previous_level, previous_value = -1.0, 0.0
        for level in sorted(self.quantiles):
            value = self.quantiles[level]
            if not 0.0 < level < 1.0:
                raise EstimationError(
                    f"{self.expert}: quantile level {level} not in (0, 1)"
                )
            if value <= 0.0 or not math.isfinite(value):
                raise EstimationError(
                    f"{self.expert}: quantile value {value} must be positive"
                )
            if level > previous_level and value < previous_value:
                raise EstimationError(
                    f"{self.expert}: quantiles must be non-decreasing"
                )
            previous_level, previous_value = level, value
        if self.weight <= 0.0:
            raise EstimationError(f"{self.expert}: weight must be positive")


def aggregate_judgments(
    judgments: Sequence[ExpertJudgment],
) -> Dict[float, float]:
    """Weight-averaged quantiles over the levels all experts assessed.

    Only levels present in *every* judgment are aggregated (mixing
    levels would silently compare different questions).
    """
    if not judgments:
        raise EstimationError("no judgments to aggregate")
    common = set(judgments[0].quantiles)
    for judgment in judgments[1:]:
        common &= set(judgment.quantiles)
    if not common:
        raise EstimationError("experts share no common quantile levels")
    total_weight = sum(j.weight for j in judgments)
    return {
        level: sum(j.weight * j.quantiles[level] for j in judgments) / total_weight
        for level in sorted(common)
    }


def fit_erlang_to_quantiles(
    quantiles: Mapping[float, float],
    max_phases: int = 12,
) -> Erlang:
    """Fit an Erlang lifetime to elicited quantiles.

    For each candidate phase count the rate is optimised to minimise
    the squared relative error between the Erlang quantile function and
    the elicited values; the phase count with the smallest residual
    wins.  Relative (log-space) error keeps the long right tail from
    dominating the fit.
    """
    if len(quantiles) < 2:
        raise EstimationError("need at least two quantiles to fit a shape")
    levels = sorted(quantiles)
    targets = [quantiles[level] for level in levels]
    if any(t <= 0.0 for t in targets):
        raise EstimationError("quantile values must be positive")

    from scipy import optimize, stats as sps

    best: Optional[Tuple[float, int, float]] = None
    for shape in range(1, max_phases + 1):

        def residual(log_rate: float, shape: int = shape) -> float:
            rate = math.exp(log_rate)
            total = 0.0
            for level, target in zip(levels, targets):
                predicted = sps.gamma.ppf(level, a=shape, scale=1.0 / rate)
                total += (math.log(predicted) - math.log(target)) ** 2
            return total

        # Initial guess: match the median.
        median_target = targets[len(targets) // 2]
        rough_rate = shape / max(median_target, 1e-12)
        result = optimize.minimize_scalar(
            residual,
            bracket=(math.log(rough_rate) - 2.0, math.log(rough_rate) + 2.0),
        )
        if not result.success:  # pragma: no cover - optimizer rarely fails
            continue
        score = float(result.fun)
        if best is None or score < best[0]:
            best = (score, shape, math.exp(float(result.x)))
    if best is None:
        raise EstimationError("Erlang quantile fit did not converge")
    return Erlang(shape=best[1], rate=best[2])
