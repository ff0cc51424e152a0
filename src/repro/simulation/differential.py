"""Differential validation of the vectorized kernel against the object engine.

The object engine (:mod:`repro.simulation.executor`) is the correctness
oracle: every semantic detail — phase-type sampling, RDEP acceleration,
inspection thresholds, renewal, cost discounting — is implemented once
there, in readable per-trajectory form, and pinned by golden fixtures.
The lockstep kernel (:mod:`repro.simulation.vectorized`) draws the same
distributions in a different order, so its trajectories cannot be
compared seed-for-seed; what must hold is *distributional* equivalence:

* the empirical distributions of the per-trajectory first-failure time
  and total cost are indistinguishable (two-sample Kolmogorov–Smirnov
  test at a configurable significance level);
* every headline KPI interval of one kernel overlaps the other's
  (unreliability, failures/year, availability, cost/year).

:func:`compare_kernels` runs both kernels from the same root seed and
packages the evidence in a :class:`KernelComparisonReport`; the test
suite and the CI parity smoke call it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.simulation.metrics import KpiSummary, summarize
from repro.stats.confidence import ConfidenceInterval

__all__ = ["KernelComparisonReport", "KsResult", "compare_kernels", "intervals_overlap"]

#: Fewer finite samples than this on either side and the KS test is
#: skipped (recorded as None): the asymptotic p-value is meaningless and
#: the CI-overlap checks already cover the censoring proportion.
MIN_KS_SAMPLES = 5


@dataclass(frozen=True)
class KsResult:
    """One two-sample Kolmogorov–Smirnov comparison."""

    column: str
    statistic: float
    pvalue: float
    n_object: int
    n_vectorized: int

    def passed(self, alpha: float) -> bool:
        return self.pvalue >= alpha


@dataclass(frozen=True)
class KernelComparisonReport:
    """Evidence that the two kernels agree distributionally.

    ``passed`` is the conjunction of every KS test clearing ``alpha``
    and every KPI interval pair overlapping.  ``fallback_reason`` is
    non-None when the model routes the vectorized path through the
    object engine anyway — the comparison then degenerates to
    object-vs-object and ``passed`` is trivially informative only about
    the plumbing.
    """

    n_runs: int
    seed: int
    alpha: float
    fallback_reason: Optional[str]
    ks: Tuple[KsResult, ...]
    kpi_overlap: Dict[str, bool]
    object_summary: KpiSummary
    vectorized_summary: KpiSummary
    passed: bool

    def describe(self) -> str:
        """Human-readable one-paragraph verdict (for CI logs)."""
        lines = [
            f"kernel differential: n={self.n_runs} seed={self.seed} "
            f"alpha={self.alpha:g} -> {'PASS' if self.passed else 'FAIL'}"
        ]
        if self.fallback_reason is not None:
            lines.append(f"  (vectorized fell back: {self.fallback_reason})")
        for result in self.ks:
            lines.append(
                f"  ks[{result.column}]: D={result.statistic:.4f} "
                f"p={result.pvalue:.4g} "
                f"({result.n_object}/{result.n_vectorized} samples)"
            )
        for name, overlap in sorted(self.kpi_overlap.items()):
            lines.append(f"  ci[{name}]: {'overlap' if overlap else 'DISJOINT'}")
        return "\n".join(lines)


def intervals_overlap(a: ConfidenceInterval, b: ConfidenceInterval) -> bool:
    """Whether two confidence intervals share at least one point."""
    return a.lower <= b.upper and b.lower <= a.upper


def _ks(column: str, left: np.ndarray, right: np.ndarray) -> Optional[KsResult]:
    left = left[np.isfinite(left)]
    right = right[np.isfinite(right)]
    if len(left) < MIN_KS_SAMPLES or len(right) < MIN_KS_SAMPLES:
        return None
    from scipy.stats import ks_2samp

    outcome = ks_2samp(left, right)
    return KsResult(
        column=column,
        statistic=float(outcome.statistic),
        pvalue=float(outcome.pvalue),
        n_object=len(left),
        n_vectorized=len(right),
    )


def compare_kernels(
    tree,
    strategy,
    horizon: float,
    cost_model=None,
    n_runs: int = 2000,
    seed: int = 0,
    confidence: float = 0.95,
    alpha: float = 1e-3,
) -> KernelComparisonReport:
    """Run both kernels from the same root seed and compare distributions.

    Parameters mirror :class:`~repro.simulation.montecarlo.MonteCarlo`;
    ``alpha`` is the KS significance level — the null hypothesis is
    "same distribution", so a *correct* kernel fails a level-``alpha``
    test with probability ``alpha`` per column, which is why the
    default is conservative.
    """
    from repro.maintenance.costs import CostModel
    from repro.simulation.executor import FMTSimulator, SimulationConfig
    from repro.simulation.montecarlo import MonteCarlo
    from repro.simulation.vectorized import vectorized_fallback_reason

    if n_runs < 2:
        raise ValidationError(f"n_runs must be >= 2, got {n_runs}")

    resolved_costs = cost_model if cost_model is not None else CostModel()
    batches = {}
    fallback = None
    for kernel in ("object", "vectorized"):
        simulator = FMTSimulator(
            tree,
            strategy,
            config=SimulationConfig(
                horizon=horizon, cost_model=resolved_costs, kernel=kernel
            ),
        )
        if kernel == "vectorized":
            fallback = vectorized_fallback_reason(simulator)
        # Same root seed on both sides, run by a MonteCarlo driver, so
        # each column equals that kernel's run() bit for bit.
        batches[kernel] = (
            MonteCarlo(simulator=simulator, seed=seed).run(n_runs).batch
        )

    obj, vec = batches["object"], batches["vectorized"]
    ks_results = tuple(
        result
        for result in (
            _ks("first_failure", obj.first_failure, vec.first_failure),
            _ks("cost_total", obj.cost_total, vec.cost_total),
        )
        if result is not None
    )

    obj_summary = summarize(obj, confidence=confidence)
    vec_summary = summarize(vec, confidence=confidence)
    kpi_overlap = {
        name: intervals_overlap(
            getattr(obj_summary, name), getattr(vec_summary, name)
        )
        if math.isfinite(getattr(obj_summary, name).estimate)
        and math.isfinite(getattr(vec_summary, name).estimate)
        else False
        for name in (
            "unreliability",
            "failures_per_year",
            "availability",
            "cost_per_year",
        )
    }

    passed = all(result.passed(alpha) for result in ks_results) and all(
        kpi_overlap.values()
    )
    return KernelComparisonReport(
        n_runs=n_runs,
        seed=seed,
        alpha=alpha,
        fallback_reason=fallback,
        ks=ks_results,
        kpi_overlap=kpi_overlap,
        object_summary=obj_summary,
        vectorized_summary=vec_summary,
        passed=passed,
    )
