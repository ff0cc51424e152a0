"""Parameter estimation from incident data.

Maximum-likelihood fitting of the lifetime distributions used by the
FMT formalism, with right-censoring support (assets still alive at the
end of the observation window), Poisson rate estimation with exact
confidence intervals, and a reconstruction step that turns a maintained
asset's event stream back into component lifetime observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.incidents import IncidentDatabase
from repro.errors import EstimationError
from repro.stats.confidence import ConfidenceInterval
from repro.stats.distributions import Erlang, Exponential, Weibull

__all__ = [
    "fit_exponential",
    "fit_erlang",
    "fit_erlang_censored",
    "fit_weibull",
    "erlang_log_likelihood",
    "estimate_failure_rate",
    "poisson_rate_interval",
    "lifetimes_from_database",
    "LifetimeSample",
]


@dataclass(frozen=True)
class LifetimeSample:
    """Observed or censored component lifetimes.

    ``observed`` are complete times-to-failure; ``censored`` are
    durations after which the component was still working (observation
    ended or the component was preventively replaced).
    """

    observed: Tuple[float, ...]
    censored: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for value in list(self.observed) + list(self.censored):
            if value < 0.0 or not math.isfinite(value):
                raise EstimationError(f"invalid duration {value}")

    @property
    def n_observed(self) -> int:
        """Number of complete (uncensored) lifetimes."""
        return len(self.observed)

    @property
    def total_exposure(self) -> float:
        """Total time on test (observed + censored durations)."""
        return float(sum(self.observed) + sum(self.censored))


def fit_exponential(sample: LifetimeSample) -> Exponential:
    """MLE of an exponential lifetime under right censoring.

    The estimator is the classical ``events / total time on test``.
    """
    if sample.n_observed == 0:
        raise EstimationError("cannot fit exponential: no observed failures")
    exposure = sample.total_exposure
    if exposure <= 0.0:
        raise EstimationError("cannot fit exponential: zero total exposure")
    return Exponential(rate=sample.n_observed / exposure)


def erlang_log_likelihood(samples: Sequence[float], shape: int, rate: float) -> float:
    """Log-likelihood of complete samples under Erlang(shape, rate)."""
    if shape < 1 or rate <= 0.0:
        raise EstimationError(f"invalid Erlang parameters ({shape}, {rate})")
    x = np.asarray(samples, dtype=float)
    if np.any(x <= 0.0):
        raise EstimationError("Erlang samples must be positive")
    from scipy import special

    n = len(x)
    return float(
        n * shape * math.log(rate)
        - n * special.gammaln(shape)
        + (shape - 1) * np.sum(np.log(x))
        - rate * np.sum(x)
    )


def fit_erlang(
    samples: Sequence[float], max_phases: int = 12
) -> Erlang:
    """MLE of an Erlang lifetime from complete samples.

    For each candidate phase count ``k`` the rate MLE is closed-form
    (``k / mean``); the phase count is chosen by maximum likelihood.
    A single observation cannot discriminate phase counts and is
    rejected.
    """
    x = [float(value) for value in samples]
    if len(x) < 2:
        raise EstimationError(
            f"need at least 2 samples to fit an Erlang, got {len(x)}"
        )
    if any(value <= 0.0 for value in x):
        raise EstimationError("Erlang samples must be positive")
    mean = sum(x) / len(x)
    best: Optional[Tuple[float, int, float]] = None
    for shape in range(1, max_phases + 1):
        rate = shape / mean
        loglik = erlang_log_likelihood(x, shape, rate)
        if best is None or loglik > best[0]:
            best = (loglik, shape, rate)
    assert best is not None
    return Erlang(shape=best[1], rate=best[2])


def fit_erlang_censored(sample: LifetimeSample, shape: int) -> Erlang:
    """MLE of an Erlang rate with *known* phase count, under censoring.

    Used when the degradation structure (number of phases) is known
    from engineering knowledge but the time scale must come from data
    that is heavily right-censored — the typical situation for rare
    failure modes observed over a finite window.  The rate maximises

    ``sum_obs log f(x; shape, rate) + sum_cens log S(c; shape, rate)``

    by bounded 1-D search on the log-rate.
    """
    from scipy import optimize, stats as sps

    if shape < 1:
        raise EstimationError(f"shape must be >= 1, got {shape}")
    if sample.n_observed == 0:
        raise EstimationError("cannot fit: no observed failures")
    observed = np.asarray(sample.observed, dtype=float)
    censored = np.asarray(sample.censored, dtype=float)
    if np.any(observed <= 0.0):
        raise EstimationError("observed lifetimes must be positive")

    def negative_log_likelihood(log_rate: float) -> float:
        rate = math.exp(log_rate)
        value = float(
            np.sum(sps.gamma.logpdf(observed, a=shape, scale=1.0 / rate))
        )
        positive_censoring = censored[censored > 0.0]
        if len(positive_censoring):
            value += float(
                np.sum(
                    sps.gamma.logsf(positive_censoring, a=shape, scale=1.0 / rate)
                )
            )
        return -value

    # Bracket around the naive exposure-based estimate.
    rough = shape * sample.n_observed / max(sample.total_exposure, 1e-12)
    result = optimize.minimize_scalar(
        negative_log_likelihood,
        bounds=(math.log(rough) - 8.0, math.log(rough) + 8.0),
        method="bounded",
    )
    if not result.success:
        raise EstimationError("censored Erlang fit did not converge")
    return Erlang(shape=shape, rate=math.exp(float(result.x)))


def fit_weibull(samples: Sequence[float]) -> Weibull:
    """MLE of a Weibull lifetime from complete samples (scipy-based)."""
    x = np.asarray(list(samples), dtype=float)
    if len(x) < 2:
        raise EstimationError(f"need at least 2 samples, got {len(x)}")
    if np.any(x <= 0.0):
        raise EstimationError("Weibull samples must be positive")
    from scipy import stats as sps

    shape, _, scale = sps.weibull_min.fit(x, floc=0.0)
    return Weibull(scale=float(scale), shape=float(shape))


def poisson_rate_interval(
    count: int, exposure: float, confidence: float = 0.95
) -> ConfidenceInterval:
    """Exact (Garwood) confidence interval for a Poisson rate.

    ``count`` occurrences over ``exposure`` asset-years.
    """
    if count < 0:
        raise EstimationError(f"count must be >= 0, got {count}")
    if exposure <= 0.0:
        raise EstimationError(f"exposure must be positive, got {exposure}")
    from scipy import stats as sps

    alpha = 1.0 - confidence
    lower = 0.0
    if count > 0:
        lower = sps.chi2.ppf(alpha / 2.0, 2 * count) / 2.0 / exposure
    upper = sps.chi2.ppf(1.0 - alpha / 2.0, 2 * (count + 1)) / 2.0 / exposure
    return ConfidenceInterval(count / exposure, float(lower), float(upper), confidence)


def estimate_failure_rate(
    database: IncidentDatabase,
    component: Optional[str] = None,
    kind: str = "failure",
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Occurrence rate (per asset-year) of a record kind, with CI.

    With ``component=None`` and ``kind="system_failure"`` this is the
    headline statistic of the validation experiment: the observed
    number of service-affecting failures per joint-year.
    """
    count = database.count(kind, component)
    return poisson_rate_interval(count, database.joint_years, confidence)


def lifetimes_from_database(
    database: IncidentDatabase, component: str
) -> LifetimeSample:
    """Reconstruct component lifetimes from a maintained asset's log.

    A lifetime runs from the component's last full restoration (asset
    installation, a ``replace``, or a system renewal) to its next
    ``failure`` record.  Partial restorations (``clean``/``repair``)
    reset degradation only partially and would bias a lifetime fit, so
    any window containing one is discarded.  The final window of each
    asset, censored by the end of observation, enters as a censored
    duration.
    """
    observed: List[float] = []
    censored: List[float] = []
    for joint_id in range(database.n_joints):
        window_start = 0.0
        tainted = False
        for record in database.for_joint(joint_id):
            restores = (
                record.component == component and record.kind == "replace"
            ) or record.kind == "system_restored"
            if record.component == component and record.kind == "failure":
                if not tainted:
                    observed.append(record.time - window_start)
                # The failure ends the window; the next restoration
                # (replace or system renewal) starts a fresh one.
                tainted = True
            elif restores:
                window_start = record.time
                tainted = False
            elif record.component == component and record.kind in (
                "clean",
                "repair",
            ):
                tainted = True
        if not tainted:
            censored.append(database.window - window_start)
    if not observed and not censored:
        raise EstimationError(
            f"no usable lifetime windows for component {component!r}"
        )
    return LifetimeSample(tuple(observed), tuple(censored))
