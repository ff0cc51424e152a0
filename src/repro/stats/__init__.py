"""Statistical substrate: lifetime distributions, confidence intervals,
and sequential stopping rules for Monte Carlo estimation.

This package is self-contained (it only uses numpy/scipy) and is shared
by the fault-tree core, the discrete-event simulator, and the parameter
estimation code.  Importing it loads no scipy module: each function
imports what it calls.  Confidence intervals take their Student-t and
normal quantiles from ``scipy.special`` (``stdtrit``, ``ndtri``), the
functions ``scipy.stats.t.ppf`` and ``norm.ppf`` evaluate, so the
bounds are the same to the bit (``tests/test_confidence.py`` pins it).
"""

from repro.stats.confidence import (
    ConfidenceInterval,
    mean_confidence_interval,
    proportion_confidence_interval,
    wilson_interval,
)
from repro.stats.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    LogNormal,
    Uniform,
    Weibull,
    distribution_from_dict,
)
from repro.stats.phasefit import (
    ErlangFit,
    erlang_approximation,
    kolmogorov_distance,
)
from repro.stats.sequential import RelativePrecisionRule, RunningStatistics

__all__ = [
    "ConfidenceInterval",
    "Deterministic",
    "Distribution",
    "Erlang",
    "ErlangFit",
    "Exponential",
    "LogNormal",
    "RelativePrecisionRule",
    "RunningStatistics",
    "Uniform",
    "Weibull",
    "distribution_from_dict",
    "erlang_approximation",
    "kolmogorov_distance",
    "mean_confidence_interval",
    "proportion_confidence_interval",
    "wilson_interval",
]
