"""Calibration of the EI-joint model from (synthetic) data sources.

Factors the parameter-estimation pipeline out of the T3 experiment so
it can be reused — in particular by the uncertainty-propagation
experiment, which repeats the whole calibration under resampled expert
noise.

The pipeline mirrors the paper's methodology split:

* rare, non-inspectable failure modes → censored Erlang MLE on the
  incident database's lifetime records;
* inspectable degradation modes → expert interviews: each (simulated)
  expert states lifetime quantiles, answers are aggregated and an
  Erlang fitted to the consensus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.estimation import fit_erlang_censored, lifetimes_from_database
from repro.data.expert import (
    ExpertJudgment,
    aggregate_judgments,
    fit_erlang_to_quantiles,
)
from repro.data.incidents import IncidentDatabase
from repro.eijoint.parameters import EIJointParameters, FailureModeSpec

__all__ = [
    "ModeFit",
    "simulate_expert_interviews",
    "refit_parameters",
    "DEFAULT_QUANTILE_LEVELS",
    "DEFAULT_EXPERT_SIGMA",
]

#: Quantile levels asked in the (simulated) expert interviews.
DEFAULT_QUANTILE_LEVELS: Tuple[float, ...] = (0.05, 0.5, 0.95)

#: Multiplicative log-normal noise of an individual expert's answer.
DEFAULT_EXPERT_SIGMA = 0.10


@dataclass(frozen=True)
class ModeFit:
    """Record of one failure mode's re-estimation."""

    name: str
    source: str
    true_mean: float
    fitted_mean: float
    true_phases: int
    fitted_phases: int


def simulate_expert_interviews(
    mode: FailureModeSpec,
    rng: np.random.Generator,
    n_experts: int = 3,
    levels: Sequence[float] = DEFAULT_QUANTILE_LEVELS,
    sigma: float = DEFAULT_EXPERT_SIGMA,
) -> List[ExpertJudgment]:
    """Noisy expert assessments of a mode's lifetime quantiles.

    Each expert reports the true Erlang quantiles perturbed by
    independent multiplicative log-normal noise; per-expert answers are
    re-sorted so each expert's quantiles stay monotone (as a real
    elicitation protocol enforces).
    """
    from scipy import stats as sps

    true_quantiles = {
        level: float(
            sps.gamma.ppf(
                level, a=mode.phases, scale=mode.mean_lifetime / mode.phases
            )
        )
        for level in levels
    }
    judgments = []
    for expert in range(n_experts):
        noisy = {
            level: value * float(rng.lognormal(0.0, sigma))
            for level, value in true_quantiles.items()
        }
        values = sorted(noisy.values())
        noisy = dict(zip(sorted(noisy), values))
        judgments.append(ExpertJudgment(f"expert_{expert}", noisy))
    return judgments


def refit_parameters(
    database: IncidentDatabase,
    truth: EIJointParameters,
    rng: np.random.Generator,
    expert_sigma: float = DEFAULT_EXPERT_SIGMA,
) -> Tuple[EIJointParameters, List[ModeFit]]:
    """Re-estimate all model parameters blind to the ground truth.

    ``truth`` supplies the *structure* (mode list, phase counts of the
    database-fitted modes, thresholds — engineering knowledge) and, for
    the simulated interviews, the latent quantiles experts perceive.

    Returns the fitted parameter set and per-mode fit records.
    """
    fitted = truth
    records: List[ModeFit] = []
    for mode in truth.modes:
        if mode.inspectable:
            judgments = simulate_expert_interviews(
                mode, rng, sigma=expert_sigma
            )
            consensus = aggregate_judgments(judgments)
            erlang = fit_erlang_to_quantiles(consensus)
            fitted = fitted.with_mode(
                mode.name,
                phases=erlang.shape,
                mean_lifetime=erlang.mean(),
                threshold=min(mode.threshold, erlang.shape),
            )
            records.append(
                ModeFit(
                    name=mode.name,
                    source="expert interviews",
                    true_mean=mode.mean_lifetime,
                    fitted_mean=erlang.mean(),
                    true_phases=mode.phases,
                    fitted_phases=erlang.shape,
                )
            )
        else:
            sample = lifetimes_from_database(database, mode.name)
            erlang = fit_erlang_censored(sample, shape=mode.phases)
            fitted = fitted.with_mode(mode.name, mean_lifetime=erlang.mean())
            records.append(
                ModeFit(
                    name=mode.name,
                    source=f"incident DB ({sample.n_observed} failures)",
                    true_mean=mode.mean_lifetime,
                    fitted_mean=erlang.mean(),
                    true_phases=mode.phases,
                    fitted_phases=mode.phases,
                )
            )
    return fitted, records
