"""Rare-event unreliability estimation: configuration, driver, CIs.

:class:`RareEventEstimator` wires an importance function and a
splitting driver to an :class:`~repro.simulation.executor.FMTSimulator`
and aggregates the replicated observations into a
:class:`~repro.stats.confidence.ConfidenceInterval` — the same type
every other estimator in this library reports, so results drop into
the existing experiment tables unchanged.

Replication structure:

* fixed effort — ``n_replications`` independent complete replications;
  the estimate is their mean with a Student-t interval (a delta-method
  log-normal interval when only one replication is run);
* RESTART — ``n_roots`` independent root trajectories; their weights
  are i.i.d. with mean equal to the unreliability, so a t-interval
  over roots applies directly.

When *every* observation is zero both methods fall back to a Wilson
interval on zero successes (``[0, upper]``), mirroring the crude-MC
zero-failure fallback in :func:`repro.simulation.metrics.summarize` —
a zero-width interval at 0 would claim certainty the data cannot
support.

Units — replications (fixed effort) or roots (RESTART) — run on the
chunk pipeline of :mod:`repro.simulation.parallel`, one unit per task,
in-process or on a pool: the estimator stands in for a simulator in the
pipeline's object tasks (:meth:`RareEventEstimator.simulate` runs one
unit).  Each unit consumes only its own pre-spawned seed, so serial and
pooled runs are bit-identical, and the pipeline's fold reports the
``rare.units`` progress and, on a pool, merges the workers' metrics and
``worker.chunk`` spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import EstimationError, ValidationError
from repro.rareevent.importance import (
    StructureImportance,
    candidate_thresholds,
    select_thresholds,
)
from repro.rareevent.splitting import (
    FixedEffortSplitting,
    RestartRoot,
    RestartSplitting,
    SplittingRun,
)
from repro.simulation.executor import FMTSimulator
from repro.simulation import parallel
from repro.stats.confidence import (
    ConfidenceInterval,
    mean_confidence_interval,
    wilson_interval,
)

__all__ = [
    "RareEventConfig",
    "RareEventResult",
    "RareEventEstimator",
    "crude_equivalent_runs",
]


def crude_equivalent_runs(interval: ConfidenceInterval) -> Optional[int]:
    """Crude-MC trajectories needed to match ``interval``'s precision.

    A binomial proportion ``p`` estimated from ``n`` crude trajectories
    has a confidence interval of half-width ``z * sqrt(p (1 - p) / n)``;
    inverting at the interval's point estimate and relative half-width
    gives the crude sample size a splitting run effectively replaced.
    Returns None when the interval is degenerate (zero estimate or zero
    width), where the comparison is meaningless.
    """
    p = interval.estimate
    if p <= 0.0 or p >= 1.0 or interval.half_width <= 0.0:
        return None
    from scipy.special import ndtri

    z = float(ndtri(0.5 + 0.5 * interval.confidence))
    relative = interval.half_width / p
    return int(math.ceil(z * z * (1.0 - p) / (p * relative * relative)))

_METHODS = ("fixed_effort", "restart")


@dataclass(frozen=True)
class RareEventConfig:
    """Knobs of the importance-splitting estimator.

    Parameters
    ----------
    method:
        ``"fixed_effort"`` (default) or ``"restart"``.
    n_levels:
        Number of intermediate importance levels to aim for when
        ``thresholds`` is not given; the actual thresholds are chosen
        from the values the tree's importance function can reach (see
        :func:`repro.rareevent.importance.candidate_thresholds`).
    thresholds:
        Explicit, strictly increasing importance thresholds in
        ``(0, 1)``; overrides ``n_levels``.
    effort:
        Fixed effort: trajectory segments per level per replication.
    n_replications:
        Fixed effort: independent replications (>= 2 gives a t-CI).
    splits:
        RESTART: split factor at each level up-crossing.
    n_roots:
        RESTART: number of independent root trajectories.
    importance_weights:
        Optional per-basic-event weights reshaping the derived
        importance function (see :mod:`repro.rareevent.importance`).
    max_segments:
        Safety cap on trajectory segments per replication/root.
    """

    method: str = "fixed_effort"
    n_levels: int = 5
    thresholds: Optional[Tuple[float, ...]] = None
    effort: int = 100
    n_replications: int = 8
    splits: int = 4
    n_roots: int = 400
    importance_weights: Optional[Mapping[str, float]] = field(default=None)
    max_segments: int = 1_000_000

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValidationError(
                f"method must be one of {_METHODS}, got {self.method!r}"
            )
        if self.n_levels < 1:
            raise ValidationError(f"n_levels must be >= 1, got {self.n_levels}")
        if self.effort < 2:
            raise ValidationError(f"effort must be >= 2, got {self.effort}")
        if self.n_replications < 1:
            raise ValidationError(
                f"n_replications must be >= 1, got {self.n_replications}"
            )
        if self.splits < 2:
            raise ValidationError(f"splits must be >= 2, got {self.splits}")
        if self.n_roots < 2:
            raise ValidationError(f"n_roots must be >= 2, got {self.n_roots}")
        if self.thresholds is not None:
            object.__setattr__(
                self, "thresholds", tuple(float(t) for t in self.thresholds)
            )
        if self.importance_weights is not None:
            object.__setattr__(
                self, "importance_weights", dict(self.importance_weights)
            )

    @property
    def n_units(self) -> int:
        """Independent seed-consuming units this configuration runs."""
        return (
            self.n_replications if self.method == "fixed_effort" else self.n_roots
        )


@dataclass(frozen=True)
class RareEventResult:
    """Outcome of a rare-event estimation run."""

    #: P(system failure within the horizon), with CI.
    unreliability: ConfidenceInterval
    #: ``"fixed_effort"`` or ``"restart"``.
    method: str
    #: The importance thresholds actually used.
    thresholds: Tuple[float, ...]
    #: Trajectory segments simulated in total (clones included) — the
    #: cost figure to compare against crude-MC trajectory counts.
    n_trajectories: int
    #: Independent units (replications or roots).
    n_units: int
    #: Simulation horizon, years.
    horizon: float
    #: Fixed effort only: pooled per-stage success fractions.
    stage_probabilities: Optional[Tuple[float, ...]] = None


class RareEventEstimator:
    """Importance-splitting unreliability estimator for one simulator.

    Parameters
    ----------
    simulator:
        The configured :class:`FMTSimulator` (tree, strategy, horizon).
        The estimator drives it stepwise; any strategy works, including
        renewing ones — the estimated quantity is always the
        probability of *at least one* system failure in the horizon.
    config:
        The splitting configuration.
    """

    def __init__(self, simulator: FMTSimulator, config: RareEventConfig):
        self.simulator = simulator
        self.config = config
        self.importance = StructureImportance(
            simulator.tree, config.importance_weights
        )
        if config.thresholds is not None:
            self.thresholds = config.thresholds
        else:
            candidates = candidate_thresholds(
                simulator.tree, config.importance_weights
            )
            if not candidates:
                raise EstimationError(
                    "the importance function has no intermediate levels "
                    "(all basic events are single-phase); importance "
                    "splitting cannot help here — use crude Monte Carlo "
                    "(see docs/rare_events.md, 'when crude MC is fine')"
                )
            self.thresholds = select_thresholds(candidates, config.n_levels)

    # ------------------------------------------------------------------
    # Unit execution: the estimator as a chunk-pipeline simulator
    # ------------------------------------------------------------------
    def _driver(self):
        if self.config.method == "fixed_effort":
            return FixedEffortSplitting(
                self.simulator,
                self.importance,
                self.thresholds,
                effort=self.config.effort,
                max_segments=self.config.max_segments,
            )
        return RestartSplitting(
            self.simulator,
            self.importance,
            self.thresholds,
            splits=self.config.splits,
            max_segments=self.config.max_segments,
        )

    def simulate(
        self, rng: np.random.Generator
    ) -> Union[SplittingRun, RestartRoot]:
        """Run one unit: a fixed-effort replication or a RESTART root.

        The chunk pipeline's unit body.  An object task hands its
        simulator ``default_rng(seed)`` per seed item; the unit spawns
        its segment streams from that generator's seed sequence, so it
        is a function of its seed alone, wherever it runs.
        """
        driver = self._driver()
        run_one = (
            driver.run
            if self.config.method == "fixed_effort"
            else driver.run_root
        )
        return run_one(rng.bit_generator.seed_seq)

    def batch(self):
        """Fold the step-driven units' trailing event tallies into the
        registry once, at the block's end (the pipeline runs each task
        in one)."""
        return self.simulator.batch()

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        unit_seeds: Sequence[np.random.SeedSequence],
        confidence: float = 0.95,
        processes: int = 1,
        pool: Optional[parallel.SharedSimulationPool] = None,
    ) -> RareEventResult:
        """Run every unit and aggregate into a :class:`RareEventResult`.

        ``unit_seeds`` must hold exactly ``config.n_units`` seed
        sequences (one per replication or root).  The units run one per
        chunk-pipeline task: on ``pool`` when one is given (its size
        then wins over ``processes``), else on a pool of ``processes``
        workers used once when ``processes > 1``.  The result is
        bit-identical to the serial run because each unit consumes only
        its own seed.
        """
        expected = self.config.n_units
        if len(unit_seeds) != expected:
            raise ValidationError(
                f"expected {expected} unit seeds for method "
                f"{self.config.method!r}, got {len(unit_seeds)}"
            )
        if pool is not None:
            processes = pool.processes
        units = parallel.sample_parallel(
            self, unit_seeds, processes, chunk_size=1, pool=pool,
            telemetry=parallel.worker_telemetry(self, processes, "rare.units"),
        )
        if self.config.method == "fixed_effort":
            return self._combine_fixed_effort(units, confidence)
        return self._combine_restart(units, confidence)

    def _combine_fixed_effort(
        self, units: Sequence[SplittingRun], confidence: float
    ) -> RareEventResult:
        estimates = np.fromiter(
            (unit.estimate for unit in units), dtype=np.float64, count=len(units)
        )
        n_segments = sum(unit.n_segments for unit in units)
        interval = self._fixed_effort_interval(units, estimates, confidence)
        return RareEventResult(
            unreliability=interval,
            method="fixed_effort",
            thresholds=self.thresholds,
            n_trajectories=n_segments,
            n_units=len(units),
            horizon=self.simulator.config.horizon,
            stage_probabilities=self._pooled_stage_probabilities(units),
        )

    def _fixed_effort_interval(
        self,
        units: Sequence[SplittingRun],
        estimates: np.ndarray,
        confidence: float,
    ) -> ConfidenceInterval:
        if not np.any(estimates):
            # Zero everywhere: a Wilson zero-success fallback on the
            # first-stage trials gives an honest (conservative) upper
            # bound — p <= P(reach level 1) by construction.
            trials = sum(unit.stage_trials[0] for unit in units)
            upper = wilson_interval(0, trials, confidence).upper
            return ConfidenceInterval(0.0, 0.0, upper, confidence)
        if len(units) >= 2:
            interval = mean_confidence_interval(estimates, confidence)
            return ConfidenceInterval(
                interval.estimate,
                max(0.0, interval.lower),
                interval.upper,
                confidence,
            )
        # Single replication: delta-method log-normal interval from the
        # per-stage binomial variances.
        unit = units[0]
        variance_log = sum(
            (1.0 - p) / (p * n)
            for p, n in zip(unit.stage_probabilities, unit.stage_trials)
            if p > 0.0
        )
        from scipy.special import ndtri

        z = float(ndtri(0.5 + 0.5 * confidence))
        spread = math.exp(z * math.sqrt(variance_log))
        estimate = unit.estimate
        return ConfidenceInterval(
            estimate, estimate / spread, estimate * spread, confidence
        )

    @staticmethod
    def _pooled_stage_probabilities(
        units: Sequence[SplittingRun],
    ) -> Tuple[float, ...]:
        n_stages = max(len(unit.stage_probabilities) for unit in units)
        pooled = []
        for stage in range(n_stages):
            successes = 0.0
            trials = 0
            for unit in units:
                if stage < len(unit.stage_probabilities):
                    successes += (
                        unit.stage_probabilities[stage] * unit.stage_trials[stage]
                    )
                    trials += unit.stage_trials[stage]
            pooled.append(successes / trials if trials else 0.0)
        return tuple(pooled)

    def _combine_restart(
        self, units: Sequence[RestartRoot], confidence: float
    ) -> RareEventResult:
        weights = np.fromiter(
            (unit.weight for unit in units), dtype=np.float64, count=len(units)
        )
        n_segments = sum(unit.n_segments for unit in units)
        if not np.any(weights):
            upper = wilson_interval(0, len(weights), confidence).upper
            interval = ConfidenceInterval(0.0, 0.0, upper, confidence)
        else:
            raw = mean_confidence_interval(weights, confidence)
            interval = ConfidenceInterval(
                raw.estimate, max(0.0, raw.lower), raw.upper, confidence
            )
        return RareEventResult(
            unreliability=interval,
            method="restart",
            thresholds=self.thresholds,
            n_trajectories=n_segments,
            n_units=len(units),
            horizon=self.simulator.config.horizon,
        )
