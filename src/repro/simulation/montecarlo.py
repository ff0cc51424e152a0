"""Monte Carlo replication driver with confidence intervals.

:class:`MonteCarlo` owns the reproducibility story: a single integer
seed expands via :class:`numpy.random.SeedSequence` into one independent
RNG stream per trajectory (object engine) or per lockstep chunk of the
study's chunk plan (vectorized kernel), so results are invariant to
batching and to the process count, and fully reproducible.

Two modes are provided: a fixed replication count (:meth:`MonteCarlo.run`)
and sequential estimation to a target relative precision
(:meth:`MonteCarlo.run_to_precision`), mirroring the statistical
model-checking workflow the paper's analyses used.
"""

from __future__ import annotations

import time as _time
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.tree import FaultMaintenanceTree
from repro.errors import ValidationError
from repro.maintenance.costs import CostModel
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability import instrumentation as _obs
from repro.observability import spans as _spans
from repro.observability.instrumentation import Instrumentation
from repro.observability.logging_setup import get_logger, kv
from repro.observability.progress import (
    ProgressEvent,
    ProgressReporter,
    current_progress,
)
from repro.simulation import parallel
from repro.simulation.batch import TrajectoryAccumulator, TrajectoryBatch
from repro.simulation.executor import (
    DEFAULT_CHUNK_TRAJECTORIES,
    FMTSimulator,
    SimulationConfig,
    instrumentation_of,
)
from repro.simulation.metrics import (
    KpiSummary,
    Trajectories,
    reliability_curve,
    summarize,
)
from repro.simulation.trace import Trajectory
from repro.simulation.vectorized import chunk_plan, runs_lockstep
from repro.stats.confidence import ConfidenceInterval
from repro.stats.sequential import RelativePrecisionRule, RunningStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.rareevent.estimator import RareEventConfig, RareEventResult
    from repro.simulation.parallel import SharedSimulationPool

__all__ = ["MonteCarlo", "MonteCarloResult"]

logger = get_logger(__name__)


class _Streams:
    """The next ``n`` child streams of ``root``, spawned a slice at a time.

    Spawning ``n`` per-trajectory SeedSequences up front would hold
    ``n`` of them (~0.4 KB each) for the whole study.  The chunk
    pipeline slices its tasks' seeds in order, once each, so a serial
    study holds one task's streams at a time, and the children are
    exactly those of ``root.spawn(n)``.
    """

    def __init__(self, root: np.random.SeedSequence, n: int):
        self._root = root
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: slice) -> List[np.random.SeedSequence]:
        return self._root.spawn(len(range(*index.indices(self._n))))


@dataclass(frozen=True)
class MonteCarloResult:
    """Result of a Monte Carlo study: KPIs plus optional raw material.

    ``trajectories`` carries the full objects only when the study was
    run with ``keep_trajectories=True``.  ``batch`` carries the packed
    KPI columns (:class:`~repro.simulation.batch.TrajectoryBatch`)
    of every :meth:`MonteCarlo.run` / ``run_parallel`` study — enough for
    :meth:`reliability_at` and further aggregation at a small fraction
    of the object list's footprint.
    """

    summary: KpiSummary
    trajectories: Optional[Tuple[Trajectory, ...]] = None
    batch: Optional[TrajectoryBatch] = None

    # Convenience pass-throughs used everywhere in the experiments.
    @property
    def n_runs(self) -> int:
        """Number of simulated trajectories."""
        return self.summary.n_runs

    @property
    def unreliability(self) -> ConfidenceInterval:
        """P(failure within horizon), with CI."""
        return self.summary.unreliability

    @property
    def reliability(self) -> float:
        """1 - unreliability point estimate."""
        return self.summary.reliability

    @property
    def failures_per_year(self) -> ConfidenceInterval:
        """Expected number of system failures per year, with CI."""
        return self.summary.failures_per_year

    @property
    def availability(self) -> ConfidenceInterval:
        """Mean fraction of time the system is up, with CI."""
        return self.summary.availability

    @property
    def cost_per_year(self) -> ConfidenceInterval:
        """Expected annual total cost, with CI."""
        return self.summary.cost_per_year

    def reliability_at(
        self, times: Sequence[float], confidence: float = 0.95
    ) -> Tuple[np.ndarray, list]:
        """Survival curve on a grid (from kept trajectories or the batch)."""
        if self.trajectories is not None:
            return reliability_curve(self.trajectories, times, confidence)
        if self.batch is not None:
            return reliability_curve(self.batch, times, confidence)
        raise ValidationError(
            "reliability_at() needs the run's raw material (a trajectory "
            "batch or keep_trajectories=True in run())"
        )


class MonteCarlo:
    """Replicated simulation of one (model, strategy) pair.

    Parameters
    ----------
    tree:
        The fault maintenance tree (maintenance modules on the tree are
        replaced by the strategy's).
    strategy:
        Maintenance strategy to apply; defaults to corrective-only.
    horizon:
        Trajectory length in years.
    cost_model:
        Cost model for the cost KPI; optional.
    seed:
        Root seed; every trajectory gets an independent child stream.
    record_events:
        Forwarded to :class:`~repro.simulation.executor.SimulationConfig`.
    instrumentation:
        Optional :class:`~repro.observability.instrumentation.Instrumentation`
        collecting simulation counters plus the ``sim.simulate.seconds``
        and ``mc.summarize.seconds`` timers.  Observational only — KPIs
        are bit-identical with or without it.  Falls back to the
        ambient instrumentation (:func:`repro.observability.current`)
        when None.
    simulator:
        Validated :class:`~repro.simulation.executor.FMTSimulator`
        prototype to clone instead of building one from ``tree`` and
        ``strategy`` — skips strategy application and tree validation,
        which dominate setup cost when many studies share one model
        (see :class:`repro.studies.runner.StudyRunner`).  Mutually
        exclusive with ``tree``/``strategy``/``cost_model``;
        ``horizon``, if given, must agree with the prototype's.
        Results are bit-identical to the equivalent ``tree`` +
        ``strategy`` construction.
    kernel:
        Trajectory sampler for the batch drivers (:meth:`run`,
        :meth:`run_parallel`): ``"object"`` or ``"vectorized"`` (see
        :class:`~repro.simulation.executor.SimulationConfig`).  ``None``
        (the default) keeps the prototype's kernel, or ``"object"``
        when building from a tree.  The per-trajectory entry points
        (:meth:`sample`, :meth:`run_to_precision`, rare-event
        estimation) always use the object engine.
    chunk_trajectories:
        Cap on the rows of one lockstep chunk of the vectorized kernel
        (see :class:`~repro.simulation.executor.SimulationConfig`).
        ``None`` (the default) keeps the prototype's / config default
        value.
    """

    def __init__(
        self,
        tree: Optional[FaultMaintenanceTree] = None,
        strategy: Optional[MaintenanceStrategy] = None,
        horizon: Optional[float] = None,
        cost_model: Optional[CostModel] = None,
        seed: int = 0,
        record_events: bool = False,
        instrumentation: Optional[Instrumentation] = None,
        rare_event: Optional["RareEventConfig"] = None,
        simulator: Optional[FMTSimulator] = None,
        kernel: Optional[str] = None,
        chunk_trajectories: Optional[int] = None,
    ):
        if simulator is not None:
            if tree is not None or strategy is not None or cost_model is not None:
                raise ValidationError(
                    "simulator= is mutually exclusive with tree/strategy/cost_model"
                )
            config = simulator.config
            if horizon is not None and horizon != config.horizon:
                raise ValidationError(
                    f"horizon={horizon:g} conflicts with the prototype's "
                    f"horizon {config.horizon:g}"
                )
            if record_events and not config.record_events:
                raise ValidationError(
                    "record_events=True conflicts with the prototype's "
                    "record_events=False configuration"
                )
            self.simulator = simulator.clone()
            overrides = {}
            if (
                instrumentation is not None
                and instrumentation is not config.instrumentation
            ):
                overrides["instrumentation"] = instrumentation
            if kernel is not None and kernel != config.kernel:
                overrides["kernel"] = kernel
            if (
                chunk_trajectories is not None
                and chunk_trajectories != config.chunk_trajectories
            ):
                overrides["chunk_trajectories"] = chunk_trajectories
            if overrides:
                # replace() re-runs config validation, so an invalid
                # kernel or kernel/record_events conflict raises here.
                self.simulator.config = replace(config, **overrides)
        else:
            if tree is None:
                raise ValidationError("give either tree= or simulator=")
            config = SimulationConfig(
                horizon=horizon if horizon is not None else 10.0,
                cost_model=cost_model if cost_model is not None else CostModel(),
                record_events=record_events,
                instrumentation=instrumentation,
                kernel=kernel if kernel is not None else "object",
                chunk_trajectories=(
                    chunk_trajectories
                    if chunk_trajectories is not None
                    else DEFAULT_CHUNK_TRAJECTORIES
                ),
            )
            self.simulator = FMTSimulator(tree, strategy, config=config)
        self.seed = seed
        # Stored only; consumed exclusively by run_rare_event().  The
        # constructor performs no RNG activity for it, so crude-MC runs
        # are bit-identical with the subsystem configured but unused.
        self.rare_event = rare_event
        self._seed_sequence = np.random.SeedSequence(seed)
        self._streams_used = 0

    @property
    def horizon(self) -> float:
        """Trajectory length in years."""
        return self.simulator.config.horizon

    def _next_rng(self) -> np.random.Generator:
        child = self._seed_sequence.spawn(1)[0]
        self._streams_used += 1
        return np.random.default_rng(child)

    def _seed_items(self, n_runs: int) -> Sequence:
        """The study's seed items, consumed from the root seed.

        Lockstep studies get ``(size, seed)`` chunk items: sizes follow
        :func:`~repro.simulation.vectorized.chunk_plan`, and chunk ``i``
        draws from the ``i``-th of ``k`` children spawned in one call,
        on whichever process runs it.  Otherwise each trajectory gets
        its own child stream (:class:`_Streams`).
        """
        if n_runs < 1:
            raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
        if runs_lockstep(self.simulator):
            sizes = chunk_plan(n_runs, self.simulator.config.chunk_trajectories)
            self._streams_used += len(sizes)
            return list(zip(sizes, self._seed_sequence.spawn(len(sizes))))
        self._streams_used += n_runs
        return _Streams(self._seed_sequence, n_runs)

    def _summarize(
        self, trajectories: Trajectories, confidence: float
    ) -> KpiSummary:
        """KPI aggregation, timed when instrumentation is active."""
        instr = instrumentation_of(self.simulator)
        if instr is None:
            return summarize(trajectories, confidence)
        with instr.timer(_obs.TIMER_SUMMARIZE).time():
            return summarize(trajectories, confidence)

    def sample(self, n_runs: int) -> List[Trajectory]:
        """Simulate ``n_runs`` fresh trajectories and return them raw."""
        if n_runs < 1:
            raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
        return [self.simulator.simulate(self._next_rng()) for _ in range(n_runs)]

    def sample_batch(self, n_runs: int) -> TrajectoryBatch:
        """Simulate ``n_runs`` fresh trajectories as packed batch columns.

        Consumes exactly the same child seed streams as :meth:`sample`,
        and each trajectory object is folded into the accumulator as
        soon as it is produced — resident memory stays O(columns)
        instead of O(n_runs) objects.  The resulting batch yields
        KPIs bit-identical to ``sample``'s object list.
        """
        if n_runs < 1:
            raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
        accumulator = TrajectoryAccumulator(horizon=self.horizon)
        for _ in range(n_runs):
            accumulator.add(self.simulator.simulate(self._next_rng()))
        return accumulator.finalize()

    def run_parallel(
        self,
        n_runs: int,
        processes: Optional[int] = None,
        confidence: float = 0.95,
        keep_trajectories: bool = False,
        pool: Optional["SharedSimulationPool"] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> MonteCarloResult:
        """Like :meth:`run`, fanned out over worker processes.

        The child RNG streams are identical to a serial :meth:`run`
        from the same driver state, so the results are bit-identical —
        parallelism is purely a wall-clock optimization.

        ``processes=None`` (the default) picks a sensible fan-out from
        the schedulable CPU count, capped at the study's seed items —
        chunk items on the lockstep kernel, trajectories on the object
        engine — so a one-chunk study runs in-process; explicit values
        must be >= 1.  Passing a
        :class:`~repro.simulation.parallel.SharedSimulationPool` reuses
        its workers instead of spawning a dedicated pool (the pool's
        size then wins over ``processes``).  One process runs the
        study's tasks in-process with the telemetry of :meth:`run`.

        On a pool, with telemetry attached — instrumentation (explicit
        or ambient), an ambient span collector, or a progress reporter —
        each worker chunk runs under a ``worker.chunk`` span parented
        to this call's ``mc.run_parallel`` span and ships its metrics
        registry back for merging, so parallel profiles report worker-
        side counters and per-worker ``sim.worker.<n>.*`` utilization
        gauges (:func:`~repro.simulation.parallel.worker_telemetry`).
        All of it is passive: results stay bit-identical.
        """
        if pool is None and processes is not None and processes < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
        seeds = self._seed_items(n_runs)
        if pool is not None:
            processes = pool.processes
        elif processes is None:
            processes = parallel.default_process_count(len(seeds))
        logger.info(kv("run_parallel fan-out", processes=processes, runs=n_runs))
        with _spans.span(
            "mc.run_parallel", {"n_runs": n_runs, "processes": processes}
        ):
            return self._simulate(
                seeds, processes, pool, "mc.run_parallel", progress,
                keep_trajectories, confidence,
            )

    def run(
        self,
        n_runs: int,
        confidence: float = 0.95,
        keep_trajectories: bool = False,
        progress: Optional[ProgressReporter] = None,
    ) -> MonteCarloResult:
        """Run a fixed number of replications and summarize KPIs.

        The trajectories stream into a :class:`~repro.simulation.batch.
        TrajectoryBatch` as they are simulated — peak memory is one
        task's seed streams plus the packed columns, independent of
        ``n_runs`` — and the batch rides along on the result for curve
        estimation.  ``keep_trajectories=True`` also returns the
        trajectory objects.  KPIs are bit-identical between the two
        modes.

        ``progress`` (or an ambient reporter installed with
        :func:`repro.observability.use_progress`) receives rate/ETA
        events between chunks, and inside lockstep chunks; reporting is
        passive, so a watched run is bit-identical to a silent one.
        """
        with _spans.span(
            "mc.run", {"n_runs": n_runs, "keep_trajectories": keep_trajectories}
        ):
            return self._simulate(
                self._seed_items(n_runs), 1, None, "mc.run", progress,
                keep_trajectories, confidence,
            )

    def _simulate(
        self,
        seeds: Sequence,
        processes: int,
        pool: Optional["SharedSimulationPool"],
        phase: str,
        progress: Optional[ProgressReporter],
        keep_trajectories: bool,
        confidence: float,
    ) -> MonteCarloResult:
        """The one body of :meth:`run` and :meth:`run_parallel`.

        Tasks return trajectory objects only when the run keeps them
        and they carry recorded events.  Otherwise they return packed
        columns, and kept trajectories are rebuilt from the batch
        (equal to the engine's objects).
        """
        telemetry = parallel.worker_telemetry(
            self.simulator, processes, phase, progress
        )
        if keep_trajectories and self.simulator.config.record_events:
            trajectories = tuple(
                parallel.sample_parallel(
                    self.simulator, seeds, processes, pool=pool,
                    telemetry=telemetry,
                )
            )
            batch = TrajectoryBatch.from_trajectories(trajectories)
        else:
            batch = parallel.sample_parallel_batch(
                self.simulator, seeds, processes, pool=pool, telemetry=telemetry
            )
            trajectories = (
                tuple(batch.to_trajectories()) if keep_trajectories else None
            )
        return MonteCarloResult(
            summary=self._summarize(batch, confidence),
            trajectories=trajectories,
            batch=batch,
        )

    def run_rare_event(
        self,
        config: Optional["RareEventConfig"] = None,
        confidence: float = 0.95,
        processes: int = 1,
        pool: Optional["SharedSimulationPool"] = None,
    ) -> "RareEventResult":
        """Estimate the unreliability by importance splitting.

        Uses ``config``, falling back to the ``rare_event`` configuration
        given at construction, falling back to the defaults of
        :class:`~repro.rareevent.estimator.RareEventConfig`.  One child
        seed stream is consumed per independent unit (replication or
        RESTART root).  The units run one per task on the chunk
        pipeline (:mod:`repro.simulation.parallel`), as
        :meth:`run_parallel`'s do: on ``pool`` when one is given (its
        size then wins over ``processes``), else on a pool used once
        when ``processes > 1``, with bit-identical results and with the
        pipeline's worker-metric, span and progress fold.

        Returns a :class:`~repro.rareevent.estimator.RareEventResult`
        whose ``unreliability`` interval is directly comparable to
        ``run(...).unreliability``.
        """
        from repro.rareevent.estimator import RareEventConfig, RareEventEstimator

        if pool is not None:
            processes = pool.processes
        if config is None:
            config = self.rare_event
        if config is None:
            config = RareEventConfig()
        estimator = RareEventEstimator(self.simulator, config)
        seeds = self._seed_sequence.spawn(config.n_units)
        self._streams_used += config.n_units
        logger.info(
            kv(
                "rare-event run",
                method=config.method,
                units=config.n_units,
                levels=len(estimator.thresholds),
                processes=processes,
            )
        )
        with _spans.span(
            "mc.run_rare_event",
            {
                "method": config.method,
                "n_units": config.n_units,
                "levels": len(estimator.thresholds),
                "processes": processes,
            },
        ):
            return estimator.estimate(
                seeds, confidence=confidence, processes=processes, pool=pool
            )

    def run_to_precision(
        self,
        rule: Optional[RelativePrecisionRule] = None,
        batch_size: int = 200,
        confidence: float = 0.95,
        keep_trajectories: bool = True,
        target: str = "failures",
        max_zero_samples: int = 10_000,
        progress: Optional[ProgressReporter] = None,
    ) -> MonteCarloResult:
        """Sequential estimation to a target relative precision.

        Batches of trajectories are simulated until the stopping
        ``rule`` declares the confidence interval of the ``target``
        statistic tight enough (or its sample budget is exhausted).
        All KPIs are then summarized over everything that was
        simulated.

        ``target`` selects the controlled statistic: ``"failures"``
        (number of system failures per trajectory, the default),
        ``"unreliability"`` (failure indicator), or ``"cost"`` (total
        trajectory cost — requires a cost model).

        A stream on which the target statistic stays identically zero
        can never satisfy a *relative* precision rule; rather than
        simulate until the rule's full ``max_samples`` budget, the run
        stops after ``max_zero_samples`` all-zero trajectories with a
        :class:`RuntimeWarning` (consider :meth:`run_rare_event` —
        rare-event estimation is what importance splitting is for).

        ``progress`` (or an ambient reporter) receives one convergence
        event per batch: the running estimate, its CI half-width (at
        the rule's confidence), the relative half-width, and the
        rule's target relative error — so a long sequential run shows
        how far from convergence it is, not just how many samples it
        has burned.
        """
        extractors = {
            "failures": lambda t: float(t.n_failures),
            "unreliability": lambda t: 1.0 if t.failed_by_horizon else 0.0,
            "cost": lambda t: t.costs.total,
        }
        extractor = extractors.get(target)
        if extractor is None:
            raise ValidationError(
                f"unknown target {target!r}; expected one of "
                f"{sorted(extractors)}"
            )
        if rule is None:
            rule = RelativePrecisionRule()
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        if max_zero_samples < 1:
            raise ValidationError(
                f"max_zero_samples must be >= 1, got {max_zero_samples}"
            )
        reporter = progress if progress is not None else current_progress()
        statistics = RunningStatistics()
        collected: List[Trajectory] = []
        # With keep_trajectories=False the batches are folded straight
        # into columnar form, so an open-ended sequential run keeps a
        # bounded footprint no matter how many samples the rule needs.
        accumulator = (
            None
            if keep_trajectories
            else TrajectoryAccumulator(horizon=self.horizon)
        )
        with _spans.span(
            "mc.run_to_precision",
            {
                "target": target,
                "batch_size": batch_size,
                "relative_error": rule.relative_error,
            },
        ) as run_span:
            start = _time.perf_counter()
            while not rule.should_stop(statistics):
                if (
                    statistics.count >= max_zero_samples
                    and statistics.mean == 0.0
                ):
                    message = (
                        f"run_to_precision: target {target!r} is zero on all "
                        f"{statistics.count} trajectories; the relative "
                        "precision rule cannot converge on an all-zero "
                        "stream — stopping early (consider run_rare_event)"
                    )
                    warnings.warn(message, RuntimeWarning, stacklevel=2)
                    logger.warning(
                        kv(
                            "run_to_precision all-zero cap hit",
                            target=target,
                            samples=statistics.count,
                        )
                    )
                    break
                batch = self.sample(batch_size)
                for trajectory in batch:
                    statistics.add(extractor(trajectory))
                if accumulator is None:
                    collected.extend(batch)
                else:
                    accumulator.extend(batch)
                if reporter is not None:
                    reporter.update(
                        self._convergence_event(
                            statistics, rule, start, done=False
                        )
                    )
            run_span.set_attribute("n_samples", statistics.count)
            if reporter is not None:
                reporter.update(
                    self._convergence_event(statistics, rule, start, done=True)
                )
            if accumulator is None:
                summary = self._summarize(collected, confidence)
                return MonteCarloResult(
                    summary=summary, trajectories=tuple(collected)
                )
            built = accumulator.finalize()
            return MonteCarloResult(
                summary=self._summarize(built, confidence), batch=built
            )

    @staticmethod
    def _convergence_event(
        statistics: RunningStatistics,
        rule: RelativePrecisionRule,
        start: float,
        done: bool,
    ) -> ProgressEvent:
        """Progress event describing how converged a sequential run is."""
        half_width = None
        relative_half_width = None
        if statistics.count >= 2:
            interval = statistics.confidence_interval(rule.confidence)
            half_width = interval.half_width
            if statistics.mean != 0.0:
                relative_half_width = interval.relative_half_width
        elapsed = _time.perf_counter() - start
        rate = statistics.count / elapsed if elapsed > 0 else None
        return ProgressEvent(
            phase="mc.run_to_precision",
            completed=statistics.count,
            elapsed_seconds=elapsed,
            rate_per_sec=rate,
            estimate=statistics.mean if statistics.count else None,
            ci_half_width=half_width,
            relative_half_width=relative_half_width,
            target=rule.relative_error,
            done=done,
        )
