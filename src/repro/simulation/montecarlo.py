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
from repro.simulation.batch import TrajectoryAccumulator, TrajectoryBatch
from repro.simulation.executor import (
    DEFAULT_CHUNK_TRAJECTORIES,
    FMTSimulator,
    SimulationConfig,
)
from repro.simulation.metrics import (
    KpiSummary,
    Trajectories,
    reliability_curve,
    summarize,
)
from repro.simulation.trace import Trajectory
from repro.simulation.vectorized import (
    VectorizedKernel,
    chunk_plan,
    runs_lockstep,
)
from repro.stats.confidence import ConfidenceInterval
from repro.stats.sequential import RelativePrecisionRule, RunningStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.rareevent.estimator import RareEventConfig, RareEventResult
    from repro.simulation.parallel import SharedSimulationPool

__all__ = ["MonteCarlo", "MonteCarloResult"]

logger = get_logger(__name__)


@dataclass(frozen=True)
class MonteCarloResult:
    """Result of a Monte Carlo study: KPIs plus optional raw material.

    ``trajectories`` carries the full objects only when the study was
    run with ``keep_trajectories=True``.  ``batch`` carries the packed
    KPI columns (:class:`~repro.simulation.batch.TrajectoryBatch`)
    whenever the driver took the streaming columnar path — enough for
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
        self.instrumentation = instrumentation
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

    def _chunk_items(
        self, n_runs: int
    ) -> List[Tuple[int, np.random.SeedSequence]]:
        """The lockstep study's ``(size, seed)`` chunk items.

        Sizes follow :func:`~repro.simulation.vectorized.chunk_plan`;
        chunk ``i`` draws from the ``i``-th of ``k`` children spawned
        in one call, on whichever process runs it.
        """
        sizes = chunk_plan(n_runs, self.simulator.config.chunk_trajectories)
        seeds = self._seed_sequence.spawn(len(sizes))
        self._streams_used += len(sizes)
        return list(zip(sizes, seeds))

    def _resolve_instrumentation(self) -> Optional[Instrumentation]:
        """Explicit instrumentation, else the simulator's, else ambient."""
        if self.instrumentation is not None:
            return self.instrumentation
        config_instrumentation = self.simulator.config.instrumentation
        if config_instrumentation is not None:
            return config_instrumentation
        return _obs.current()

    @staticmethod
    def _resolve_progress(
        progress: Optional[ProgressReporter],
    ) -> Optional[ProgressReporter]:
        """Explicit reporter, else the ambient one, else None."""
        return progress if progress is not None else current_progress()

    @staticmethod
    def _progress_step(n_runs: int) -> int:
        """Trajectories between progress events for an n-run study."""
        return max(1, min(1000, n_runs // 50))

    def _summarize(
        self, trajectories: Trajectories, confidence: float
    ) -> KpiSummary:
        """KPI aggregation, timed when instrumentation is active."""
        instr = self.instrumentation
        if instr is None:
            instr = _obs.current()
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
        the schedulable CPU count, capped so a small study does not pay
        the startup cost of idle workers; explicit values must be >= 1.
        Passing a :class:`~repro.simulation.parallel.SharedSimulationPool`
        reuses its workers instead of spawning a dedicated pool (the
        pool's size then wins over ``processes``).

        Unless ``keep_trajectories=True``, the raw material comes back
        as a :class:`~repro.simulation.batch.TrajectoryBatch` on the
        result; with ``record_events=False`` (the default) the workers
        themselves ship packed columns instead of pickled object lists.

        With telemetry attached — instrumentation (explicit or
        ambient), an ambient span collector, or a progress reporter —
        each worker chunk runs under a ``worker.chunk`` span parented
        to this call's ``mc.run_parallel`` span and ships its metrics
        registry back for merging, so parallel profiles report worker-
        side counters and per-worker ``sim.worker.<n>.*`` utilization
        gauges.  All of it is passive: results stay bit-identical.
        """
        from repro.simulation.parallel import (
            WorkerTelemetry,
            default_process_count,
            sample_parallel,
            sample_parallel_batch,
        )

        if n_runs < 1:
            raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
        if pool is not None:
            processes = pool.processes
        elif processes is None:
            processes = default_process_count(n_runs)
        elif processes < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
        logger.info(kv("run_parallel fan-out", processes=processes, runs=n_runs))
        with _spans.span(
            "mc.run_parallel", {"n_runs": n_runs, "processes": processes}
        ) as run_span:
            reporter = self._resolve_progress(progress)
            instrumentation = self._resolve_instrumentation()
            collector = _spans.current_collector()
            telemetry = None
            if (
                instrumentation is not None
                or collector is not None
                or reporter is not None
            ):
                context = run_span.context
                telemetry = WorkerTelemetry(
                    instrumentation=instrumentation,
                    collector=collector,
                    span_parent=(
                        context.to_dict() if context is not None else None
                    ),
                    progress=reporter,
                )
            lockstep = runs_lockstep(self.simulator)
            if lockstep:
                # One (size, seed) item per chunk of the study's plan:
                # the same items, in the same order, as a serial run().
                seeds = self._chunk_items(n_runs)
            else:
                seeds = self._seed_sequence.spawn(n_runs)
                self._streams_used += n_runs
            if lockstep or (
                not keep_trajectories
                and not self.simulator.config.record_events
            ):
                # Compact IPC: workers reduce trajectories to KPI columns
                # and the driver never materializes the object list.  The
                # lockstep kernel always takes this path (its native
                # output is columns); kept trajectories are then rebuilt
                # from the batch.
                batch = sample_parallel_batch(
                    self.simulator, seeds, processes, pool=pool,
                    telemetry=telemetry,
                )
                summary = self._summarize(batch, confidence)
                if keep_trajectories:
                    return MonteCarloResult(
                        summary=summary,
                        trajectories=tuple(batch.to_trajectories()),
                        batch=batch,
                    )
                return MonteCarloResult(summary=summary, batch=batch)
            trajectories = sample_parallel(
                self.simulator, seeds, processes, pool=pool, telemetry=telemetry
            )
            if keep_trajectories:
                summary = self._summarize(trajectories, confidence)
                return MonteCarloResult(
                    summary=summary, trajectories=tuple(trajectories)
                )
            # Events were recorded but the objects are not kept: ship the
            # objects (they carry the events) but hand back only the batch.
            batch = TrajectoryBatch.from_trajectories(trajectories)
            return MonteCarloResult(
                summary=self._summarize(batch, confidence), batch=batch
            )

    def run(
        self,
        n_runs: int,
        confidence: float = 0.95,
        keep_trajectories: bool = False,
        progress: Optional[ProgressReporter] = None,
    ) -> MonteCarloResult:
        """Run a fixed number of replications and summarize KPIs.

        With ``keep_trajectories=False`` (the default) the trajectories
        are streamed into a :class:`~repro.simulation.batch.
        TrajectoryBatch` as they are simulated — peak memory is one
        trajectory plus the packed columns, independent of ``n_runs`` —
        and the batch rides along on the result for curve estimation.
        KPIs are bit-identical between the two modes.

        ``progress`` (or an ambient reporter installed with
        :func:`repro.observability.use_progress`) receives
        rate/ETA events at batch boundaries; reporting is passive, so
        a watched run is bit-identical to a silent one.
        """
        reporter = self._resolve_progress(progress)
        with _spans.span(
            "mc.run", {"n_runs": n_runs, "keep_trajectories": keep_trajectories}
        ):
            if runs_lockstep(self.simulator):
                return self._run_vectorized(
                    n_runs, confidence, keep_trajectories, reporter
                )
            # The object engine; vectorized-kernel models that fall back
            # run here too, bit-identical to kernel="object".
            if reporter is None:
                if keep_trajectories:
                    trajectories = self.sample(n_runs)
                    summary = self._summarize(trajectories, confidence)
                    return MonteCarloResult(
                        summary=summary, trajectories=tuple(trajectories)
                    )
                batch = self.sample_batch(n_runs)
                return MonteCarloResult(
                    summary=self._summarize(batch, confidence), batch=batch
                )
            if n_runs < 1:
                raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
            # Watched run: identical child-stream order, sliced into
            # progress steps.  The sink (object list vs accumulator)
            # mirrors the silent paths above exactly.
            collected: List[Trajectory] = []
            accumulator = (
                None
                if keep_trajectories
                else TrajectoryAccumulator(horizon=self.horizon)
            )
            sink = collected.append if accumulator is None else accumulator.add
            step = self._progress_step(n_runs)
            start = _time.perf_counter()
            done = 0
            while done < n_runs:
                take = min(step, n_runs - done)
                for _ in range(take):
                    sink(self.simulator.simulate(self._next_rng()))
                done += take
                elapsed = _time.perf_counter() - start
                rate = done / elapsed if elapsed > 0 else None
                reporter.update(
                    ProgressEvent(
                        phase="mc.run",
                        completed=done,
                        total=n_runs,
                        elapsed_seconds=elapsed,
                        rate_per_sec=rate,
                        eta_seconds=((n_runs - done) / rate) if rate else None,
                        done=done >= n_runs,
                    )
                )
            if accumulator is None:
                summary = self._summarize(collected, confidence)
                return MonteCarloResult(
                    summary=summary, trajectories=tuple(collected)
                )
            batch = accumulator.finalize()
            return MonteCarloResult(
                summary=self._summarize(batch, confidence), batch=batch
            )

    def _run_vectorized(
        self,
        n_runs: int,
        confidence: float,
        keep_trajectories: bool,
        reporter: Optional[ProgressReporter],
    ) -> MonteCarloResult:
        """:meth:`run` body for models on the lockstep kernel.

        Runs the study's chunk items (:meth:`_chunk_items`): one child
        seed stream per lockstep *chunk* — spawning a stream per
        trajectory costs more than the kernel spends simulating one —
        exactly as :meth:`run_parallel` dispatches them.  Chunks stream
        straight into the accumulator; progress events fire at chunk
        boundaries and, for watched runs, from inside the chunk loop at
        calendar-fraction granularity, throttled to the same cadence as
        the object path (:meth:`_progress_step`).  The in-chunk
        callback never touches the RNG, so watched and silent runs are
        bit-identical.
        """
        if n_runs < 1:
            raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
        accumulator = TrajectoryAccumulator(horizon=self.horizon)
        start = _time.perf_counter()
        done = 0

        def report(done: int) -> None:
            if reporter is None:
                return
            elapsed = _time.perf_counter() - start
            rate = done / elapsed if elapsed > 0 else None
            reporter.update(
                ProgressEvent(
                    phase="mc.run",
                    completed=done,
                    total=n_runs,
                    elapsed_seconds=elapsed,
                    rate_per_sec=rate,
                    eta_seconds=((n_runs - done) / rate) if rate else None,
                    done=done >= n_runs,
                )
            )

        kernel = VectorizedKernel(self.simulator)
        instr = self._resolve_instrumentation()
        step = self._progress_step(n_runs)
        for size, seed in self._chunk_items(n_runs):
            callback = None
            if reporter is not None:
                # Map the kernel's calendar fraction to equivalent
                # completed trajectories; emit at the object path's
                # cadence, leaving the boundary event to report().
                state = {"next": done + step}
                base, span = done, size

                def callback(frac, state=state, base=base, span=span):
                    equivalent = base + int(span * frac)
                    if equivalent >= state["next"] and equivalent < base + span:
                        state["next"] = equivalent + step
                        report(equivalent)

            accumulator.add_batch(
                kernel.simulate_chunk(
                    size, np.random.default_rng(seed), progress=callback
                )
            )
            if instr is not None:
                instr.count(_obs.SIM_TRAJECTORIES, size)
            done += size
            report(done)
        batch = accumulator.finalize()
        summary = self._summarize(batch, confidence)
        if keep_trajectories:
            return MonteCarloResult(
                summary=summary,
                trajectories=tuple(batch.to_trajectories()),
                batch=batch,
            )
        return MonteCarloResult(summary=summary, batch=batch)

    def run_rare_event(
        self,
        config: Optional["RareEventConfig"] = None,
        confidence: float = 0.95,
        processes: int = 1,
    ) -> "RareEventResult":
        """Estimate the unreliability by importance splitting.

        Uses ``config``, falling back to the ``rare_event`` configuration
        given at construction, falling back to the defaults of
        :class:`~repro.rareevent.estimator.RareEventConfig`.  One child
        seed stream is consumed per independent unit (replication or
        RESTART root); ``processes > 1`` fans units out to worker
        processes with bit-identical results.

        Returns a :class:`~repro.rareevent.estimator.RareEventResult`
        whose ``unreliability`` interval is directly comparable to
        ``run(...).unreliability``.
        """
        from repro.rareevent.estimator import RareEventConfig, RareEventEstimator

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
                seeds, confidence=confidence, processes=processes
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
        reporter = self._resolve_progress(progress)
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
