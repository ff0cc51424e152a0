"""Multiprocessing support for Monte Carlo replication.

Trajectories are embarrassingly parallel; this module fans batches out
to worker processes.  Reproducibility is preserved exactly: the child
RNG streams are derived from the root seed in the same order a serial
run would use them, so ``run_parallel`` returns **bit-identical KPIs**
to :meth:`repro.simulation.montecarlo.MonteCarlo.run` with the same
seed (the test suite asserts this).

The simulator object is pickled once per worker; tasks ship only seed
items.  The object engine takes one
:class:`numpy.random.SeedSequence` per trajectory, several to a task.
The lockstep kernel takes ``(size, seed)`` chunk items, one to a task:
the driver fixes the chunk plan
(:func:`~repro.simulation.vectorized.chunk_plan`) and the chunk seeds
before dispatch, and the pool balances load by chunk count, never by
resizing chunks — so the plan, and the bytes, do not depend on the
process count.  Results come back in one of two shapes:

* :func:`sample_parallel` — full :class:`~repro.simulation.trace.
  Trajectory` object lists (needed when events or the objects
  themselves are kept);
* :func:`sample_parallel_batch` — packed
  :class:`~repro.simulation.batch.TrajectoryBatch` columns.  Workers
  reduce each trajectory to its KPI scalars immediately, and — where
  POSIX shared memory is available — scatter the columns straight into
  one pre-sized ``multiprocessing.shared_memory`` segment at their
  chunk's row offset (:mod:`repro.simulation.shm`), so the result pipe
  carries only a tiny per-chunk handle and the driver materializes the
  final batch with a single copy out of the segment (zero-copy fold;
  bit-identical to the pickled fallback, which remains for hosts
  without ``/dev/shm``).

A worker process dying (OOM-kill, segfault, ``os._exit``) surfaces as
a :class:`~repro.errors.SimulationError` instead of a hang or an
opaque pool exception.

Telemetry round-trip
--------------------
When the driver runs with telemetry attached (metrics, spans, or a
progress reporter — see :class:`WorkerTelemetry`), each task addition-
ally carries a tiny :class:`ChunkExtras` and each worker wraps its
chunk in a fresh per-chunk :class:`~repro.observability.
instrumentation.Instrumentation` and a ``worker.chunk`` span parented
to the dispatching span's shipped
:class:`~repro.observability.spans.SpanContext`.  The chunk result
then ships ``(payload, worker registry, span record, pid, wall
seconds)`` back; the driver folds the registry into the parent one
(:meth:`MetricsRegistry.merge`), feeds the span record to the ambient
collector, emits a progress event, and finally publishes per-worker
utilization gauges (``sim.worker.<n>.chunks`` / ``.trajectories`` /
``.busy_seconds`` plus ``sim.workers``).  With no telemetry attached
the legacy payload-only protocol is used — zero extra bytes on the
pipe, zero worker-side overhead.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.observability import instrumentation as _obs
from repro.observability.instrumentation import (
    SIM_WORKER_PREFIX,
    SIM_WORKERS,
    Instrumentation,
)
from repro.observability.logging_setup import get_logger, kv
from repro.observability.progress import ProgressEvent
from repro.observability.spans import Span, SpanCollector
from repro.simulation.batch import TrajectoryAccumulator, TrajectoryBatch
from repro.simulation.executor import FMTSimulator
from repro.simulation.shm import (
    ShmBatchWriter,
    ShmChunkSpec,
    shared_memory_available,
    write_chunk_batch,
)
from repro.simulation.trace import Trajectory
from repro.simulation.vectorized import VectorizedKernel, runs_lockstep

__all__ = [
    "simulate_batch",
    "simulate_batch_columns",
    "sample_parallel",
    "sample_parallel_batch",
    "default_process_count",
    "SharedSimulationPool",
    "WorkerTelemetry",
]

logger = get_logger(__name__)

#: Default cap on the automatic fan-out: beyond this, per-worker
#: simulator unpickling and IPC overhead outweigh extra cores for the
#: replication counts this project runs.
MAX_DEFAULT_PROCESSES = 8

# Module-level worker state: initialised once per process, so the
# (potentially large) simulator is unpickled a single time.
_WORKER_SIMULATOR: Optional[FMTSimulator] = None


def _available_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine's CPUs even when a cgroup
    quota or CPU affinity mask (containers, CI runners, ``taskset``)
    restricts the process to far fewer — spawning workers for CPUs we
    cannot use only adds pickling and scheduling overhead.  The
    affinity mask (where the platform exposes one) is authoritative.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = len(getaffinity(0))
        except OSError:  # pragma: no cover - platform quirk
            affinity = 0
        if affinity:
            return affinity
    return os.cpu_count() or 1


def default_process_count(n_tasks: Optional[int] = None) -> int:
    """Fan-out used when the caller does not pick one.

    The schedulable CPU count (see :func:`_available_cpu_count`) capped
    at :data:`MAX_DEFAULT_PROCESSES`, and at ``n_tasks`` when given (no
    point spawning more workers than there are trajectories).  Always
    >= 1.
    """
    count = min(_available_cpu_count(), MAX_DEFAULT_PROCESSES)
    if n_tasks is not None:
        count = min(count, n_tasks)
    return max(1, count)


def _init_worker(simulator: FMTSimulator) -> None:
    global _WORKER_SIMULATOR
    _WORKER_SIMULATOR = simulator


def simulate_batch(
    simulator: FMTSimulator, seeds: Sequence[np.random.SeedSequence]
) -> List[Trajectory]:
    """Simulate one trajectory per seed, in-process."""
    return [
        simulator.simulate(np.random.default_rng(seed)) for seed in seeds
    ]


def _rows(seeds: Sequence) -> int:
    """Trajectories a task's seed items stand for (see
    :func:`simulate_batch_columns`)."""
    return sum(item[0] if isinstance(item, tuple) else 1 for item in seeds)


def simulate_batch_columns(
    simulator: FMTSimulator, seeds: Sequence
) -> TrajectoryBatch:
    """Simulate ``seeds``' trajectories, reduced to batch columns.

    This is the single dispatch point shared by the in-process path and
    every worker entry point.  When the simulator runs the lockstep
    kernel (:func:`~repro.simulation.vectorized.runs_lockstep`), each
    item is a ``(size, seed)`` chunk item: ``size`` trajectories
    simulated as one chunk drawing from ``default_rng(seed)`` (a bare
    ``SeedSequence`` is a one-row chunk).  Otherwise — the object
    kernel, or a vectorized-kernel model that falls back — each item
    is one trajectory's ``SeedSequence``, and each trajectory object is
    folded into the accumulator as soon as it is produced: resident
    memory is one trajectory plus the columns, regardless of
    ``len(seeds)``.
    """
    accumulator = TrajectoryAccumulator(horizon=simulator.config.horizon)
    if runs_lockstep(simulator):
        kernel = VectorizedKernel(simulator)
        instr = simulator.config.instrumentation
        if instr is None:
            instr = _obs.current()
        for item in seeds:
            size, seed = item if isinstance(item, tuple) else (1, item)
            accumulator.add_batch(
                kernel.simulate_chunk(size, np.random.default_rng(seed))
            )
            if instr is not None:
                instr.count(_obs.SIM_TRAJECTORIES, size)
        return accumulator.finalize()
    simulate = simulator.simulate
    add = accumulator.add
    for seed in seeds:
        add(simulate(np.random.default_rng(seed)))
    return accumulator.finalize()


def _worker_batch(seeds: Sequence[np.random.SeedSequence]) -> List[Trajectory]:
    assert _WORKER_SIMULATOR is not None
    return simulate_batch(_WORKER_SIMULATOR, seeds)


def _worker_batch_columns(seeds: Sequence) -> TrajectoryBatch:
    assert _WORKER_SIMULATOR is not None
    return simulate_batch_columns(_WORKER_SIMULATOR, seeds)


def _worker_batch_columns_shm(
    task: Tuple[Sequence, ShmChunkSpec],
):
    assert _WORKER_SIMULATOR is not None
    seeds, spec = task
    return write_chunk_batch(
        simulate_batch_columns(_WORKER_SIMULATOR, seeds), spec
    )


# ----------------------------------------------------------------------
# Telemetry round-trip
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChunkExtras:
    """Per-task telemetry envelope shipped to a worker.

    Picklable and tiny: the parent span's serialized
    :class:`~repro.observability.spans.SpanContext` (or None when
    tracing is off), whether to collect a per-chunk metrics registry,
    the chunk's ordinal, and the result representation.
    """

    span_parent: Optional[Dict[str, str]]
    collect_metrics: bool
    chunk_index: int
    as_batch: bool
    #: Shared-memory write window for this chunk's columns; None keeps
    #: the pickled result representation.
    shm: Optional[ShmChunkSpec] = None


@dataclass
class ChunkResult:
    """What a telemetry-enabled worker ships back per chunk."""

    payload: Any  # List[Trajectory] or TrajectoryBatch
    registry: Optional[Any]  # MetricsRegistry, when metrics were collected
    span: Optional[Dict[str, Any]]  # completed span record
    pid: int
    n_trajectories: int
    seconds: float


@dataclass(frozen=True)
class WorkerTelemetry:
    """Driver-side telemetry configuration for one parallel dispatch.

    Built by :meth:`MonteCarlo.run_parallel` from the explicit/ambient
    instrumentation, span collector, and progress reporter; ``None``
    everywhere means the dispatch uses the legacy payload-only
    protocol.
    """

    instrumentation: Optional[Instrumentation] = None
    collector: Optional[SpanCollector] = None
    span_parent: Optional[Dict[str, str]] = None
    progress: Optional[Any] = None  # ProgressReporter
    phase: str = "mc.run_parallel"

    @property
    def active(self) -> bool:
        """Whether any telemetry sink is attached."""
        return (
            self.instrumentation is not None
            or self.collector is not None
            or self.progress is not None
        )


def _run_chunk_with_telemetry(
    simulator: FMTSimulator,
    seeds: Sequence,
    extras: ChunkExtras,
) -> ChunkResult:
    """Worker-side chunk execution with per-chunk telemetry.

    The chunk simulates into a *fresh* registry (temporarily swapped
    into the simulator config) so long-lived workers ship deltas, not
    cumulative totals — the driver can then fold every chunk without
    double counting.  Strictly passive: the trajectories are the same
    with or without collection.
    """
    rows = _rows(seeds)
    span = None
    if extras.span_parent is not None:
        span = Span.start(
            "worker.chunk",
            parent=extras.span_parent,
            attributes={
                "chunk": extras.chunk_index,
                "n_trajectories": rows,
                "pid": os.getpid(),
            },
        )
    run = simulate_batch_columns if extras.as_batch else simulate_batch
    start = time.perf_counter()
    registry = None
    if extras.collect_metrics:
        instrumentation = Instrumentation()
        registry = instrumentation.registry
        original = simulator.config
        simulator.config = replace(original, instrumentation=instrumentation)
        try:
            payload = run(simulator, seeds)
        finally:
            simulator.config = original
    else:
        payload = run(simulator, seeds)
    if extras.shm is not None and extras.as_batch:
        # Columns go through the shared segment; only the tiny handle
        # rides the result pipe.
        payload = write_chunk_batch(payload, extras.shm)
    seconds = time.perf_counter() - start
    return ChunkResult(
        payload=payload,
        registry=registry,
        span=span.end().to_dict() if span is not None else None,
        pid=os.getpid(),
        n_trajectories=rows,
        seconds=seconds,
    )


def _worker_chunk_telemetry(
    task: Tuple[Sequence, ChunkExtras],
) -> ChunkResult:
    assert _WORKER_SIMULATOR is not None
    seeds, extras = task
    return _run_chunk_with_telemetry(_WORKER_SIMULATOR, seeds, extras)


# Shared-pool worker state: simulators cached by payload digest, so one
# pool can serve many different studies and each worker unpickles a
# given simulator at most once.
_SHARED_SIMULATORS: Dict[str, FMTSimulator] = {}

#: Cached simulators kept per shared-pool worker before the cache is
#: cleared; a study sweep touches a handful of simulators, and an
#: unbounded cache would pin every model a long-lived pool ever saw.
MAX_CACHED_SIMULATORS = 16


def _shared_simulator(digest: str, blob: bytes) -> FMTSimulator:
    simulator = _SHARED_SIMULATORS.get(digest)
    if simulator is None:
        if len(_SHARED_SIMULATORS) >= MAX_CACHED_SIMULATORS:
            _SHARED_SIMULATORS.clear()
        simulator = pickle.loads(blob)
        _SHARED_SIMULATORS[digest] = simulator
    return simulator


def _shared_worker_batch(
    payload: Tuple[str, bytes, Sequence[np.random.SeedSequence]],
) -> List[Trajectory]:
    digest, blob, seeds = payload
    return simulate_batch(_shared_simulator(digest, blob), seeds)


def _shared_worker_batch_columns(
    payload: Tuple[str, bytes, Sequence],
) -> TrajectoryBatch:
    digest, blob, seeds = payload
    return simulate_batch_columns(_shared_simulator(digest, blob), seeds)


def _shared_worker_batch_columns_shm(
    payload: Tuple[str, bytes, Sequence, ShmChunkSpec],
):
    digest, blob, seeds, spec = payload
    return write_chunk_batch(
        simulate_batch_columns(_shared_simulator(digest, blob), seeds), spec
    )


def _shared_worker_chunk_telemetry(
    payload: Tuple[str, bytes, Sequence, ChunkExtras],
) -> ChunkResult:
    digest, blob, seeds, extras = payload
    return _run_chunk_with_telemetry(_shared_simulator(digest, blob), seeds, extras)


class SharedSimulationPool:
    """A process pool reusable across many (simulator, seeds) studies.

    ``sample_parallel`` normally spins up a dedicated pool whose
    workers are initialised with one pickled simulator — fine for a
    single large run, wasteful when an experiment sweep performs many
    medium runs back to back.  A shared pool is created once, sized
    once, and serves every study of a sweep: tasks carry the pickled
    simulator plus its digest, and workers cache unpickled simulators
    by digest, so repeated studies of the same model pay the transfer
    but not the unpickling.

    Results are bit-identical to a dedicated pool and to a serial run
    (the trajectories are functions of the seeds alone).  The pool is
    lazy — no processes exist until the first parallel study — and a
    worker crash poisons only the current executor: the next study
    transparently gets a fresh one.
    """

    def __init__(self, processes: Optional[int] = None):
        if processes is None:
            processes = default_process_count()
        elif processes < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created on first use."""
        if self._executor is None:
            logger.debug(kv("shared pool start", processes=self.processes))
            self._executor = ProcessPoolExecutor(max_workers=self.processes)
        return self._executor

    def invalidate(self) -> None:
        """Discard a (possibly broken) executor; next use starts fresh."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Terminate the workers (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "SharedSimulationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "idle" if self._executor is None else "running"
        return f"SharedSimulationPool(processes={self.processes}, {state})"


def _chunk_seeds(
    seeds: Sequence, processes: int, chunk_size: Optional[int]
) -> List[Sequence]:
    """Split seed items into tasks of ``chunk_size`` items each."""
    if chunk_size is None:
        chunk_size = max(1, len(seeds) // (processes * 4))
    elif chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        seeds[start:start + chunk_size]
        for start in range(0, len(seeds), chunk_size)
    ]


class _TelemetryFold:
    """Driver-side accumulator folding returning chunk telemetry.

    Merges worker registries into the parent instrumentation, routes
    span records to the collector, emits progress events, and — once
    the dispatch completes — publishes per-worker utilization gauges.
    """

    def __init__(self, telemetry: WorkerTelemetry, total: int):
        self.telemetry = telemetry
        self.total = total
        self.completed = 0
        self.start = time.perf_counter()
        # pid -> [chunks, trajectories, busy seconds], ordinal by first
        # appearance in (deterministic) seed-order completion.
        self.workers: "Dict[int, List[float]]" = {}

    def fold(self, result: ChunkResult) -> Any:
        telemetry = self.telemetry
        self.completed += result.n_trajectories
        stats = self.workers.setdefault(result.pid, [0, 0, 0.0])
        stats[0] += 1
        stats[1] += result.n_trajectories
        stats[2] += result.seconds
        if telemetry.instrumentation is not None and result.registry is not None:
            telemetry.instrumentation.registry.merge(result.registry)
        if telemetry.collector is not None and result.span is not None:
            telemetry.collector.add_record(result.span)
        if telemetry.progress is not None:
            elapsed = time.perf_counter() - self.start
            rate = self.completed / elapsed if elapsed > 0 else None
            remaining = self.total - self.completed
            telemetry.progress.update(
                ProgressEvent(
                    phase=telemetry.phase,
                    completed=self.completed,
                    total=self.total,
                    elapsed_seconds=elapsed,
                    rate_per_sec=rate,
                    eta_seconds=(remaining / rate) if rate else None,
                    done=self.completed >= self.total,
                )
            )
        return result.payload

    def finish(self) -> None:
        instrumentation = self.telemetry.instrumentation
        if instrumentation is None or not self.workers:
            return
        instrumentation.set_gauge(SIM_WORKERS, len(self.workers))
        for ordinal, pid in enumerate(self.workers):
            chunks, trajectories, busy = self.workers[pid]
            prefix = f"{SIM_WORKER_PREFIX}.{ordinal}"
            instrumentation.set_gauge(f"{prefix}.chunks", chunks)
            instrumentation.set_gauge(f"{prefix}.trajectories", trajectories)
            instrumentation.set_gauge(f"{prefix}.busy_seconds", busy)


def _dispatch_chunks(
    simulator: FMTSimulator,
    chunks: List[Sequence],
    processes: int,
    pool: Optional[SharedSimulationPool],
    as_batch: bool,
    telemetry: Optional[WorkerTelemetry] = None,
    shm_writer: Optional[ShmBatchWriter] = None,
) -> Iterator:
    """Yield per-chunk worker payloads in seed order.

    Shared machinery behind :func:`sample_parallel` and
    :func:`sample_parallel_batch`; ``as_batch`` selects the worker
    representation (object lists vs packed columns).  With an active
    :class:`WorkerTelemetry`, tasks carry :class:`ChunkExtras`, workers
    return :class:`ChunkResult`, and the telemetry is folded driver-
    side as each chunk completes.  With a :class:`ShmBatchWriter`
    (batch representation only) each task carries its chunk's
    :class:`~repro.simulation.shm.ShmChunkSpec`, workers scatter their
    columns into the shared segment, and the yielded payloads are
    :class:`~repro.simulation.shm.ShmChunkHandle` records.
    """
    if telemetry is not None and not telemetry.active:
        telemetry = None
    rows = [_rows(chunk) for chunk in chunks]
    total = sum(rows)
    logger.debug(
        kv(
            "sample_parallel dispatch",
            trajectories=total,
            processes=processes,
            chunks=len(chunks),
            chunk_rows=max(rows) if rows else 0,
            shared=pool is not None,
            as_batch=as_batch,
            telemetry=telemetry is not None,
            shm=shm_writer is not None,
        )
    )
    fold = _TelemetryFold(telemetry, total) if telemetry is not None else None
    extras = None
    if telemetry is not None:
        extras = [
            ChunkExtras(
                span_parent=telemetry.span_parent,
                collect_metrics=telemetry.instrumentation is not None,
                chunk_index=index,
                as_batch=as_batch,
                shm=(
                    shm_writer.spec(index) if shm_writer is not None else None
                ),
            )
            for index in range(len(chunks))
        ]
    completed = 0
    try:
        if pool is not None:
            blob = pickle.dumps(simulator, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(blob).hexdigest()
            if extras is not None:
                payloads: List[Tuple] = [
                    (digest, blob, chunk, extra)
                    for chunk, extra in zip(chunks, extras)
                ]
                worker = _shared_worker_chunk_telemetry
            elif shm_writer is not None:
                payloads = [
                    (digest, blob, chunk, shm_writer.spec(index))
                    for index, chunk in enumerate(chunks)
                ]
                worker = _shared_worker_batch_columns_shm
            else:
                payloads = [(digest, blob, chunk) for chunk in chunks]
                worker = (
                    _shared_worker_batch_columns
                    if as_batch
                    else _shared_worker_batch
                )
            for index, result in enumerate(pool.executor().map(worker, payloads)):
                completed += rows[index]
                yield fold.fold(result) if fold is not None else result
        else:
            with ProcessPoolExecutor(
                max_workers=processes,
                initializer=_init_worker,
                initargs=(simulator,),
            ) as executor:
                if extras is not None:
                    tasks: Sequence = list(zip(chunks, extras))
                    worker = _worker_chunk_telemetry
                elif shm_writer is not None:
                    tasks = [
                        (chunk, shm_writer.spec(index))
                        for index, chunk in enumerate(chunks)
                    ]
                    worker = _worker_batch_columns_shm
                else:
                    tasks = chunks
                    worker = _worker_batch_columns if as_batch else _worker_batch
                for index, result in enumerate(executor.map(worker, tasks)):
                    completed += rows[index]
                    yield fold.fold(result) if fold is not None else result
        if fold is not None:
            fold.finish()
    except BrokenProcessPool as exc:
        if pool is not None:
            pool.invalidate()
        logger.error(
            kv(
                "worker process crashed",
                processes=processes,
                completed=completed,
                total=total,
            )
        )
        raise SimulationError(
            "a Monte Carlo worker process terminated abruptly "
            f"(completed {completed}/{total} trajectories); "
            "rerun with processes=1 to reproduce the failure in-process"
        ) from exc


def sample_parallel(
    simulator: FMTSimulator,
    seeds: Sequence[np.random.SeedSequence],
    processes: int,
    chunk_size: Optional[int] = None,
    pool: Optional[SharedSimulationPool] = None,
    telemetry: Optional[WorkerTelemetry] = None,
) -> List[Trajectory]:
    """Simulate one trajectory per seed across worker processes.

    Results are returned in seed order (hence identical to a serial
    run over the same seeds, regardless of worker scheduling).  When a
    :class:`SharedSimulationPool` is given its workers are reused and
    ``processes`` is taken from the pool; otherwise a dedicated pool is
    created for this call.  ``telemetry`` opts into the worker
    metric/span/progress round-trip (see the module docstring) —
    trajectories are bit-identical with or without it.

    Raises
    ------
    SimulationError
        If a worker process dies (the pool is then unusable); the
        original pool exception is chained as ``__cause__``.
    """
    if pool is not None:
        processes = pool.processes
    if processes < 1:
        raise ValidationError(f"processes must be >= 1, got {processes}")
    if processes == 1:
        return simulate_batch(simulator, seeds)
    results: List[Trajectory] = []
    for chunk in _dispatch_chunks(
        simulator, _chunk_seeds(seeds, processes, chunk_size), processes,
        pool, as_batch=False, telemetry=telemetry,
    ):
        results.extend(chunk)
    return results


def sample_parallel_batch(
    simulator: FMTSimulator,
    seeds: Sequence,
    processes: int,
    chunk_size: Optional[int] = None,
    pool: Optional[SharedSimulationPool] = None,
    telemetry: Optional[WorkerTelemetry] = None,
    use_shared_memory: Optional[bool] = None,
) -> TrajectoryBatch:
    """Like :func:`sample_parallel`, returning packed batch columns.

    Workers ship :class:`~repro.simulation.batch.TrajectoryBatch`
    columns instead of pickled object lists — the resulting batch's
    columns (and hence every KPI computed from them) are bit-identical
    to ``TrajectoryBatch.from_trajectories(sample_parallel(...))``,
    while resident memory stays O(columns).

    ``seeds`` holds the seed items of :func:`simulate_batch_columns`,
    and the result equals ``simulate_batch_columns(simulator, seeds)``
    whatever ``processes`` and ``chunk_size``.  ``chunk_size`` counts
    items per task; for a lockstep simulator it defaults to one
    ``(size, seed)`` chunk item per task, so the pool balances load by
    chunk count.

    By default (``use_shared_memory=None`` → on where supported) the
    columns never ride the result pipe at all: the driver pre-sizes one
    ``multiprocessing.shared_memory`` segment from the chunk plan,
    workers scatter their columns into it at their chunk's row offset,
    and the driver materializes the final batch with a single copy out
    of the segment (see :mod:`repro.simulation.shm`).  The segment is
    unlinked in a ``finally`` even when a worker crashes.  Pass
    ``use_shared_memory=False`` to force the pickled fold — the result
    is bit-identical either way (the test suite asserts it).
    """
    if pool is not None:
        processes = pool.processes
    if processes < 1:
        raise ValidationError(f"processes must be >= 1, got {processes}")
    if processes == 1:
        return simulate_batch_columns(simulator, seeds)
    if chunk_size is None and runs_lockstep(simulator):
        chunk_size = 1
    chunks = _chunk_seeds(seeds, processes, chunk_size)
    writer = None
    if use_shared_memory is None:
        use_shared_memory = shared_memory_available()
    if use_shared_memory and shared_memory_available():
        try:
            writer = ShmBatchWriter(
                simulator.config.horizon, [_rows(chunk) for chunk in chunks]
            )
        except OSError as exc:  # pragma: no cover - constrained /dev/shm
            logger.warning(
                kv("shared-memory segment unavailable", error=repr(exc))
            )
            writer = None
    try:
        if writer is not None:
            handles = list(
                _dispatch_chunks(
                    simulator, chunks, processes, pool, as_batch=True,
                    telemetry=telemetry, shm_writer=writer,
                )
            )
            return writer.finalize(handles)
        accumulator = TrajectoryAccumulator(horizon=simulator.config.horizon)
        for chunk in _dispatch_chunks(
            simulator, chunks, processes, pool, as_batch=True,
            telemetry=telemetry,
        ):
            accumulator.add_batch(chunk)
        return accumulator.finalize()
    finally:
        if writer is not None:
            writer.close()
