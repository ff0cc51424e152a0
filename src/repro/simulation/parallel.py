"""One chunk pipeline for Monte Carlo replication.

Every batch run — :meth:`~repro.simulation.montecarlo.MonteCarlo.run`,
:meth:`~repro.simulation.montecarlo.MonteCarlo.run_parallel`,
:func:`sample_parallel` and :func:`sample_parallel_batch` — and every
rare-event estimate take the same three steps:

1. the seed items are cut, in seed order, into :class:`ChunkTask`
   records;
2. one function simulates a task and returns a :class:`ChunkResult`:
   in-process when one process is asked for, otherwise on the workers
   of a :class:`SharedSimulationPool` (a dedicated pool is a shared
   pool used once), whose single entry point receives ``(digest,
   pickled simulator, task)`` and caches unpickled simulators by
   digest;
3. one fold takes the results in seed order, yields their payloads and
   handles the telemetry.

The seed items fix every child RNG stream before dispatch, so results
are **bit-identical** whatever the process count (the test suite
asserts this).  The object engine takes one
:class:`numpy.random.SeedSequence` per trajectory, several to a task.
The lockstep kernel takes ``(size, seed)`` chunk items, one to a task:
the driver fixes the chunk plan
(:func:`~repro.simulation.vectorized.chunk_plan`) and the chunk seeds,
and the pool balances load by chunk count, never by resizing chunks —
so the plan, and the bytes, do not depend on the process count.

A task returns :class:`~repro.simulation.trace.Trajectory` objects only
when asked to (:func:`sample_parallel`; the objects carry recorded
events).  Otherwise it returns packed
:class:`~repro.simulation.batch.TrajectoryBatch` columns.  On a pool
where POSIX shared memory is available, each task also carries its
write window into one pre-sized segment (:mod:`repro.simulation.shm`),
so the result pipe carries only a tiny handle and the driver
materializes the final batch with one copy out of the segment
(bit-identical to the pickled fold).

Any object with a ``simulate(rng)`` method can stand in for the
simulator of object tasks.  A
:class:`~repro.rareevent.estimator.RareEventEstimator` does: it runs
one splitting unit per seed item, one unit per task, so rare-event
estimates share this dispatch, fold and crash path.

Telemetry round-trip
--------------------
One rule, :func:`worker_telemetry`, sets a run's telemetry by where its
chunks run.  A pool task carries the dispatching span's serialized
:class:`~repro.observability.spans.SpanContext` and a collect-metrics
flag: its chunk runs under a ``worker.chunk`` span and into a fresh
per-chunk registry, and both ride back on the result.  The fold
merges the registries into the parent one
(:meth:`MetricsRegistry.merge`), feeds the span records to the
collector, builds the run's progress events (between chunks, and from
inside in-process lockstep chunks), and finally publishes per-worker
utilization gauges (``sim.worker.<n>.chunks`` / ``.trajectories`` /
``.busy_seconds`` plus ``sim.workers``).  In-process chunks count
straight into the simulator's registry and ship nothing back.

A worker process dying (OOM-kill, segfault, ``os._exit``) surfaces as
a :class:`~repro.errors.SimulationError` instead of a hang or an
opaque pool exception.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial
from multiprocessing import resource_tracker
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
)

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.observability import instrumentation as _obs
from repro.observability import spans as _spans
from repro.observability.instrumentation import (
    SIM_WORKER_PREFIX,
    SIM_WORKERS,
    Instrumentation,
)
from repro.observability.logging_setup import get_logger, kv
from repro.observability.progress import ProgressEvent, ProgressReporter, current_progress
from repro.observability.spans import Span, SpanCollector
from repro.simulation.batch import TrajectoryAccumulator, TrajectoryBatch
from repro.simulation.executor import FMTSimulator, instrumentation_of
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

#: Cap on the per-trajectory seeds of one object-engine task.  A serial
#: study spawns each task's streams as the task starts, so this bounds
#: the SeedSequences it holds at once.
MAX_TASK_TRAJECTORIES = 1000


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
    point spawning more workers than there are seed items to share
    out).  Always >= 1.
    """
    count = min(_available_cpu_count(), MAX_DEFAULT_PROCESSES)
    if n_tasks is not None:
        count = min(count, n_tasks)
    return max(1, count)


def simulate_batch(
    simulator: FMTSimulator, seeds: Sequence[np.random.SeedSequence]
) -> List[Trajectory]:
    """Simulate one trajectory per seed, in-process."""
    return list(_trajectories(simulator, seeds))


def _trajectories(
    simulator: FMTSimulator, seeds: Iterable[np.random.SeedSequence]
) -> Iterator[Trajectory]:
    """One object-engine trajectory per seed.

    The simulator's telemetry tallies reach the registry once, when the
    seeds run out (:meth:`FMTSimulator.batch`; any object with a
    ``simulate(rng)`` method can stand in for the simulator), so the
    per-trajectory path makes no telemetry call beyond the simulator's
    own timer.
    """
    simulate = simulator.simulate
    with getattr(simulator, "batch", nullcontext)():
        for seed in seeds:
            yield simulate(np.random.default_rng(seed))


def _rows(seeds: Sequence) -> int:
    """Trajectories a task's seed items stand for (see
    :func:`simulate_batch_columns`)."""
    return sum(item[0] if isinstance(item, tuple) else 1 for item in seeds)


def simulate_batch_columns(
    simulator: FMTSimulator, seeds: Sequence
) -> TrajectoryBatch:
    """Simulate ``seeds``' trajectories, reduced to batch columns.

    This is the column body of every pipeline task, in-process or on a
    worker.  When the simulator runs the lockstep kernel
    (:func:`~repro.simulation.vectorized.runs_lockstep`), each item is
    a ``(size, seed)`` chunk item: ``size`` trajectories simulated as
    one chunk drawing from ``default_rng(seed)`` (a bare
    ``SeedSequence`` is a one-row chunk).  Otherwise — the object
    kernel, or a vectorized-kernel model that falls back — each item
    is one trajectory's ``SeedSequence``, and each trajectory object is
    folded into the accumulator as soon as it is produced: resident
    memory is one trajectory plus the columns, regardless of
    ``len(seeds)``.
    """
    return _columns(simulator, seeds)


def _columns(
    simulator: FMTSimulator,
    seeds: Sequence,
    progress: Optional[Callable[[int], None]] = None,
) -> TrajectoryBatch:
    """:func:`simulate_batch_columns`, telling ``progress`` the rows
    done so far per calendar epoch on the lockstep kernel.  The object
    engine reports at chunk boundaries only: its chunks are at most
    :data:`MAX_TASK_TRAJECTORIES` long, and a check per trajectory
    costs a watched run more than its 5% telemetry budget.  The
    callback never touches the RNG.
    """
    accumulator = TrajectoryAccumulator(horizon=simulator.config.horizon)
    if not runs_lockstep(simulator):
        accumulator.extend(_trajectories(simulator, seeds))
        return accumulator.finalize()
    kernel = VectorizedKernel(simulator)
    instr = instrumentation_of(simulator)
    done = 0
    for item in seeds:
        size, seed = item if isinstance(item, tuple) else (1, item)
        callback = None
        if progress is not None:

            def callback(frac, base=done, size=size):
                progress(base + int(size * frac))

        accumulator.add_batch(
            kernel.simulate_chunk(size, np.random.default_rng(seed), progress=callback)
        )
        if instr is not None:
            instr.count(_obs.SIM_TRAJECTORIES, size)
        done += size
    return accumulator.finalize()


# ----------------------------------------------------------------------
# The task, its result, and the one body that turns one into the other
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChunkTask:
    """One unit of work: a slice of the run's seed items.

    Picklable and small.  ``objects`` asks for a
    :class:`~repro.simulation.trace.Trajectory` list instead of batch
    columns; ``shm`` is the write window for the columns in the shared
    segment (None keeps them on the result pipe); ``span_parent`` (a
    serialized :class:`~repro.observability.spans.SpanContext`) and
    ``collect_metrics`` opt into the telemetry round-trip.
    """

    index: int
    seeds: Sequence
    objects: bool = False
    shm: Optional[ShmChunkSpec] = None
    span_parent: Optional[Dict[str, str]] = None
    collect_metrics: bool = False


@dataclass
class ChunkResult:
    """What a task returns; the telemetry fields stay empty when off."""

    payload: Any  # List[Trajectory], TrajectoryBatch or ShmChunkHandle
    n_trajectories: int
    pid: int
    seconds: float
    registry: Optional[Any] = None  # MetricsRegistry, when metrics were collected
    span: Optional[Dict[str, Any]] = None  # completed span record


def _run_chunk(
    simulator: FMTSimulator,
    task: ChunkTask,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ChunkResult:
    """Simulate one task, in-process or on a worker.

    With ``collect_metrics`` the chunk simulates into a *fresh*
    registry (temporarily swapped into the simulator config), so
    long-lived workers ship deltas, not cumulative totals, and the
    fold can merge every chunk without double counting.  ``progress``
    (in-process runs only, :meth:`_Fold.tick`) receives the chunk's
    rows and the rows done inside a lockstep chunk.  Strictly passive:
    the trajectories are the same with or without telemetry.
    """
    rows = _rows(task.seeds)
    if progress is not None:
        progress = partial(progress, rows)
    span = None
    if task.span_parent is not None:
        span = Span.start(
            "worker.chunk",
            parent=task.span_parent,
            attributes={
                "chunk": task.index,
                "n_trajectories": rows,
                "pid": os.getpid(),
            },
        )
    start = time.perf_counter()
    registry = None
    if task.collect_metrics:
        # A stand-in (a rare-event estimator) counts into the config of
        # the simulator it drives.
        target = getattr(simulator, "simulator", simulator)
        original = target.config
        instrumentation = Instrumentation()
        registry = instrumentation.registry
        target.config = replace(original, instrumentation=instrumentation)
    try:
        if task.objects:
            payload = list(_trajectories(simulator, task.seeds))
        else:
            payload = _columns(simulator, task.seeds, progress)
    finally:
        if registry is not None:
            target.config = original
    if task.shm is not None:
        # Columns go through the shared segment; only the tiny handle
        # rides the result pipe.
        payload = write_chunk_batch(payload, task.shm)
    return ChunkResult(
        payload=payload,
        n_trajectories=rows,
        pid=os.getpid(),
        seconds=time.perf_counter() - start,
        registry=registry,
        span=span.to_dict() if span is not None else None,
    )


# Pool worker state: simulators cached by payload digest, so one pool
# can serve many different studies and each worker unpickles a given
# simulator at most once.
_SHARED_SIMULATORS: Dict[str, FMTSimulator] = {}

#: Cached simulators kept per pool worker before the cache is cleared;
#: a study sweep touches a handful of simulators, and an unbounded
#: cache would pin every model a long-lived pool ever saw.
MAX_CACHED_SIMULATORS = 16


def _pool_task(job: Tuple[str, bytes, ChunkTask]) -> ChunkResult:
    """The pool's one entry point: ``(digest, pickled simulator, task)``."""
    digest, blob, task = job
    simulator = _SHARED_SIMULATORS.get(digest)
    if simulator is None:
        if len(_SHARED_SIMULATORS) >= MAX_CACHED_SIMULATORS:
            _SHARED_SIMULATORS.clear()
        simulator = _SHARED_SIMULATORS[digest] = pickle.loads(blob)
    return _run_chunk(simulator, task)


@contextmanager
def _interrupts_blocked() -> Iterator[None]:
    """Block SIGINT in this thread while it forks pool workers.

    Ctrl-C in a terminal signals the whole process group.  The driver
    handles it (:func:`_dispatch` cancels the queued chunks), so the
    workers, which inherit this thread's signal mask, never see it and
    print no traceback.  An interrupt of this process that arrives
    meanwhile is delivered when the mask is restored.
    """
    if not hasattr(signal, "pthread_sigmask"):  # pragma: no cover - not POSIX
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


class SharedSimulationPool:
    """A process pool reusable across many (simulator, seeds) studies.

    Created once and sized once, a shared pool serves every study of a
    sweep: tasks carry the pickled simulator plus its digest, and
    workers cache unpickled simulators by digest, so repeated studies
    of the same model pay the transfer but not the unpickling.  A run
    given no pool uses a dedicated one — a shared pool used once.

    Results are bit-identical to a serial run (the trajectories are
    functions of the seeds alone).  The pool is lazy — no processes
    exist until the first parallel study — and a worker crash poisons
    only the current executor: the next study transparently gets a
    fresh one.

    Threads may share one pool (the HTTP service's job threads do):
    one lock guards creating, discarding and shutting down the
    executor, so concurrent studies always get the same one.
    """

    def __init__(self, processes: Optional[int] = None):
        if processes is None:
            processes = default_process_count()
        elif processes < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, created with its workers on first use.

        The workers start here, in the calling thread, not at the
        executor's first task: a caller that starts threads afterwards
        (the HTTP service) then forks before it has any.  They start
        with SIGINT blocked (:func:`_interrupts_blocked`).
        """
        with self._lock:
            if self._executor is None:
                logger.debug(kv("shared pool start", processes=self.processes))
                if os.name == "posix":
                    # Workers forked after the resource tracker starts
                    # share it (see repro.simulation.shm._attach).
                    resource_tracker.ensure_running()
                with _interrupts_blocked():
                    executor = ProcessPoolExecutor(max_workers=self.processes)
                    # One no-op per worker starts them all (a fork-context
                    # executor forks every worker at its first submit).  A
                    # worker that dies breaks the executor, so the study's
                    # own tasks report it; these results are not needed.
                    for _ in range(self.processes):
                        executor.submit(os.getpid)
                self._executor = executor
            return self._executor

    def invalidate(self) -> None:
        """Discard a (possibly broken) executor; next use starts fresh."""
        with self._lock:
            executor, self._executor = self._executor, None
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)

    def _discard(self, executor: ProcessPoolExecutor) -> None:
        """:meth:`invalidate` ``executor`` only if it is still the live one.

        Every study on a broken executor sees it break; the ones that
        notice late must not discard the executor a later study has
        already started in its place.
        """
        with self._lock:
            if self._executor is executor:
                self._executor = None
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Terminate the workers (idempotent)."""
        with self._lock:
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


# ----------------------------------------------------------------------
# Dispatch and fold
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerTelemetry:
    """Driver-side telemetry configuration for one run, built by
    :func:`worker_telemetry`.  The default — ``None`` everywhere — is
    telemetry off."""

    instrumentation: Optional[Instrumentation] = None
    collector: Optional[SpanCollector] = None
    span_parent: Optional[Dict[str, str]] = None
    progress: Optional[ProgressReporter] = None
    phase: str = "mc.run_parallel"


def worker_telemetry(
    simulator: FMTSimulator,
    processes: int,
    phase: str,
    progress: Optional[ProgressReporter] = None,
) -> WorkerTelemetry:
    """The telemetry of a run whose chunks run on ``processes``.

    Progress goes to ``progress``, else the ambient reporter.  In-process
    chunks count straight into the simulator's registry
    (:func:`instrumentation_of`); pooled ones ship theirs back for
    merging, with a ``worker.chunk`` span under the ambient span, and
    leave ``sim.worker.<n>.*`` gauges.
    """
    if progress is None:
        progress = current_progress()
    if processes == 1:
        return WorkerTelemetry(progress=progress, phase=phase)
    context = _spans.current_context()
    return WorkerTelemetry(
        instrumentation=instrumentation_of(simulator),
        collector=_spans.current_collector(),
        span_parent=context.to_dict() if context is not None else None,
        progress=progress,
        phase=phase,
    )


_SILENT = WorkerTelemetry()


class _Fold:
    """Driver side of the pipeline: results in seed order to payloads.

    Merges worker registries into the parent instrumentation, routes
    span records to the collector, builds the run's progress events,
    and — once the dispatch completes — publishes per-worker
    utilization gauges.
    """

    def __init__(self, telemetry: WorkerTelemetry, total: int):
        self.telemetry = telemetry
        self.total = total
        # Trajectories between in-chunk progress events.
        self.step = max(1, min(1000, total // 50))
        self.next = self.step
        self.completed = 0
        self.start = time.perf_counter()
        # pid -> [chunks, trajectories, busy seconds], ordinal by first
        # appearance in (deterministic) seed-order completion.
        self.workers: Dict[int, List[float]] = {}

    def __call__(self, results: Iterable[ChunkResult]) -> Iterator[Any]:
        telemetry = self.telemetry
        for result in results:
            self.completed += result.n_trajectories
            self.next = self.completed + self.step
            stats = self.workers.setdefault(result.pid, [0, 0, 0.0])
            stats[0] += 1
            stats[1] += result.n_trajectories
            stats[2] += result.seconds
            if telemetry.instrumentation is not None and result.registry is not None:
                telemetry.instrumentation.registry.merge(result.registry)
            if telemetry.collector is not None and result.span is not None:
                telemetry.collector.add_record(result.span)
            self.report(self.completed)
            yield result.payload
        instrumentation = telemetry.instrumentation
        if instrumentation is None or not self.workers:
            return
        instrumentation.set_gauge(SIM_WORKERS, len(self.workers))
        for ordinal, (chunks, trajectories, busy) in enumerate(self.workers.values()):
            prefix = f"{SIM_WORKER_PREFIX}.{ordinal}"
            instrumentation.set_gauge(f"{prefix}.chunks", chunks)
            instrumentation.set_gauge(f"{prefix}.trajectories", trajectories)
            instrumentation.set_gauge(f"{prefix}.busy_seconds", busy)

    def tick(self, rows: int, done: int) -> None:
        """In-chunk progress: ``done`` of the running chunk's ``rows``.

        Emits at most every :attr:`step` trajectories and leaves the
        chunk's last row to the boundary event.
        """
        completed = self.completed + done
        if completed >= self.next and done < rows:
            self.next = completed + self.step
            self.report(completed)

    def report(self, completed: int) -> None:
        """Emit the run's progress event (the only place one is built)."""
        progress = self.telemetry.progress
        if progress is None:
            return
        elapsed = time.perf_counter() - self.start
        rate = completed / elapsed if elapsed > 0 else None
        progress.update(
            ProgressEvent(
                phase=self.telemetry.phase,
                completed=completed,
                total=self.total,
                elapsed_seconds=elapsed,
                rate_per_sec=rate,
                eta_seconds=((self.total - completed) / rate) if rate else None,
                done=completed >= self.total,
            )
        )


def _tasks(
    simulator: FMTSimulator,
    seeds: Sequence,
    processes: int,
    chunk_size: Optional[int],
    objects: bool,
    telemetry: WorkerTelemetry,
) -> Tuple[Iterator[ChunkTask], int]:
    """The run's tasks (cut lazily, in seed order) and its trajectory count.

    ``chunk_size`` counts seed items per task.  By default a lockstep
    chunk item is a task of its own, and per-trajectory seeds are cut
    into ``processes * 4`` tasks of at most
    :data:`MAX_TASK_TRAJECTORIES`.
    """
    if processes < 1:
        raise ValidationError(f"processes must be >= 1, got {processes}")
    lockstep = not objects and runs_lockstep(simulator)
    if chunk_size is None:
        chunk_size = 1 if lockstep else min(
            MAX_TASK_TRAJECTORIES, max(1, len(seeds) // (processes * 4))
        )
    elif chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    tasks = (
        ChunkTask(
            index=index,
            seeds=seeds[start:start + chunk_size],
            objects=objects,
            span_parent=telemetry.span_parent,
            collect_metrics=telemetry.instrumentation is not None,
        )
        for index, start in enumerate(range(0, len(seeds), chunk_size))
    )
    return tasks, _rows(seeds) if lockstep else len(seeds)


def _dispatch(
    simulator: FMTSimulator,
    tasks: Iterable[ChunkTask],
    total: int,
    processes: int,
    pool: Optional[SharedSimulationPool],
    telemetry: WorkerTelemetry,
) -> Iterator[Any]:
    """Yield the tasks' payloads in seed order.

    One process runs the tasks in-process, the pipeline's serial path;
    more run them on ``pool``, or on a dedicated pool used once.
    """
    fold = _Fold(telemetry, total)
    logger.debug(
        kv(
            "chunk dispatch",
            trajectories=total,
            processes=processes,
            shared=pool is not None,
        )
    )
    if processes == 1:
        tick = fold.tick if telemetry.progress is not None else None
        yield from fold(_run_chunk(simulator, task, tick) for task in tasks)
        return
    owned = pool is None
    if owned:
        pool = SharedSimulationPool(processes)
    blob = pickle.dumps(simulator, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).hexdigest()
    executor = pool.executor()
    try:
        jobs = [(digest, blob, task) for task in tasks]
        yield from fold(executor.map(_pool_task, jobs))
    except BrokenProcessPool as exc:
        pool._discard(executor)
        logger.error(
            kv(
                "worker process crashed",
                processes=processes,
                completed=fold.completed,
                total=total,
            )
        )
        raise SimulationError(
            "a Monte Carlo worker process terminated abruptly "
            f"(completed {fold.completed}/{total} trajectories); "
            "rerun with processes=1 to reproduce the failure in-process"
        ) from exc
    except KeyboardInterrupt:
        # Cancel the queued chunks rather than wait for them; the
        # workers finish the chunks they hold and exit.
        pool._discard(executor)
        raise
    finally:
        if owned:
            pool.shutdown()


def sample_parallel(
    simulator: FMTSimulator,
    seeds: Sequence[np.random.SeedSequence],
    processes: int,
    chunk_size: Optional[int] = None,
    pool: Optional[SharedSimulationPool] = None,
    telemetry: WorkerTelemetry = _SILENT,
) -> List[Trajectory]:
    """Simulate one trajectory per seed across worker processes.

    Results are returned in seed order (hence identical to a serial
    run over the same seeds, regardless of worker scheduling).  When a
    :class:`SharedSimulationPool` is given its workers are reused and
    ``processes`` is taken from the pool; otherwise a dedicated pool is
    used for this call (none at all for one process).  ``telemetry``
    (built by :func:`worker_telemetry` for the process count the
    chunks run on) opts into the worker metric/span/progress
    round-trip — trajectories are bit-identical with or without it.

    Raises
    ------
    SimulationError
        If a worker process dies (the pool is then unusable); the
        original pool exception is chained as ``__cause__``.
    """
    if pool is not None:
        processes = pool.processes
    tasks, total = _tasks(simulator, seeds, processes, chunk_size, True, telemetry)
    results: List[Trajectory] = []
    for chunk in _dispatch(simulator, tasks, total, processes, pool, telemetry):
        results.extend(chunk)
    return results


def sample_parallel_batch(
    simulator: FMTSimulator,
    seeds: Sequence,
    processes: int,
    chunk_size: Optional[int] = None,
    pool: Optional[SharedSimulationPool] = None,
    telemetry: WorkerTelemetry = _SILENT,
    use_shared_memory: Optional[bool] = None,
) -> TrajectoryBatch:
    """Like :func:`sample_parallel`, returning packed batch columns.

    Tasks return :class:`~repro.simulation.batch.TrajectoryBatch`
    columns instead of object lists — the resulting batch's columns
    (and hence every KPI computed from them) are bit-identical to
    ``TrajectoryBatch.from_trajectories(sample_parallel(...))``, while
    resident memory stays O(columns).

    ``seeds`` holds the seed items of :func:`simulate_batch_columns`,
    and the result equals ``simulate_batch_columns(simulator, seeds)``
    whatever ``processes`` and ``chunk_size``.  ``chunk_size`` counts
    items per task; for a lockstep simulator it defaults to one
    ``(size, seed)`` chunk item per task, so the pool balances load by
    chunk count.

    On a pool, by default (``use_shared_memory=None`` → on where
    supported) the columns never ride the result pipe at all: the
    driver pre-sizes one ``multiprocessing.shared_memory`` segment
    from the tasks' row counts, workers scatter their columns into it
    at their task's row offset, and the driver materializes the final
    batch with a single copy out of the segment (see
    :mod:`repro.simulation.shm`).  The segment is unlinked in a
    ``finally`` even when a worker crashes.  Pass
    ``use_shared_memory=False`` to force the pickled fold — the result
    is bit-identical either way (the test suite asserts it).
    """
    if pool is not None:
        processes = pool.processes
    tasks, total = _tasks(simulator, seeds, processes, chunk_size, False, telemetry)
    horizon = simulator.config.horizon
    writer = None
    if processes > 1 and use_shared_memory is not False and shared_memory_available():
        tasks = list(tasks)
        try:
            writer = ShmBatchWriter(horizon, [_rows(task.seeds) for task in tasks])
        except OSError as exc:  # pragma: no cover - constrained /dev/shm
            logger.warning(
                kv("shared-memory segment unavailable", error=repr(exc))
            )
        else:
            tasks = [replace(task, shm=writer.spec(task.index)) for task in tasks]
    try:
        payloads = _dispatch(simulator, tasks, total, processes, pool, telemetry)
        if writer is not None:
            return writer.finalize(list(payloads))
        accumulator = TrajectoryAccumulator(horizon=horizon)
        for batch in payloads:
            accumulator.add_batch(batch)
        return accumulator.finalize()
    finally:
        if writer is not None:
            writer.close()
