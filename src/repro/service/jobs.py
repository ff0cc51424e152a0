"""Bounded job queue with warm-start workers and in-flight dedup.

The service accepts more clients than it can simulate for at once;
the :class:`JobQueue` is the pressure valve between them:

* **bounded**: at most ``max_pending`` jobs wait; a submit beyond that
  raises :class:`QueueFull`, which the HTTP layer maps to ``429`` with
  a ``Retry-After`` header — backpressure, not an unbounded backlog;
* **deduplicating**: submits are keyed by the request's
  :class:`~repro.studies.key.StudyKey` digest; a request identical to
  one already queued or running attaches to the existing job instead
  of simulating again — many clients, one simulation;
* **warm-start**: all workers share one
  :class:`~repro.studies.StudyRunner`, whose prototype LRU keeps a
  validated simulator resident per model; each job clones the
  prototype instead of re-validating the tree (the PR 4 clone path),
  so repeat models skip construction entirely;
* **observable**: each job accumulates the run's
  :class:`~repro.observability.progress.ProgressEvent` records
  (schema v1), which ``GET /v1/studies/{id}/events`` streams back.

Workers are threads, not processes: the service's runner owns the
process pool that simulates, and a job thread only dispatches to it,
folds, summarizes and stores.  The threads should not simulate
themselves (they do only with a serial runner): the lockstep kernel
holds the interpreter lock through hundreds of small numpy calls per
epoch, so two 2,000-run studies took a median 236 ms on two threads
against 138 ms back to back (8 pairs, 2-CPU Linux container), and
every cached read waited behind them.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional

from repro.observability.progress import ProgressEvent, use_progress
from repro.simulation.metrics import KpiSummary
from repro.studies.runner import StudyRequest, StudyRunner

__all__ = ["Job", "JobQueue", "QueueFull"]

#: Finished jobs retained for status queries before eviction.
DEFAULT_MAX_FINISHED = 1024

_STOP = object()


class QueueFull(Exception):
    """The pending queue is at capacity; retry after ``retry_after``."""

    def __init__(self, pending: int, retry_after: float):
        super().__init__(
            f"job queue full ({pending} pending); retry in {retry_after:g}s"
        )
        self.pending = pending
        self.retry_after = retry_after


class Job:
    """One submitted study and its lifecycle.

    Status moves ``queued`` → ``running`` → ``done`` | ``failed``.
    ``result`` holds the :class:`KpiSummary` once done; ``events`` the
    progress records collected while running.  ``kernel`` is the
    sampling kernel the job runs on (after any service-side routing)
    and ``kernel_fallback`` the reason a vectorized run will fall back
    to the object engine, when known.  All fields are written by
    exactly one worker thread and read by HTTP threads; the
    ``threading.Event`` publishes the final state safely.
    """

    __slots__ = (
        "id",
        "request",
        "digest",
        "status",
        "result",
        "error",
        "events",
        "kernel",
        "kernel_fallback",
        "created_at",
        "started_at",
        "finished_at",
        "_finished",
    )

    def __init__(
        self,
        job_id: str,
        request: StudyRequest,
        digest: str,
        kernel_fallback: Optional[str] = None,
    ):
        self.id = job_id
        self.request = request
        self.digest = digest
        self.kernel = request.kernel
        self.kernel_fallback = kernel_fallback
        self.status = "queued"
        self.result: Optional[KpiSummary] = None
        self.error: Optional[str] = None
        self.events: List[dict] = []
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._finished = threading.Event()

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self._finished.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes (or ``timeout`` elapses)."""
        return self._finished.wait(timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Job({self.id}, {self.status}, digest={self.digest[:12]})"


class _JobProgressReporter:
    """Collects a job's progress events (schema v1 dict records)."""

    def __init__(self, job: Job):
        self._job = job

    def update(self, event: ProgressEvent) -> None:
        self._job.events.append(event.to_dict())

    def close(self) -> None:
        pass


class JobQueue:
    """Bounded queue of study jobs executed by warm worker threads."""

    def __init__(
        self,
        runner: StudyRunner,
        max_pending: int = 64,
        workers: int = 2,
        retry_after: float = 1.0,
        max_finished: int = DEFAULT_MAX_FINISHED,
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.runner = runner
        self.max_pending = max_pending
        self.retry_after = retry_after
        self.max_finished = max_finished
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_pending)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-{n}", daemon=True
            )
            for n in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------
    def submit(
        self,
        request: StudyRequest,
        kernel_fallback: Optional[str] = None,
    ) -> "tuple[Job, bool]":
        """Enqueue ``request``; returns ``(job, created)``.

        ``created`` is False when an identical request (same study-key
        digest) is already queued or running — the caller gets that
        job instead, so N clients asking the same question cost one
        simulation.  ``kernel_fallback`` annotates the job with the
        reason a vectorized run will use the object engine (surfaced
        by the status endpoint).

        Raises
        ------
        QueueFull
            When the pending queue is at capacity.
        """
        digest = request.key().digest
        with self._lock:
            existing = self._inflight.get(digest)
            if existing is not None:
                return existing, False
            job = Job(
                f"job-{next(self._ids):06d}-{digest[:8]}",
                request,
                digest,
                kernel_fallback=kernel_fallback,
            )
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                raise QueueFull(self._queue.qsize(), self.retry_after) from None
            self._inflight[digest] = job
            self._jobs[job.id] = job
            self._evict_finished()
        return job, True

    def get(self, job_id: str) -> Optional[Job]:
        """The job with this id, or None (expired or never existed)."""
        with self._lock:
            return self._jobs.get(job_id)

    @property
    def pending(self) -> int:
        """Jobs waiting for a worker (excludes the ones running)."""
        return self._queue.qsize()

    @property
    def inflight(self) -> int:
        """Jobs queued or running."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> Dict[str, int]:
        """Snapshot for ``/healthz``."""
        with self._lock:
            return {
                "pending": self._queue.qsize(),
                "inflight": len(self._inflight),
                "retained": len(self._jobs),
                "workers": len(self._workers),
            }

    def close(self) -> None:
        """Stop the workers after the jobs already queued drain."""
        for _ in self._workers:
            self._queue.put(_STOP)
        for worker in self._workers:
            worker.join(timeout=30.0)
        self._workers = []

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _evict_finished(self) -> None:
        """Drop the oldest finished jobs beyond the retention cap.

        Called with the lock held.  Unfinished jobs are never evicted,
        so a slow job's status stays queryable no matter the churn.
        """
        excess = len(self._jobs) - self.max_finished
        if excess <= 0:
            return
        for job_id in [
            job_id
            for job_id, job in self._jobs.items()
            if job.finished
        ][:excess]:
            del self._jobs[job_id]

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            job.started_at = time.time()
            job.status = "running"
            reporter = _JobProgressReporter(job)
            try:
                with use_progress(reporter):
                    job.result = self.runner.summary(job.request)
                job.status = "done"
            except Exception as exc:  # the job fails, the worker survives
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = "failed"
            finally:
                job.finished_at = time.time()
                with self._lock:
                    self._inflight.pop(job.digest, None)
                job._finished.set()
