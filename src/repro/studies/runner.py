"""The cross-experiment study runner: request KPIs, not simulations.

Experiments used to construct a :class:`~repro.simulation.montecarlo.
MonteCarlo` driver each and re-simulate overlapping studies from
scratch — ``fig4``/``fig5``/``fig6``/``optimum`` all evaluate the
current quarterly policy at the identical headline configuration, and
a second ``repro all`` repeated every trajectory.  The
:class:`StudyRunner` inverts the dependency: experiments describe the
study they need (:class:`StudyRequest`) and the runner decides whether
to serve it from memory, from the disk cache, or by simulating — in
the latter case with child RNG streams identical to a direct
``MonteCarlo`` run, so cached and fresh results are bit-identical.

Artifacts
---------
One simulation can back several cached *artifacts*, each content
addressed by :meth:`StudyKey.derive`:

* ``summary`` — the :class:`~repro.simulation.metrics.KpiSummary`;
* ``reliability_curve`` — survival intervals on a specific time grid;
* ``statistic:<name>`` — a named reduction of the raw trajectories
  (failure shares, incident databases, ...);
* ``rare_event`` — an importance-splitting estimate for a specific
  :class:`~repro.rareevent.estimator.RareEventConfig`.

Whenever trajectories are simulated for a curve or statistic, the
summary artifact is stored too, so e.g. ``fig4``'s current-policy run
also satisfies ``fig5``'s.

Cache behaviour surfaces through the PR-1 instrumentation counters
(``study.requests``, ``study.memo_hits``, ``study.disk_hits``,
``study.misses``, ``study.fresh_trajectories``, ``study.disk_writes``,
``study.disk_corrupt``, ``study.memo_evictions``); the CLI's
``--metrics-out`` makes them machine-checkable, which is how CI
asserts that a warm-cache rerun simulates nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.tree import FaultMaintenanceTree
from repro.errors import ValidationError
from repro.maintenance.costs import CostModel
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability import instrumentation as _obs
from repro.observability import spans as _spans
from repro.observability.instrumentation import Instrumentation
from repro.observability.logging_setup import get_logger, kv
from repro.simulation.executor import (
    DEFAULT_CHUNK_TRAJECTORIES,
    FMTSimulator,
    SimulationConfig,
)
from repro.simulation.metrics import KpiSummary, reliability_curve
from repro.simulation.montecarlo import MonteCarlo, MonteCarloResult
from repro.simulation.trace import Trajectory
from repro.studies.cache import DiskCache
from repro.studies.key import StudyKey, canonical, study_material
from repro.stats.confidence import ConfidenceInterval

__all__ = [
    "StudyRequest",
    "StudyRunner",
    "current_runner",
    "use_runner",
    "get_runner",
    "set_default_runner",
]

logger = get_logger(__name__)

#: Studies at or above this replication count fan out to the shared
#: pool (when the runner has one); smaller studies run serially, where
#: IPC overhead would dominate.
DEFAULT_PARALLEL_THRESHOLD = 1000

#: In-memory artifact entries kept before least-recently-used eviction.
DEFAULT_MAX_MEMO_ENTRIES = 512

#: Validated simulator prototypes kept for clone-from-prototype reuse
#: before least-recently-used eviction.  A handful of models covers a
#: full ``repro all`` run; prototypes are cheap to rebuild on a miss.
DEFAULT_MAX_PROTOTYPES = 32


@dataclass(frozen=True)
class StudyRequest:
    """One fully specified Monte Carlo study.

    The fields mirror the :class:`~repro.simulation.montecarlo.
    MonteCarlo` constructor plus the replication knobs; together they
    determine the simulated trajectories and the KPI aggregation
    exactly, which is what makes the request content-addressable.
    """

    tree: FaultMaintenanceTree
    strategy: Optional[MaintenanceStrategy] = None
    horizon: float = 10.0
    cost_model: Optional[CostModel] = None
    seed: int = 0
    n_runs: int = 1
    confidence: float = 0.95
    record_events: bool = False
    kernel: str = "object"
    chunk_trajectories: int = DEFAULT_CHUNK_TRAJECTORIES

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValidationError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.horizon <= 0.0:
            raise ValidationError(
                f"horizon must be positive, got {self.horizon}"
            )
        if self.chunk_trajectories < 1:
            raise ValidationError(
                "chunk_trajectories must be >= 1, "
                f"got {self.chunk_trajectories}"
            )

    def key(self) -> StudyKey:
        """The content address of this request (computed per call)."""
        return StudyKey.from_material(
            study_material(
                tree=self.tree,
                strategy=self.strategy,
                horizon=self.horizon,
                cost_model=self.cost_model,
                seed=self.seed,
                n_runs=self.n_runs,
                confidence=self.confidence,
                record_events=self.record_events,
                kernel=self.kernel,
                chunk_trajectories=self.chunk_trajectories,
            )
        )

    def simulator_material(self) -> str:
        """Canonical material of the simulator this request needs.

        Excludes the replication knobs (seed, n_runs, confidence): two
        requests that agree on this material can serve their runs from
        clones of one validated simulator prototype.
        """
        return study_material(
            tree=self.tree,
            strategy=self.strategy,
            horizon=self.horizon,
            cost_model=self.cost_model,
            seed=0,
            n_runs=1,
            confidence=0.95,
            record_events=self.record_events,
            kernel=self.kernel,
            chunk_trajectories=self.chunk_trajectories,
        )

    def to_dict(self) -> dict:
        """JSON-safe description of the request (inverse of
        :meth:`from_dict`).

        Every constituent serializes through its own ``to_dict``, so
        the round trip reconstructs a request with the identical
        :meth:`key` digest — which is what lets a JSON payload
        submitted over the wire share cache entries with in-process
        studies.  The service wire format wraps this dict in a
        versioned envelope (:mod:`repro.service.wire`).
        """
        return {
            "tree": self.tree.to_dict(),
            "strategy": (
                self.strategy.to_dict() if self.strategy is not None else None
            ),
            "horizon": self.horizon,
            "cost_model": (
                self.cost_model.to_dict()
                if self.cost_model is not None
                else None
            ),
            "seed": self.seed,
            "n_runs": self.n_runs,
            "confidence": self.confidence,
            "record_events": self.record_events,
            "kernel": self.kernel,
            "chunk_trajectories": self.chunk_trajectories,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StudyRequest":
        """Inverse of :meth:`to_dict`."""
        strategy = data.get("strategy")
        cost_model = data.get("cost_model")
        return cls(
            tree=FaultMaintenanceTree.from_dict(data["tree"]),
            strategy=(
                MaintenanceStrategy.from_dict(strategy)
                if strategy is not None
                else None
            ),
            horizon=float(data.get("horizon", 10.0)),
            cost_model=(
                CostModel.from_dict(cost_model)
                if cost_model is not None
                else None
            ),
            seed=int(data.get("seed", 0)),
            n_runs=int(data.get("n_runs", 1)),
            confidence=float(data.get("confidence", 0.95)),
            record_events=bool(data.get("record_events", False)),
            kernel=str(data.get("kernel", "object")),
            chunk_trajectories=int(
                data.get("chunk_trajectories", DEFAULT_CHUNK_TRAJECTORIES)
            ),
        )

    def build_simulator(self) -> FMTSimulator:
        """A validated simulator for this request (prototype material)."""
        config = SimulationConfig(
            horizon=self.horizon,
            cost_model=(
                self.cost_model if self.cost_model is not None else CostModel()
            ),
            record_events=self.record_events,
            kernel=self.kernel,
            chunk_trajectories=self.chunk_trajectories,
        )
        return FMTSimulator(self.tree, self.strategy, config=config)

    def driver(self, simulator: Optional[FMTSimulator] = None) -> MonteCarlo:
        """A fresh Monte Carlo driver for this request.

        The driver starts from the root seed, so its child streams are
        exactly those of the historical per-experiment code path.
        ``simulator`` optionally passes a validated prototype (built by
        :meth:`build_simulator` for the same request material) that the
        driver clones instead of re-validating the tree — bit-identical
        either way.
        """
        if simulator is not None:
            return MonteCarlo(
                seed=self.seed,
                record_events=self.record_events,
                simulator=simulator,
            )
        return MonteCarlo(
            self.tree,
            self.strategy,
            horizon=self.horizon,
            cost_model=self.cost_model,
            seed=self.seed,
            record_events=self.record_events,
            kernel=self.kernel,
            chunk_trajectories=self.chunk_trajectories,
        )


class StudyRunner:
    """Memoizing dispatcher for Monte Carlo studies.

    Parameters
    ----------
    cache_dir:
        Directory of the persistent artifact cache; ``None`` (default)
        keeps memoization in-process only.
    processes:
        Size of the shared worker pool, fixed once here (``None`` picks
        :func:`~repro.simulation.parallel.default_process_count`).
        ``1`` disables parallelism entirely.
    parallel_threshold:
        Minimum ``n_runs`` for a study to use the shared pool.
    max_memo_entries:
        In-memory artifact entries kept before LRU eviction (the disk
        cache, when enabled, still holds evicted artifacts).
    instrumentation:
        Explicit metrics sink for the cache counters and for the
        simulations the runner runs; falls back to the ambient
        :func:`repro.observability.current` at call time.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        processes: int = 1,
        parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
        max_memo_entries: int = DEFAULT_MAX_MEMO_ENTRIES,
        instrumentation: Optional[Instrumentation] = None,
    ):
        from repro.simulation.parallel import (
            SharedSimulationPool,
            default_process_count,
        )

        if processes is None:
            processes = default_process_count()
        if processes < 1:
            raise ValidationError(f"processes must be >= 1, got {processes}")
        if parallel_threshold < 1:
            raise ValidationError(
                f"parallel_threshold must be >= 1, got {parallel_threshold}"
            )
        if max_memo_entries < 1:
            raise ValidationError(
                f"max_memo_entries must be >= 1, got {max_memo_entries}"
            )
        self.disk = DiskCache(cache_dir) if cache_dir is not None else None
        self.processes = processes
        self.parallel_threshold = parallel_threshold
        self.max_memo_entries = max_memo_entries
        self.instrumentation = instrumentation
        self._memo: "OrderedDict[str, Any]" = OrderedDict()
        self._prototypes: "OrderedDict[str, FMTSimulator]" = OrderedDict()
        # The HTTP service shares one runner across worker threads;
        # the LRU bookkeeping (move_to_end + eviction) is not atomic,
        # so cache-structure mutations take this lock.  Simulation
        # itself runs outside the lock and stays concurrent.
        self._lock = threading.RLock()
        self._pool = (
            SharedSimulationPool(processes) if processes > 1 else None
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def summary(self, request: StudyRequest) -> KpiSummary:
        """KPI summary of the study (cached)."""

        def compute() -> Tuple[KpiSummary, Dict[StudyKey, Any], int]:
            result = self._simulate(request, keep_trajectories=False)
            return result.summary, {}, request.n_runs

        return self._artifact(request.key(), "summary", None, compute)

    def peek_summary(self, request: StudyRequest) -> Optional[KpiSummary]:
        """The cached summary of the study, or ``None`` — never simulates.

        The HTTP service uses this as its cache fast path: a request
        whose summary is already memoized (or on disk) is answered
        synchronously without touching the job queue.  A hit counts in
        the usual ``study.*`` instrumentation; a miss counts nothing,
        because the caller is expected to follow up with
        :meth:`summary` (which records the miss).
        """
        key = request.key().derive("summary", None)
        hit, value = self._memo_get(key.digest)
        if hit:
            self._count(_obs.STUDY_REQUESTS)
            self._count(_obs.STUDY_MEMO_HITS)
            return value
        if self.disk is not None:
            hit, value, corrupt = self.disk.load(key)
            if corrupt:
                self._count(_obs.STUDY_DISK_CORRUPT)
            if hit:
                self._count(_obs.STUDY_REQUESTS)
                self._count(_obs.STUDY_DISK_HITS)
                self._memo_put(key.digest, value)
                return value
        return None

    def result(self, request: StudyRequest) -> MonteCarloResult:
        """Like :meth:`summary`, wrapped in a :class:`MonteCarloResult`.

        Lets refactored call sites keep using the pass-through
        properties (``.unreliability``, ``.cost_per_year``, ...).
        Trajectories are never retained.
        """
        return MonteCarloResult(summary=self.summary(request))

    def reliability_curve(
        self, request: StudyRequest, times: Sequence[float]
    ) -> Tuple[np.ndarray, List[ConfidenceInterval]]:
        """Survival curve of the study on ``times`` (cached per grid)."""
        grid = [float(t) for t in times]
        base = request.key()

        def compute() -> Tuple[Any, Dict[StudyKey, Any], int]:
            # The curve only needs first-failure times, so the study
            # streams into a columnar batch instead of keeping n_runs
            # Trajectory objects alive (bit-identical intervals).
            result = self._simulate(request, keep_trajectories=False)
            material = (
                result.batch if result.batch is not None else result.trajectories
            )
            _, intervals = reliability_curve(
                material, grid, request.confidence
            )
            extras = {base.derive("summary", None): result.summary}
            return tuple(intervals), extras, request.n_runs

        intervals = self._artifact(
            base, "reliability_curve", {"grid": grid}, compute
        )
        return np.asarray(grid, dtype=float), list(intervals)

    def statistic(
        self,
        request: StudyRequest,
        name: str,
        reducer: Callable[[Sequence[Trajectory]], Any],
        version: str = "1",
    ) -> Any:
        """A named reduction of the study's raw trajectories (cached).

        ``reducer`` maps the trajectory list to a picklable value; it
        must be a pure function of the trajectories.  ``name`` and
        ``version`` are part of the content address — bump ``version``
        whenever the reduction's semantics change, or stale disk
        entries would be served for the new code.
        """

        def compute() -> Tuple[Any, Dict[StudyKey, Any], int]:
            result = self._simulate(request, keep_trajectories=True)
            value = reducer(result.trajectories)
            extras = {
                request.key().derive("summary", None): result.summary
            }
            return value, extras, request.n_runs

        return self._artifact(
            request.key(),
            f"statistic:{name}",
            {"version": version},
            compute,
        )

    def rare_event(self, request: StudyRequest, config: Any) -> Any:
        """Importance-splitting estimate for the study (cached).

        ``request.n_runs`` is ignored by the splitting estimator (the
        effort lives in ``config``); by convention requests pass
        ``n_runs=1`` so unrelated replication knobs do not fracture
        the key.
        """

        def compute() -> Tuple[Any, Dict[StudyKey, Any], int]:
            driver = request.driver(simulator=self._prototype(request))
            result = driver.run_rare_event(config, confidence=request.confidence)
            return result, {}, result.n_trajectories

        return self._artifact(
            request.key(), "rare_event", {"config": canonical(config)}, compute
        )

    def start(self) -> None:
        """Start the shared pool's workers now (no-op for a serial runner).

        They otherwise start with the first pooled study.  The workers
        are forked, and forking a process that runs other threads can
        deadlock a worker on a lock one of those threads held, so a
        caller about to start threads (the HTTP service) calls this
        first.
        """
        if self._pool is not None:
            self._pool.executor()

    def close(self) -> None:
        """Shut down the shared pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "StudyRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def cache_info(self) -> Dict[str, int]:
        """Snapshot of the cache state (for tests and reports)."""
        return {
            "memo_entries": len(self._memo),
            "disk_entries": len(self.disk) if self.disk is not None else 0,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _instr(self) -> Optional[Instrumentation]:
        if self.instrumentation is not None:
            return self.instrumentation
        return _obs.current()

    def _count(self, name: str, amount: int = 1) -> None:
        instr = self._instr()
        if instr is not None:
            instr.count(name, amount)

    def _memo_get(self, digest: str) -> Tuple[bool, Any]:
        with self._lock:
            if digest not in self._memo:
                return False, None
            self._memo.move_to_end(digest)
            return True, self._memo[digest]

    def _memo_put(self, digest: str, value: Any) -> None:
        with self._lock:
            if digest in self._memo:
                self._memo.move_to_end(digest)
                self._memo[digest] = value
                return
            while len(self._memo) >= self.max_memo_entries:
                self._memo.popitem(last=False)
                self._count(_obs.STUDY_MEMO_EVICTIONS)
            self._memo[digest] = value

    def _store(self, key: StudyKey, value: Any) -> None:
        self._memo_put(key.digest, value)
        if self.disk is not None:
            self.disk.store(key, value)
            self._count(_obs.STUDY_DISK_WRITES)

    def _artifact(
        self,
        base: StudyKey,
        artifact: str,
        extra: Any,
        compute: Callable[[], Tuple[Any, Dict[StudyKey, Any], int]],
    ) -> Any:
        """Serve one artifact through memo -> disk -> fresh simulation.

        ``compute`` returns ``(value, extras, fresh_trajectories)``
        where ``extras`` maps sibling artifact keys to values produced
        by the same simulation (stored alongside, never overwriting a
        cached entry's identity — the keys are content addresses).
        """
        key = base.derive(artifact, extra)
        self._count(_obs.STUDY_REQUESTS)
        with _spans.span(
            "study.request",
            {"artifact": artifact, "digest": key.digest[:12]},
        ) as request_span:
            hit, value = self._memo_get(key.digest)
            if hit:
                self._count(_obs.STUDY_MEMO_HITS)
                request_span.set_attribute("outcome", "memo_hit")
                return value
            if self.disk is not None:
                hit, value, corrupt = self.disk.load(key)
                if corrupt:
                    self._count(_obs.STUDY_DISK_CORRUPT)
                if hit:
                    self._count(_obs.STUDY_DISK_HITS)
                    request_span.set_attribute("outcome", "disk_hit")
                    self._memo_put(key.digest, value)
                    return value
            self._count(_obs.STUDY_MISSES)
            request_span.set_attribute("outcome", "miss")
            # The runner's sink also takes the simulation's sim.*
            # metrics, whichever thread runs the study: the service's
            # job threads have no ambient instrumentation of their own.
            with _obs.use(self.instrumentation):
                value, extras, fresh = compute()
            self._count(_obs.STUDY_FRESH_TRAJECTORIES, fresh)
            request_span.set_attribute("fresh_trajectories", fresh)
            logger.debug(
                kv(
                    "study simulated",
                    artifact=artifact,
                    digest=key.digest[:12],
                    trajectories=fresh,
                )
            )
            self._store(key, value)
            for sibling_key, sibling_value in extras.items():
                if sibling_key.digest not in self._memo:
                    self._store(sibling_key, sibling_value)
            return value

    def prototype(self, request: StudyRequest) -> FMTSimulator:
        """The cached validated simulator for ``request``'s material.

        Public accessor for callers (the service's kernel router) that
        need to inspect a validated simulator without running a study;
        shares the same LRU as the study path, so the inspection is
        free for any model the runner will simulate anyway.
        """
        return self._prototype(request)

    def _prototype(self, request: StudyRequest) -> FMTSimulator:
        """The cached simulator prototype for the request's material.

        Keyed by :meth:`StudyRequest.simulator_material`, so every
        (tree, strategy, horizon, cost model) combination validates its
        tree and builds its static tables once per runner; each study
        then clones the prototype (per-run state is never shared).
        """
        digest = StudyKey.from_material(request.simulator_material()).digest
        with self._lock:
            prototype = self._prototypes.get(digest)
            if prototype is not None:
                self._prototypes.move_to_end(digest)
                return prototype
        prototype = request.build_simulator()
        with self._lock:
            while len(self._prototypes) >= DEFAULT_MAX_PROTOTYPES:
                self._prototypes.popitem(last=False)
            self._prototypes[digest] = prototype
        return prototype

    def _simulate(
        self, request: StudyRequest, keep_trajectories: bool
    ) -> MonteCarloResult:
        driver = request.driver(simulator=self._prototype(request))
        if (
            self._pool is not None
            and request.n_runs >= self.parallel_threshold
        ):
            return driver.run_parallel(
                request.n_runs,
                confidence=request.confidence,
                keep_trajectories=keep_trajectories,
                pool=self._pool,
            )
        return driver.run(
            request.n_runs,
            confidence=request.confidence,
            keep_trajectories=keep_trajectories,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        disk = "off" if self.disk is None else str(self.disk.directory)
        return (
            f"StudyRunner(disk={disk}, processes={self.processes}, "
            f"memo={len(self._memo)})"
        )


# ----------------------------------------------------------------------
# Ambient runner (mirrors repro.observability.use / current)
# ----------------------------------------------------------------------
_AMBIENT: ContextVar[Optional[StudyRunner]] = ContextVar(
    "repro_study_runner", default=None
)

_DEFAULT: Optional[StudyRunner] = None


def current_runner() -> Optional[StudyRunner]:
    """The ambient study runner, or None when none is active."""
    return _AMBIENT.get()


@contextmanager
def use_runner(runner: Optional[StudyRunner]) -> Iterator[Optional[StudyRunner]]:
    """Make ``runner`` ambient inside the block.

    ``use_runner(None)`` is a no-op passthrough, so call sites can
    write ``with use_runner(maybe_runner):`` without branching.
    """
    if runner is None:
        yield None
        return
    token = _AMBIENT.set(runner)
    try:
        yield runner
    finally:
        _AMBIENT.reset(token)


def get_runner() -> StudyRunner:
    """The ambient runner, else a process-wide default.

    The default is serial with no disk cache — pure in-process
    deduplication, safe for library use and tests (content-addressed
    keys guarantee a memoized result equals a fresh one bit for bit).
    The CLI installs its own runner, configured from ``--cache-dir``
    and friends, via :func:`use_runner`.
    """
    runner = _AMBIENT.get()
    if runner is not None:
        return runner
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = StudyRunner()
    return _DEFAULT


def set_default_runner(runner: Optional[StudyRunner]) -> None:
    """Replace (or with None, reset) the process-wide default runner."""
    global _DEFAULT
    _DEFAULT = runner
