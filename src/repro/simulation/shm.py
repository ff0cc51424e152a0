"""Zero-copy shared-memory transport for parallel KPI columns.

The pickled pool fold ships every task's
:class:`~repro.simulation.batch.TrajectoryBatch` columns over the
result pipe — a serialize/deserialize/copy per task.  This module is
a task's optional write window instead: one segment
(``multiprocessing.shared_memory``) sized up front from the tasks' row
counts.  Workers write their KPI columns into it at their task's row
offset and ship back only a tiny :class:`ShmChunkHandle`; the driver
materializes the final batch with one copy out of the segment.

Layout
------
One segment holds, back to back:

* ten fixed-width columns of length ``n_total`` (trajectory count):
  ``downtime``, the five :data:`~repro.simulation.batch.COST_FIELDS`
  cost columns, the three maintenance counters, and ``n_failures`` —
  80 bytes per trajectory;
* a failure-times region, partitioned per chunk at
  ``FAILURE_SLOTS_PER_ROW`` ``float64`` slots per trajectory.

Failure times are the only variable-length material.  A chunk whose
trajectories fail more often than the reserved slots allow falls back
to pickling *that chunk's* times through the handle (lossless, just
slower); every fixed column still travels through the segment.

Lifecycle
---------
The driver owns the segment: :class:`ShmBatchWriter` creates it and
``close()`` (idempotent, called from a ``finally``) unlinks it even
when a worker crashes mid-dispatch.  Workers attach by name, write,
and detach per chunk; they never unlink.  On platforms or filesystems
without shared-memory support the caller simply keeps using the
pickled path (:func:`shared_memory_available`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.simulation.batch import COST_FIELDS, TrajectoryBatch

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

__all__ = [
    "FAILURE_SLOTS_PER_ROW",
    "ShmChunkSpec",
    "ShmChunkHandle",
    "ShmBatchWriter",
    "write_chunk_batch",
    "shared_memory_available",
]

#: ``float64`` failure-time slots reserved per trajectory.  Maintained
#: models average well under one system failure per run; four slots
#: make per-chunk overflow (and hence the pickled fallback) rare
#: without bloating the segment.
FAILURE_SLOTS_PER_ROW = 4

#: Fixed column plan: (name, dtype) in write order.  ``downtime`` and
#: the cost columns are float64; counters and ``n_failures`` are int64.
#: The order is load-bearing only for offset computation — both sides
#: derive offsets from this one table.
_COLUMNS: Tuple[Tuple[str, np.dtype], ...] = tuple(
    [("downtime", np.dtype(np.float64))]
    + [(f"cost_{field}", np.dtype(np.float64)) for field in COST_FIELDS]
    + [
        ("n_inspections", np.dtype(np.int64)),
        ("n_preventive_actions", np.dtype(np.int64)),
        ("n_corrective_replacements", np.dtype(np.int64)),
        ("n_failures", np.dtype(np.int64)),
    ]
)

_ROW_BYTES = sum(dtype.itemsize for _, dtype in _COLUMNS)


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` can be used here."""
    return shared_memory is not None


@dataclass(frozen=True)
class ShmChunkSpec:
    """A worker's write window into the shared segment (picklable).

    ``n_total`` lets the worker re-derive the column layout; the rest
    addresses this chunk's rows and its failure-time partition
    (``ft_offset``/``ft_capacity`` in ``float64`` elements relative to
    the failure-times region).
    """

    name: str
    n_total: int
    row_start: int
    n_rows: int
    ft_offset: int
    ft_capacity: int


@dataclass(frozen=True)
class ShmChunkHandle:
    """What a worker ships back instead of its columns: the packed
    failure-time count, plus the times themselves only when the
    chunk's reserved slots overflowed."""

    n_rows: int
    n_times: int
    overflow_times: Optional[np.ndarray] = None


def _column_views(
    buf: memoryview, n_total: int
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Column name -> full-length array view, plus the failure region.

    Views alias the segment buffer — callers must drop every view
    before closing the segment (``SharedMemory.close`` refuses while
    exported buffers exist).
    """
    views: Dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype in _COLUMNS:
        views[name] = np.frombuffer(
            buf, dtype=dtype, count=n_total, offset=offset
        )
        offset += n_total * dtype.itemsize
    ft_region = np.frombuffer(buf, dtype=np.float64, offset=offset)
    return views, ft_region


def _attach(name: str):
    """Attach to an existing segment.

    With fork-started workers (the Linux default this project runs on)
    the worker shares the driver's resource tracker, so the attach-side
    registration is a set-level no-op and the driver's ``unlink`` is
    the single deregistration — the tracker stays a crash safety net
    that unlinks the segment if the whole process tree dies.  The pool
    starts the tracker before it forks the workers: a worker forked
    first would start a tracker of its own and, on exit, report every
    segment it ever attached as leaked.
    """
    return shared_memory.SharedMemory(name=name)


def write_chunk_batch(batch: TrajectoryBatch, spec: ShmChunkSpec) -> ShmChunkHandle:
    """Worker side: scatter one chunk's batch into the segment.

    The fixed columns land at ``[row_start, row_start + n_rows)``; the
    packed failure times land in the chunk's partition when they fit,
    else travel back pickled on the handle.  Returns the handle the
    driver folds.
    """
    if len(batch) != spec.n_rows:
        raise SimulationError(
            f"chunk produced {len(batch)} trajectories but the shared "
            f"segment reserved {spec.n_rows}"
        )
    shm = _attach(spec.name)
    try:
        _scatter(shm.buf, batch, spec)
    finally:
        shm.close()
    times = batch.failure_times
    overflow = times if len(times) > spec.ft_capacity else None
    return ShmChunkHandle(
        n_rows=spec.n_rows, n_times=len(times), overflow_times=overflow
    )


def _scatter(buf: memoryview, batch: TrajectoryBatch, spec: ShmChunkSpec) -> None:
    # Separate helper so every buffer-aliasing view dies with this
    # frame, letting the caller close the segment.
    views, ft_region = _column_views(buf, spec.n_total)
    rows = slice(spec.row_start, spec.row_start + spec.n_rows)
    views["downtime"][rows] = batch.downtime
    for field in COST_FIELDS:
        views[f"cost_{field}"][rows] = batch.costs[field]
    views["n_inspections"][rows] = batch.n_inspections
    views["n_preventive_actions"][rows] = batch.n_preventive_actions
    views["n_corrective_replacements"][rows] = batch.n_corrective_replacements
    views["n_failures"][rows] = batch.n_failures
    times = batch.failure_times
    if len(times) <= spec.ft_capacity:
        ft_region[spec.ft_offset:spec.ft_offset + len(times)] = times


class ShmBatchWriter:
    """Driver side: one segment sized from the chunk plan.

    Parameters
    ----------
    horizon:
        The batch horizon (workers never write it; the driver pins it).
    chunk_sizes:
        Trajectory count per pipeline task, in seed order — the rows
        of the tasks ``sample_parallel_batch`` dispatches.
    slots_per_row:
        Failure-time slots reserved per trajectory.
    """

    def __init__(
        self,
        horizon: float,
        chunk_sizes: Sequence[int],
        slots_per_row: int = FAILURE_SLOTS_PER_ROW,
    ):
        if shared_memory is None:  # pragma: no cover - platform guard
            raise SimulationError("shared memory is not available here")
        if not chunk_sizes or min(chunk_sizes) < 1:
            raise ValidationError(
                f"chunk plan must hold positive sizes, got {list(chunk_sizes)}"
            )
        self.horizon = float(horizon)
        self.chunk_sizes = [int(size) for size in chunk_sizes]
        self.n_total = sum(self.chunk_sizes)
        self._specs: List[ShmChunkSpec] = []
        ft_offset = 0
        row_start = 0
        for size in self.chunk_sizes:
            capacity = size * slots_per_row
            self._specs.append(
                ShmChunkSpec(
                    name="",  # patched below once the segment exists
                    n_total=self.n_total,
                    row_start=row_start,
                    n_rows=size,
                    ft_offset=ft_offset,
                    ft_capacity=capacity,
                )
            )
            row_start += size
            ft_offset += capacity
        total_bytes = self.n_total * _ROW_BYTES + ft_offset * 8
        self._shm = shared_memory.SharedMemory(create=True, size=total_bytes)
        self._specs = [
            ShmChunkSpec(
                name=self._shm.name,
                n_total=spec.n_total,
                row_start=spec.row_start,
                n_rows=spec.n_rows,
                ft_offset=spec.ft_offset,
                ft_capacity=spec.ft_capacity,
            )
            for spec in self._specs
        ]

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._shm.name

    def spec(self, index: int) -> ShmChunkSpec:
        """The write window for chunk ``index`` (seed order)."""
        return self._specs[index]

    @property
    def specs(self) -> List[ShmChunkSpec]:
        return list(self._specs)

    def finalize(self, handles: Sequence[ShmChunkHandle]) -> TrajectoryBatch:
        """Materialize the batch: one copy out of the segment.

        ``handles`` must be in chunk (seed) order.  Fixed columns are
        read straight from the segment; failure times are compacted
        from the per-chunk partitions (or the pickled overflow) into
        one packed array.  The returned batch owns its memory — it
        stays valid after :meth:`close`.
        """
        if len(handles) != len(self._specs):
            raise SimulationError(
                f"expected {len(self._specs)} chunk handles, got {len(handles)}"
            )
        if self._shm is None:
            raise SimulationError("shared segment already closed")
        return self._gather(handles)

    def _gather(self, handles: Sequence[ShmChunkHandle]) -> TrajectoryBatch:
        views, ft_region = _column_views(self._shm.buf, self.n_total)
        total_times = sum(handle.n_times for handle in handles)
        failure_times = np.empty(total_times, dtype=np.float64)
        pos = 0
        for spec, handle in zip(self._specs, handles):
            if handle.overflow_times is not None:
                chunk_times = handle.overflow_times
            else:
                chunk_times = ft_region[
                    spec.ft_offset:spec.ft_offset + handle.n_times
                ]
            failure_times[pos:pos + handle.n_times] = chunk_times
            pos += handle.n_times
        offsets = np.zeros(self.n_total + 1, dtype=np.int64)
        np.cumsum(views["n_failures"], out=offsets[1:])
        batch = TrajectoryBatch(
            horizon=self.horizon,
            failure_times=failure_times,
            failure_offsets=offsets,
            downtime=views["downtime"].copy(),
            costs={
                field: views[f"cost_{field}"].copy() for field in COST_FIELDS
            },
            n_inspections=views["n_inspections"].copy(),
            n_preventive_actions=views["n_preventive_actions"].copy(),
            n_corrective_replacements=views["n_corrective_replacements"].copy(),
        )
        del views, ft_region
        return batch

    def close(self) -> None:
        """Release and unlink the segment (idempotent, crash-safe)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ShmBatchWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._shm is None else self._shm.name
        return (
            f"ShmBatchWriter(n={self.n_total}, "
            f"chunks={len(self.chunk_sizes)}, segment={state})"
        )
