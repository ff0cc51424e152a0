"""Generic discrete-event simulation core.

A minimal, fast event calendar: events are ``(time, priority, seq)``
ordered, cancellable, and executed by callback.  Determinism is exact:
given the same schedule calls, execution order is identical, because
ties on time are broken first by an explicit integer priority and then
by insertion sequence.

Hot-path design (see docs/performance.md): the heap holds plain
``(time, priority, seq, handle)`` tuples, so every sift comparison is a
C-level tuple comparison that is decided by the unique ``seq`` before
ever touching the handle — no Python ``__lt__`` dispatch on the hot
path.  Cancellation is lazy: a cancelled handle stays in the heap and
is discarded when it surfaces.  ``run_until`` inlines the pop/execute
loop instead of calling :meth:`step` per event.

The engine knows nothing about fault trees; :mod:`repro.simulation.executor`
builds FMT semantics on top of it.
"""

from __future__ import annotations

import heapq
import math
import warnings
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.observability.instrumentation import (
    EVENTS_CANCELLED,
    EVENTS_EXECUTED,
    EVENTS_SCHEDULED,
    Instrumentation,
)

__all__ = ["Engine", "EngineSnapshot", "ScheduledEvent"]


class ScheduledEvent:
    """Handle to a scheduled event; allows cancellation.

    Instances are created by :meth:`Engine.schedule`; user code should
    treat them as opaque except for :meth:`cancel` and :attr:`time`.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        # Back-link so cancel() can keep the engine's live pending
        # count exact; detached once the event executes or cancels.
        self._engine = engine

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already executed."""
        if self.cancelled:
            return
        self.cancelled = True
        self.callback = None  # break reference cycles early
        engine = self._engine
        if engine is not None:
            self._engine = None
            engine._note_cancelled()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        """Deprecated: the calendar no longer orders events by handle.

        Heap entries are plain ``(time, priority, seq, handle)`` tuples
        whose unique ``seq`` decides every comparison, so this method is
        never called by the engine anymore.  It is kept as a shim for
        code that sorted handles directly.
        """
        warnings.warn(
            "ScheduledEvent ordering is deprecated; compare "
            "(event.time, event.priority, event.seq) tuples instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "pending"
        return f"ScheduledEvent(t={self.time:g}, prio={self.priority}, {state})"


class EngineSnapshot:
    """Frozen image of an :class:`Engine` calendar at one instant.

    Produced by :meth:`Engine.snapshot` and consumed by
    :meth:`Engine.restore`.  The callback of every live event is
    captured *by reference at snapshot time*, so the snapshot stays
    valid even after the originating run executes or cancels those
    events.  The original :class:`ScheduledEvent` objects are retained
    only as identity keys for handle rewiring (see ``restore``).
    """

    __slots__ = ("now", "seq", "events")

    def __init__(
        self,
        now: float,
        seq: int,
        events: Tuple[Tuple[float, int, int, Callable[[], None], "ScheduledEvent"], ...],
    ):
        self.now = now
        self.seq = seq
        self.events = events

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EngineSnapshot(now={self.now:g}, |events|={len(self.events)})"


class Engine:
    """Event calendar with a simulation clock.

    The clock starts at 0.0 and only moves forward.  Scheduling an event
    in the past raises :class:`~repro.errors.SimulationError` — a bug in
    the caller, never a condition to silently repair.
    """

    __slots__ = (
        "_queue", "_seq", "now", "_running", "_stopped", "_pending",
        "_instr", "_seq_base", "_pending_base", "_cancel_base",
        "_n_cancelled", "_sched_carry", "_exec_carry",
    )

    def __init__(self, instrumentation: Optional[Instrumentation] = None):
        # Heap of (time, priority, seq, handle) tuples; `seq` is unique,
        # so tuple comparison never reaches the handle.
        self._queue: List[Tuple[float, int, int, ScheduledEvent]] = []
        self._seq = 0
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._pending = 0
        self._instr = instrumentation
        # Event counters are *derived*, not tallied on the hot path:
        # the scheduling sequence number and the O(1) pending count
        # already move with every event, so flush_counts() recovers
        #   scheduled = seq delta,
        #   executed  = scheduled - cancelled - pending delta
        # from baselines recorded at the previous flush.  Cancellation
        # is the one genuinely rare operation that keeps an explicit
        # tally; the *_carry fields absorb deltas that restore() and
        # reset() would otherwise rewind away, so a batch of runs into
        # one registry flushes once.  This is what keeps fully
        # instrumented runs inside the 5% overhead budget enforced by
        # tests/test_telemetry.py: zero extra work per event.
        self._seq_base = 0
        self._pending_base = 0
        self._cancel_base = 0
        self._n_cancelled = 0
        self._sched_carry = 0
        self._exec_carry = 0

    def reset(self, instrumentation: Optional[Instrumentation] = None) -> None:
        """Return the engine to its pristine state, reusing the queue.

        Equivalent to constructing a fresh :class:`Engine` but without
        reallocating; the preallocated heap list is cleared in place.
        Handles of the abandoned calendar are detached first, so a
        stale ``cancel()`` cannot corrupt the new run's bookkeeping.
        Pending event tallies are flushed to the outgoing
        instrumentation when a different one comes in; with the same
        one they keep accumulating until :meth:`flush_counts`.
        """
        if instrumentation is not self._instr:
            self.flush_counts()
            self._instr = instrumentation
        elif instrumentation is not None:
            # Same registry: carry the finished run's counts, exactly
            # as restore() does (inlined: this runs per trajectory).
            scheduled = self._seq - self._seq_base
            self._sched_carry += scheduled
            self._exec_carry += (
                scheduled
                - (self._n_cancelled - self._cancel_base)
                - (self._pending - self._pending_base)
            )
            self._cancel_base = self._n_cancelled
        for entry in self._queue:
            entry[3]._engine = None
        self._queue.clear()
        self._seq = 0
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._pending = 0
        self._seq_base = 0
        self._pending_base = 0

    def flush_counts(self) -> None:
        """Fold the event counters derived since the last flush into
        the instrumentation.

        Called automatically at the end of :meth:`run_until` and when
        :meth:`reset` swaps the instrumentation; the simulator's batched
        and stepwise runs (:meth:`advance`) flush through
        :meth:`~repro.simulation.executor.FMTSimulator.flush_instrumentation`.
        """
        scheduled = self._sched_carry + (self._seq - self._seq_base)
        cancelled = self._n_cancelled
        # pending moved by scheduled - cancelled - executed since the
        # last flush, so executed falls out of the other three.
        executed = (
            self._exec_carry
            + (self._seq - self._seq_base)
            - (cancelled - self._cancel_base)
            - (self._pending - self._pending_base)
        )
        instr = self._instr
        if instr is not None:
            if scheduled:
                instr.count(EVENTS_SCHEDULED, scheduled)
            if cancelled:
                instr.count(EVENTS_CANCELLED, cancelled)
            if executed:
                instr.count(EVENTS_EXECUTED, executed)
        self._seq_base = self._seq
        self._pending_base = self._pending
        self._cancel_base = 0
        self._n_cancelled = 0
        self._sched_carry = 0
        self._exec_carry = 0

    def schedule(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run at simulation time ``time``.

        Lower ``priority`` values run first among same-time events; ties
        beyond that preserve scheduling order.
        """
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at time {time}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time:g} before now={self.now:g}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, priority, seq, callback, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._pending += 1
        return event

    def schedule_after(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0.0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule(self.now + delay, callback, priority)

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` was requested since the last run/restore.

        Stepwise drivers (importance splitting) check this between
        :meth:`step` calls to honour an absorbing stop exactly like
        :meth:`run_until` does.
        """
        return self._stopped

    @property
    def pending(self) -> int:
        """Number of non-cancelled events in the calendar.

        Maintained incrementally by ``schedule``/``cancel``/``step``,
        so reading it is O(1) even mid-run with a large calendar.
        """
        return self._pending

    def _note_cancelled(self) -> None:
        """Bookkeeping callback from :meth:`ScheduledEvent.cancel`."""
        self._pending -= 1
        if self._instr is not None:
            self._n_cancelled += 1

    def snapshot(self) -> EngineSnapshot:
        """Capture the calendar, clock and sequence counter.

        The snapshot is independent of the engine's future: executing
        or cancelling events afterwards does not invalidate it, so one
        snapshot can seed many :meth:`restore` calls (trajectory
        cloning for importance splitting).
        """
        events = tuple(
            (time, priority, seq, event.callback, event)
            for time, priority, seq, event in self._queue
            if not event.cancelled and event.callback is not None
        )
        return EngineSnapshot(self.now, self._seq, events)

    def restore(self, snapshot: EngineSnapshot) -> Dict[int, ScheduledEvent]:
        """Reset the engine to ``snapshot``; returns a handle rewiring map.

        Every live event of the snapshot is recreated as a *fresh*
        :class:`ScheduledEvent` (same time/priority/seq/callback), so
        cancelling a pre-restore handle afterwards cannot corrupt the
        restored calendar: all events of the abandoned timeline are
        detached from this engine first, which keeps the O(1)
        :attr:`pending` count exact across restore+cancel sequences.

        Returns
        -------
        dict
            ``id(original_event) -> new_event`` for every event in the
            snapshot, letting callers holding old handles (e.g. the
            simulator's transition map) swap them for live ones.
        """
        # The abandoned timeline's events really happened: fold its
        # scheduled/executed deltas into the carries before seq and
        # pending rewind to snapshot values.
        scheduled = self._seq - self._seq_base
        self._sched_carry += scheduled
        self._exec_carry += (
            scheduled
            - (self._n_cancelled - self._cancel_base)
            - (self._pending - self._pending_base)
        )
        self._cancel_base = self._n_cancelled
        for entry in self._queue:
            # Detach the abandoned timeline: a later cancel() on one of
            # these stale handles must be a no-op for this engine.
            entry[3]._engine = None
        mapping: Dict[int, ScheduledEvent] = {}
        queue: List[Tuple[float, int, int, ScheduledEvent]] = []
        for time, priority, seq, callback, original in snapshot.events:
            event = ScheduledEvent(time, priority, seq, callback, self)
            queue.append((time, priority, seq, event))
            mapping[id(original)] = event
        heapq.heapify(queue)
        self._queue = queue
        self._pending = len(queue)
        self.now = snapshot.now
        self._seq = snapshot.seq
        self._seq_base = snapshot.seq
        self._pending_base = self._pending
        self._running = False
        self._stopped = False
        return mapping

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if empty."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
        if not queue:
            return None
        return queue[0][0]

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
        if not queue:
            return False
        time, _, _, event = heapq.heappop(queue)
        event._engine = None  # executed: a later cancel() must not decrement
        self._pending -= 1
        self.now = time
        callback = event.callback
        event.callback = None
        assert callback is not None
        callback()
        return True

    def run_until(self, t_end: float) -> None:
        """Execute all events with time <= ``t_end``; clock ends at ``t_end``.

        Re-entrant calls are rejected (an event callback must not drive
        the engine it runs in).  The event counters are flushed at the
        end.
        """
        try:
            self.advance(t_end)
        finally:
            if self._instr is not None:
                self.flush_counts()

    def advance(self, t_end: float) -> None:
        """:meth:`run_until` without the counter flush, for callers that
        flush once after many runs (:class:`~repro.simulation.executor.
        FMTSimulator`)."""
        if self._running:
            raise SimulationError("run_until() called from within an event")
        if t_end < self.now:
            raise SimulationError(
                f"t_end={t_end:g} is before current time {self.now:g}"
            )
        self._running = True
        self._stopped = False
        # The pop/execute loop is inlined (rather than calling step())
        # and binds the queue and heappop locally: this loop bounds the
        # throughput of every Monte Carlo study in the repo.  Callbacks
        # push onto the same list object, so the local alias stays
        # valid; only restore() rebinds self._queue, and it cannot run
        # mid-loop (re-entrance is rejected above).
        queue = self._queue
        heappop = heapq.heappop
        try:
            while not self._stopped:
                while queue and queue[0][3].cancelled:
                    heappop(queue)
                if not queue or queue[0][0] > t_end:
                    break
                time, _, _, event = heappop(queue)
                event._engine = None
                self._pending -= 1
                self.now = time
                callback = event.callback
                event.callback = None
                callback()
        finally:
            self._running = False
        if not self._stopped:
            self.now = t_end
