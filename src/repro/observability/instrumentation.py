"""Simulation instrumentation: the hook object hot paths talk to.

An :class:`Instrumentation` bundles a
:class:`~repro.observability.metrics.MetricsRegistry` behind the two
operations the simulator needs — count an occurrence, time a block.
It *observes* and never perturbs: no RNG draws, no event-order
changes, so instrumented and uninstrumented runs are bit-identical
(the test suite asserts this on the EI-joint model).

Two ways to attach one:

* explicitly — pass ``instrumentation=`` to
  :class:`~repro.simulation.montecarlo.MonteCarlo` or
  :class:`~repro.simulation.executor.SimulationConfig`;
* ambiently — wrap any code in ``with use(instr): ...`` and every
  simulator created *or run* inside the block that has no explicit
  instrumentation picks it up via :func:`current`.  The CLI uses the
  ambient form so the experiment harness needs no per-experiment
  plumbing.

Metric names emitted by the stack are listed in
``docs/observability.md`` and as the ``EVENTS_*``/``SIM_*`` constants
below.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.observability.metrics import Gauge, MetricsRegistry, Timer

__all__ = ["Instrumentation", "current", "use"]

# Canonical metric names — keep in sync with docs/observability.md.
EVENTS_SCHEDULED = "sim.events.scheduled"
EVENTS_CANCELLED = "sim.events.cancelled"
EVENTS_EXECUTED = "sim.events.executed"
SIM_TRAJECTORIES = "sim.trajectories"
SIM_PHASE_JUMPS = "sim.phase_jumps"
SIM_COMPONENT_FAILURES = "sim.component_failures"
SIM_INSPECTIONS = "sim.inspections"
SIM_DETECTIONS = "sim.detections"
SIM_PREVENTIVE_ACTIONS = "sim.preventive_actions"
SIM_CORRECTIVE_REPLACEMENTS = "sim.corrective_replacements"
SIM_REPAIR_ROUNDS = "sim.repair_rounds"
SIM_RDEP_ACCELERATIONS = "sim.rdep_accelerations"
SIM_SYSTEM_FAILURES = "sim.system_failures"
SIM_SYSTEM_RESTORATIONS = "sim.system_restorations"
TIMER_SIMULATE = "sim.simulate.seconds"
TIMER_SUMMARIZE = "mc.summarize.seconds"
# Worker-pool round-trip (repro.simulation.parallel): the driver folds
# each returning chunk's worker-side registry into the parent one and
# sets per-worker utilization gauges under SIM_WORKER_PREFIX
# ("sim.worker.<n>.chunks" / ".trajectories" / ".busy_seconds").
SIM_WORKERS = "sim.workers"
SIM_WORKER_PREFIX = "sim.worker"
# Rare-event splitting (repro.rareevent) counters.
RARE_SEGMENTS = "rare.segments"
RARE_CLONES = "rare.clones"
RARE_LEVEL_UP = "rare.level_up"
RARE_LEVEL_DOWN = "rare.level_down"
RARE_PRUNES = "rare.prunes"
# Study runner (repro.studies) counters: cache behaviour of the
# cross-experiment memoization layer.
STUDY_REQUESTS = "study.requests"
STUDY_MEMO_HITS = "study.memo_hits"
STUDY_DISK_HITS = "study.disk_hits"
STUDY_MISSES = "study.misses"
STUDY_FRESH_TRAJECTORIES = "study.fresh_trajectories"
STUDY_DISK_WRITES = "study.disk_writes"
STUDY_DISK_CORRUPT = "study.disk_corrupt"
STUDY_MEMO_EVICTIONS = "study.memo_evictions"


class Instrumentation:
    """Counts and timings collected while simulating.

    Thin convenience facade over a registry; picklable, so it travels
    with a simulator into worker processes.  Parallel runs collect a
    fresh worker-side registry per chunk and fold it back into the
    parent registry with the chunk result (see
    :mod:`repro.simulation.parallel`), so parent-side metrics cover
    worker-side work too.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``."""
        self.registry.counter(name).inc(amount)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration on timer ``name``."""
        self.registry.timer(name).observe(seconds)

    def set_gauge(self, name: str, value: float) -> None:
        """Record the current value of gauge ``name``."""
        self.registry.gauge(name).set(value)

    def timer(self, name: str) -> Timer:
        """The underlying timer ``name`` (use ``.time()`` to wrap a block)."""
        return self.registry.timer(name)

    def gauge(self, name: str) -> Gauge:
        """The underlying gauge ``name``."""
        return self.registry.gauge(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instrumentation({self.registry!r})"


_AMBIENT: ContextVar[Optional[Instrumentation]] = ContextVar(
    "repro_instrumentation", default=None
)


def current() -> Optional[Instrumentation]:
    """The ambient instrumentation, or None when none is active."""
    return _AMBIENT.get()


@contextmanager
def use(instrumentation: Optional[Instrumentation]) -> Iterator[Optional[Instrumentation]]:
    """Make ``instrumentation`` ambient inside the block.

    ``use(None)`` is a no-op passthrough, so call sites can write
    ``with use(maybe_instr):`` without branching.
    """
    if instrumentation is None:
        yield None
        return
    token = _AMBIENT.set(instrumentation)
    try:
        yield instrumentation
    finally:
        _AMBIENT.reset(token)
