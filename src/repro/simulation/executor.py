"""Trajectory execution of a fault maintenance tree.

:class:`FMTSimulator` simulates one life of the system at a time:

* every basic event walks through its degradation phases with
  exponential sojourns, accelerated multiplicatively by active rate
  dependencies (RDEP);
* gate states are propagated through the DAG on every component change;
  priority-AND gates use exact order-sensitive semantics;
* inspection modules fire periodically, detect targets at or past their
  threshold phase, and schedule the module's maintenance action (after
  an optional planning delay); targets found failed are replaced
  correctively (visits that cannot find anything are booked, not run:
  see "On-demand visits" below);
* repair modules fire periodically and apply their action to all
  targets regardless of condition;
* a system (top-event) failure triggers the strategy's failure
  response: corrective renewal of the whole asset after a repair time
  (``on_system_failure="replace"``) or an absorbing stop
  (``"none"``);
* every priced occurrence is accumulated into a
  :class:`~repro.maintenance.costs.CostBreakdown`.

Determinism: trajectories are a pure function of the model, strategy,
configuration, and the :class:`numpy.random.Generator` passed in.

Hot-path design (docs/performance.md): the constructor precomputes
static lookup tables — per-phase rates and their reciprocals, per-gate
failed-children thresholds for O(1) incremental re-evaluation, fully
resolved inspection/repair plans with prices and callbacks — and
:meth:`_reset` restores per-run state by copying prototype dicts.
Every optimization is **bit-identical** to the reference
implementation: the RNG stream is consumed in exactly the same order
(regression-locked by ``tests/test_golden_trajectory.py`` and
``tests/test_golden_corners.py``).

On-demand visits: most periodic inspection visits find nothing, and
such a visit draws nothing and changes nothing but the trajectory's
visit count and inspection cost.  So the periodic rounds are not
engine events.  :class:`_VisitCalendar` lists their visits once, in
the order the engine would run them, with each visit's cost term.
At most one engine event is armed: the first visit of a round that
has a detectable target (re-checked whenever a phase changes).  The
skipped visits before it are booked, by sequential addition in
calendar order, when that visit runs, when an exponential-timing
visit adds its own cost, at a system failure, or at the end of the
run.  Visits that fall in downtime are neither run nor booked, as
before.  Exponential-timing rounds and repair modules stay ordinary
engine events.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.dependencies import RateDependency
from repro.core.events import BasicEvent
from repro.core.gates import Gate, OrGate, PandGate, VotingGate
from repro.core.tree import FaultMaintenanceTree
from repro.errors import SimulationError, ValidationError
from repro.maintenance.actions import MaintenanceAction
from repro.maintenance.costs import CostModel
from repro.maintenance.modules import InspectionModule, RepairModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.observability import instrumentation as _obs
from repro.observability.instrumentation import Instrumentation
from repro.observability.logging_setup import get_logger, kv
from repro.simulation.engine import Engine, EngineSnapshot, ScheduledEvent
from repro.simulation.trace import ComponentEvent, Trajectory

__all__ = [
    "DEFAULT_CHUNK_TRAJECTORIES",
    "FMTSimulator",
    "SimulationConfig",
    "SimulatorSnapshot",
]

logger = get_logger(__name__)

# Same-time event ordering: component transitions first, then system
# restoration, then time-based repairs, then inspections, then the
# delayed actions inspections scheduled earlier.
_PRIO_TRANSITION = 0
_PRIO_RESTORE = 1
_PRIO_REPAIR = 2
_PRIO_INSPECTION = 3
_PRIO_ACTION = 4

#: Default cap on the rows of one lockstep chunk of the vectorized
#: kernel.  Each chunk pays ~0.7-1.0 ms of numpy dispatch per
#: inspection epoch whatever its row count, and the cost per row holds
#: or falls up to ~20 000 rows, while chunk state costs ~1 KB per row
#: (~15 MB at this cap on the EI-joint model).  A 20 000-run study is therefore
#: two chunks of 10 000 rows (see
#: :func:`repro.simulation.vectorized.chunk_plan`).  Lives here (not in
#: :mod:`repro.simulation.vectorized`) so the config dataclass can
#: reference it without a circular import.
DEFAULT_CHUNK_TRAJECTORIES = 16384


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level configuration of the simulator.

    Parameters
    ----------
    horizon:
        Length of each simulated trajectory, in years.
    cost_model:
        Prices for inspections, actions, failures and downtime.
        Defaults to an all-zero model (KPIs other than cost are
        unaffected).
    record_events:
        When true, every component-level event is appended to
        :attr:`repro.simulation.trace.Trajectory.events` — needed by the
        synthetic incident database, expensive for large replication
        counts otherwise.
    instrumentation:
        Optional :class:`~repro.observability.instrumentation.Instrumentation`
        receiving event/action counters and the per-trajectory
        ``sim.simulate.seconds`` timer.  Purely observational: results
        are bit-identical with or without it.  When None, the ambient
        instrumentation (:func:`repro.observability.current`) is used
        if one is active.  A pickled :class:`FMTSimulator` ships
        without it: pool workers count into per-chunk registries that
        the driver merges into it.
    kernel:
        Trajectory sampler used by the batch drivers: ``"object"``
        (default) walks the per-object event calendar of this class;
        ``"vectorized"`` runs lockstep struct-of-arrays chunks
        (:mod:`repro.simulation.vectorized`) where the model allows and
        falls back to the object engine where it does not.  The
        vectorized kernel is distributionally equivalent but not
        bit-identical to the object path, and it produces no
        component-level events (``record_events`` requires
        ``"object"``).
    chunk_trajectories:
        Cap on the rows of one lockstep chunk of the vectorized kernel
        (ignored by the object kernel).  Any integer >= 1 is accepted.
        An ``n``-run study runs ``ceil(n / chunk_trajectories)`` chunks
        of near-equal size, each drawing from its own child stream of
        the root seed (:func:`repro.simulation.vectorized.chunk_plan`),
        serially or on any number of worker processes alike.  Results
        are not invariant to this value, so the study cache key folds
        it in for every vectorized study.
    """

    horizon: float
    cost_model: CostModel = field(default_factory=CostModel)
    record_events: bool = False
    instrumentation: Optional[Instrumentation] = field(
        default=None, compare=False, repr=False
    )
    kernel: str = "object"
    chunk_trajectories: int = DEFAULT_CHUNK_TRAJECTORIES

    def __post_init__(self) -> None:
        if self.horizon <= 0.0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if self.kernel not in ("object", "vectorized"):
            raise ValidationError(
                f"kernel must be 'object' or 'vectorized', got {self.kernel!r}"
            )
        if self.kernel == "vectorized" and self.record_events:
            raise ValidationError(
                "record_events needs the object kernel: the vectorized "
                "kernel does not produce component-level event streams"
            )
        if (
            not isinstance(self.chunk_trajectories, int)
            or isinstance(self.chunk_trajectories, bool)
            or self.chunk_trajectories < 1
        ):
            raise ValidationError(
                "chunk_trajectories must be an integer >= 1, got "
                f"{self.chunk_trajectories!r}"
            )


@dataclass(frozen=True)
class SimulatorSnapshot:
    """Frozen mid-run image of an :class:`FMTSimulator`.

    Produced by :meth:`FMTSimulator.snapshot`, consumed by
    :meth:`FMTSimulator.restore`.  One snapshot can seed any number of
    restores — each restore gets its own trajectory copy and a freshly
    rebuilt event calendar, so clones never share mutable state.  The
    original :class:`ScheduledEvent` handles are kept only as identity
    keys for rewiring (see :meth:`Engine.restore`).
    """

    engine: EngineSnapshot
    phase: Dict[str, int]
    accel: Dict[str, float]
    state: Dict[str, bool]
    fail_time: Dict[str, Optional[float]]
    transition: Dict[str, Optional[ScheduledEvent]]
    pending_actions: Dict[str, Dict[str, ScheduledEvent]]
    system_down: bool
    down_since: float
    trajectory: Trajectory
    # On-demand visits: the booking cursor, the armed visit (handle and
    # calendar index) and which periodic rounds have a detectable target.
    visit_pos: int
    armed: Optional[ScheduledEvent]
    armed_at: int
    hot: Tuple[bool, ...]


class _ModulePlan:
    """Fully resolved execution plan of one inspection/repair module.

    Everything the per-tick handler needs — period, prices after
    cost-model resolution, target thresholds, the reschedule callback —
    is resolved once at simulator construction instead of per visit.
    """

    __slots__ = (
        "module",
        "name",
        "period",
        "offset",
        "exponential",
        "delay",
        "detect_failures",
        "detection_probability",
        "visit_cost",
        "targets",
        "action",
        "action_kind",
        "action_cost",
        "callback",
        "watch",
    )

    def __init__(self, module, cost_model: CostModel, events: Dict[str, BasicEvent]):
        self.module = module
        self.name = module.name
        self.period = module.period
        self.offset = module.offset
        self.exponential = module.timing == "exponential"
        self.action: MaintenanceAction = module.action
        self.action_kind = module.action.kind
        self.action_cost = {
            target: cost_model.action_cost(target, module.action.kind)
            for target in module.targets
        }
        self.callback: Optional[Callable[[], None]] = None  # bound per simulator
        if isinstance(module, InspectionModule):
            self.delay = module.delay
            self.detect_failures = module.detect_failures
            self.detection_probability = module.detection_probability
            self.visit_cost = cost_model.visit_cost(module.name)
            # (target, detection threshold) pairs; thresholds are
            # guaranteed non-None by tree validation.
            self.targets = tuple(
                (target, events[target].threshold) for target in module.targets
            )
            # (target, threshold, phase count): what _finds_something reads.
            self.watch = tuple(
                (target, threshold, events[target].phases)
                for target, threshold in self.targets
            )
        else:
            self.delay = 0.0
            self.detect_failures = False
            self.detection_probability = 1.0
            self.visit_cost = 0.0
            self.targets = tuple((target, None) for target in module.targets)
            self.watch = ()


def _replay_schedule(
    plans: List[_ModulePlan], horizon: float
) -> Tuple[List[float], List[int]]:
    """The ticks of periodic ``plans`` up to the horizon, in engine order.

    The engine schedules each plan's first tick at reset, in plan
    order, and each later tick while running its predecessor, so ticks
    of one priority at one instant run in the order their predecessors
    ran: rounds of period 0.25 and 0.5 that start together meet at
    t = 0.5 with the 0.5-round first.  This replays that schedule
    (``time + period`` by repeated addition) and returns the tick times
    and the plan index of each tick.  The lockstep kernel builds its
    epochs from it too, so both engines visit a line-up in one order.
    """
    # (time, scheduling sequence, plan index); the first ticks are
    # sequenced in plan order.
    heap = [
        (plan.offset, index, index)
        for index, plan in enumerate(plans)
        if plan.offset <= horizon
    ]
    heapq.heapify(heap)
    seq = len(plans)
    times: List[float] = []
    plan_of: List[int] = []
    while heap:
        time, _, index = heapq.heappop(heap)
        times.append(time)
        plan_of.append(index)
        next_time = time + plans[index].period
        if next_time <= horizon:
            heapq.heappush(heap, (next_time, seq, index))
            seq += 1
    return times, plan_of


class _VisitCalendar:
    """The periodic inspection visits of one run, in engine order.

    :func:`_replay_schedule` lists the visits, so index order is
    execution order.  It depends on the plans, the horizon and the cost
    model only, and is shared by clones.
    """

    __slots__ = ("times", "by_plan", "plan_of", "paid_at", "paid")

    def __init__(self, plans: List[_ModulePlan], horizon: float, discount_rate: float):
        times, plan_of = _replay_schedule(plans, horizon)
        self.times = times
        self.plan_of = plan_of
        #: per plan, the calendar indices of its visits (ascending)
        self.by_plan: List[List[int]] = [[] for _ in plans]
        for position, index in enumerate(plan_of):
            self.by_plan[index].append(position)
        # Each visit's cost term, exactly as a visit computes it.  A
        # zero term leaves a (never negative-zero) sum unchanged, so
        # only the others are kept for booking.
        self.paid_at: List[int] = []
        self.paid: List[float] = []
        for position, (time, index) in enumerate(zip(times, plan_of)):
            term = plans[index].visit_cost * (
                1.0 if discount_rate == 0.0 else math.exp(-discount_rate * time)
            )
            if term != 0.0:
                self.paid_at.append(position)
                self.paid.append(term)


def instrumentation_of(simulator: FMTSimulator) -> Optional[Instrumentation]:
    """The registry ``simulator`` counts into: its config's, else the
    ambient one.  A stand-in (a rare-event estimator) answers for the
    simulator it drives; one with no ``config`` counts into none."""
    config = getattr(getattr(simulator, "simulator", simulator), "config", None)
    if config is None:
        return None
    instr = config.instrumentation
    return instr if instr is not None else _obs.current()


class FMTSimulator:
    """Simulates trajectories of one (tree, strategy) pair.

    The constructor precomputes the static structure (parent map, RDEP
    index, module target lists, hot-path lookup tables);
    :meth:`simulate` then runs one trajectory per call using only the
    provided RNG for randomness.  :meth:`clone` derives additional
    simulators that share the validated static structure without
    re-running strategy application or tree validation.
    """

    def __init__(
        self,
        tree: FaultMaintenanceTree,
        strategy: Optional[MaintenanceStrategy] = None,
        config: Optional[SimulationConfig] = None,
        horizon: Optional[float] = None,
    ):
        if config is None:
            if horizon is None:
                raise ValidationError("give either config= or horizon=")
            config = SimulationConfig(horizon=horizon)
        elif horizon is not None and horizon != config.horizon:
            raise ValidationError("horizon= conflicts with config.horizon")
        self.strategy = strategy if strategy is not None else MaintenanceStrategy.none()
        self.tree = self.strategy.apply(tree)
        self.config = config

        self._events: Dict[str, BasicEvent] = self.tree.basic_events
        self._top_name = self.tree.top.name
        self._parents: Dict[str, Tuple[str, ...]] = {
            name: self.tree.parents_of(name) for name in self.tree.nodes
        }
        self._rdeps_by_trigger: Dict[str, List[RateDependency]] = {}
        self._rdeps_by_target: Dict[str, List[RateDependency]] = {}
        for dep in self.tree.dependencies:
            self._rdeps_by_trigger.setdefault(dep.trigger, []).append(dep)
            for target in dep.targets:
                self._rdeps_by_target.setdefault(target, []).append(dep)

        self._build_static_tables()
        self._build_plans()
        self._init_per_run_state()

    # ------------------------------------------------------------------
    # Static precomputation (hot-path lookup tables)
    # ------------------------------------------------------------------
    def _build_static_tables(self) -> None:
        """Derive the read-only tables the event handlers index into."""
        events = self._events
        self._rates: Dict[str, Tuple[float, ...]] = {
            name: tuple(event.phase_rates) for name, event in events.items()
        }
        self._inv_rates: Dict[str, Tuple[float, ...]] = {
            name: tuple(1.0 / rate for rate in rates)
            for name, rates in self._rates.items()
        }
        self._n_phases: Dict[str, int] = {
            name: event.phases for name, event in events.items()
        }

        # Incremental gate re-evaluation: every monotone gate (AND, OR,
        # voting, inhibit) is summarised by the number of failed
        # children that makes it fail; its live failed-children count
        # is then maintained by the propagation pass, making each gate
        # update O(1) instead of O(children).  Priority-AND is order
        # sensitive and keeps exact full evaluation (threshold None).
        gate_threshold: Dict[str, Optional[int]] = {}
        count_children: Dict[str, Tuple[str, ...]] = {}
        for name in self.tree.nodes:
            element = self.tree.element(name)
            if not isinstance(element, Gate):
                continue
            if isinstance(element, PandGate):
                gate_threshold[name] = None
            elif isinstance(element, VotingGate):
                gate_threshold[name] = element.k
            elif isinstance(element, OrGate):
                gate_threshold[name] = 1
            else:  # AND / inhibit: all children must have failed
                gate_threshold[name] = len(element.children)
            if gate_threshold[name] is not None:
                count_children[name] = tuple(
                    child.name for child in element.children
                )
        self._count_children = count_children
        # Per node: the gates it feeds, with their update recipe.
        self._parent_info: Dict[
            str, Tuple[Tuple[str, Gate, Optional[int]], ...]
        ] = {
            name: tuple(
                (parent, self.tree.element(parent), gate_threshold[parent])
                for parent in self._parents[name]
            )
            for name in self.tree.nodes
        }

        cost_model = self.config.cost_model
        self._discount_rate = cost_model.discount_rate
        self._corrective_cost: Dict[str, float] = {
            name: cost_model.action_cost(name, "replace", corrective=True)
            for name in events
        }
        self._horizon = self.config.horizon
        self._recording = self.config.record_events

        # Per-run state prototypes: _reset() copies these (C-speed dict
        # copy) instead of rebuilding comprehensions per trajectory.
        self._phase0 = {name: 0 for name in events}
        self._accel0 = {name: 1.0 for name in events}
        self._transition0: Dict[str, Optional[ScheduledEvent]] = {
            name: None for name in events
        }
        self._state0 = {name: False for name in self.tree.nodes}
        self._fail0: Dict[str, Optional[float]] = {
            name: None for name in self.tree.nodes
        }
        self._counts0 = {name: 0 for name in count_children}

    def _build_plans(self) -> None:
        """Resolve module plans and per-simulator callbacks.

        Callbacks close over ``self``, so clones and unpickled copies
        must rebuild them (a clone executing the prototype's bound
        methods would corrupt the prototype's run state).
        """
        cost_model = self.config.cost_model
        self._jump_cb: Dict[str, Callable[[], None]] = {
            name: partial(self._on_phase_jump, name) for name in self._events
        }
        self._inspection_plans: List[_ModulePlan] = []
        for module in self.tree.inspections:
            plan = _ModulePlan(module, cost_model, self._events)
            plan.callback = partial(self._on_inspection, plan)
            self._inspection_plans.append(plan)
        self._repair_plans: List[_ModulePlan] = []
        for module in self.tree.repairs:
            plan = _ModulePlan(module, cost_model, self._events)
            plan.callback = partial(self._on_repair, plan)
            self._repair_plans.append(plan)

        # On-demand visits (module docstring).  Exponential rounds stay
        # engine events; periodic ones come from the calendar, built on
        # the first run (a vectorized study never needs it).
        self._exponential_plans = [
            plan for plan in self._inspection_plans if plan.exponential
        ]
        self._periodic_plans = [
            plan for plan in self._inspection_plans if not plan.exponential
        ]
        self._calendar: Optional[_VisitCalendar] = None
        self._visit_cb = self._on_visit
        # Per component: the periodic rounds inspecting it, and the
        # phases whose entry can change whether they find it (its
        # threshold, and failure).
        watchers: Dict[str, List[int]] = {name: [] for name in self._events}
        for index, plan in enumerate(self._periodic_plans):
            for target, _ in plan.targets:
                watchers[target].append(index)
        self._watchers: Dict[str, Tuple[int, ...]] = {
            name: tuple(plans) for name, plans in watchers.items()
        }
        self._triggers: Dict[str, frozenset] = {
            name: (
                frozenset((self._events[name].threshold, self._n_phases[name]))
                if plans else frozenset()
            )
            for name, plans in watchers.items()
        }

    def _init_per_run_state(self) -> None:
        """Create pristine per-run state (no RNG activity)."""
        self._instr: Optional[Instrumentation] = self.config.instrumentation
        self._sim_timer = (
            None if self._instr is None
            else self._instr.timer(_obs.TIMER_SIMULATE)
        )
        self._engine = Engine(instrumentation=self._instr)
        # The engine lives as long as the simulator (reset in place per
        # run), so its schedule entry points can be cached once.
        self._schedule = self._engine.schedule
        self._schedule_after = self._engine.schedule_after
        self._set_rng(np.random.default_rng(0))
        self._phase: Dict[str, int] = dict(self._phase0)
        self._accel: Dict[str, float] = dict(self._accel0)
        self._transition: Dict[str, Optional[ScheduledEvent]] = dict(
            self._transition0
        )
        self._state: Dict[str, bool] = dict(self._state0)
        self._fail_time: Dict[str, Optional[float]] = dict(self._fail0)
        self._gate_counts: Dict[str, int] = dict(self._counts0)
        self._pending_actions: Dict[str, Dict[str, ScheduledEvent]] = {
            name: {} for name in self._events
        }
        self._system_down = False
        self._down_since = 0.0
        self._trajectory = Trajectory(
            horizon=self.config.horizon,
            events_recorded=self.config.record_events,
        )
        self._batched = False
        self._zero_visits()
        self._zero_tallies()

    def _zero_visits(self) -> None:
        """Nothing booked, nothing armed, no round with a find."""
        self._visit_pos = 0
        self._armed: Optional[ScheduledEvent] = None
        self._armed_at = -1
        self._hot = [False] * len(self._periodic_plans)

    # Per-event counters are batched as plain int tallies and folded
    # into the registry once per chunk of trajectories, or per
    # simulate() call (flush_instrumentation): a registry.count() per
    # event costs ~4x an int increment, and even one flush per
    # trajectory blows the <=5% instrumented-run overhead budget once
    # a trajectory takes a few hundred microseconds.  Inspections and
    # preventive actions go one step further: the trajectory record
    # already counts them unconditionally (booked visits included), so
    # their flush values are derived from baselines instead of tallied.
    _TALLY_COUNTERS = (
        ("_n_trajectories", _obs.SIM_TRAJECTORIES),
        ("_n_phase_jumps", _obs.SIM_PHASE_JUMPS),
        ("_n_component_failures", _obs.SIM_COMPONENT_FAILURES),
        ("_n_rdep_accelerations", _obs.SIM_RDEP_ACCELERATIONS),
        ("_n_system_failures", _obs.SIM_SYSTEM_FAILURES),
        ("_n_system_restorations", _obs.SIM_SYSTEM_RESTORATIONS),
        ("_n_detections", _obs.SIM_DETECTIONS),
        ("_n_corrective", _obs.SIM_CORRECTIVE_REPLACEMENTS),
        ("_n_repair_rounds", _obs.SIM_REPAIR_ROUNDS),
    )

    def _zero_tallies(self) -> None:
        for attr, _ in self._TALLY_COUNTERS:
            setattr(self, attr, 0)
        # Per-trajectory sim.simulate.seconds samples, observed at the flush.
        self._durations: List[float] = []
        # Carries + trajectory baselines for the derived counters
        # (restore() folds pre-rewind deltas into the carries).
        self._n_inspections = 0
        self._n_preventive_actions = 0
        self._insp_base = 0
        self._prev_base = 0

    def flush_instrumentation(self) -> None:
        """Fold the batched event tallies into the attached registry.

        ``simulate`` calls this automatically, and the chunk pipeline
        once per chunk; step-driven runs (the importance-splitting
        drivers) must call it once the stepping is over, or the
        trailing tallies of the final segment would never reach the
        registry.  Always safe to call: with no registry attached or
        nothing tallied it is a no-op.
        """
        self._engine.flush_counts()
        trajectory = self._trajectory
        inspections = (
            self._n_inspections + trajectory.n_inspections - self._insp_base
        )
        preventive = (
            self._n_preventive_actions
            + trajectory.n_preventive_actions
            - self._prev_base
        )
        instr = self._instr
        if instr is not None:
            if self._durations:
                self._sim_timer.observe_many(self._durations)
            count = instr.count
            if inspections:
                count(_obs.SIM_INSPECTIONS, inspections)
            if preventive:
                count(_obs.SIM_PREVENTIVE_ACTIONS, preventive)
            for attr, name in self._TALLY_COUNTERS:
                n = getattr(self, attr)
                if n:
                    count(name, n)
                    setattr(self, attr, 0)
        self._n_inspections = 0
        self._n_preventive_actions = 0
        self._insp_base = trajectory.n_inspections
        self._prev_base = trajectory.n_preventive_actions
        self._durations.clear()

    def _set_rng(self, rng: np.random.Generator) -> None:
        """Install ``rng`` and cache its hot samplers.

        The bound-method caches (``_rng_exponential``, ``_rng_random``)
        are the "per-event distribution samplers": every draw goes
        through them, so a swap here is the only thing needed to keep
        draw order identical to direct ``self._rng.<dist>`` calls.
        """
        self._rng = rng
        self._rng_exponential = rng.exponential
        self._rng_random = rng.random

    # ------------------------------------------------------------------
    # Cloning and pickling (prototype reuse, worker processes)
    # ------------------------------------------------------------------
    # Per-run state holds event-callback closures and ScheduledEvent
    # handles, which do not pickle; a worker always starts its runs
    # with _reset, so ship the static structure only and re-create
    # pristine per-run state on the other side.  The plan/callback
    # tables are rebuilt rather than shipped: they close over self.
    _PER_RUN_ATTRS = (
        "_instr",
        "_sim_timer",
        "_engine",
        "_schedule",
        "_schedule_after",
        "_rng",
        "_rng_exponential",
        "_rng_random",
        "_phase",
        "_accel",
        "_transition",
        "_state",
        "_fail_time",
        "_gate_counts",
        "_pending_actions",
        "_system_down",
        "_down_since",
        "_trajectory",
        # batched event tallies, carries and baselines (_zero_tallies)
        "_n_trajectories",
        "_n_phase_jumps",
        "_n_component_failures",
        "_n_rdep_accelerations",
        "_n_system_failures",
        "_n_system_restorations",
        "_n_inspections",
        "_n_detections",
        "_n_preventive_actions",
        "_n_corrective",
        "_n_repair_rounds",
        "_insp_base",
        "_prev_base",
        "_durations",
        "_batched",
        # on-demand visits (_zero_visits)
        "_visit_pos",
        "_armed",
        "_armed_at",
        "_hot",
    )

    # The visit calendar is rebuilt, not shipped: pickled, it would
    # grow a 12-rounds-a-year simulator from 5.5 KB to ~47 KB per task.
    _REBUILT_ATTRS = (
        "_jump_cb", "_inspection_plans", "_repair_plans", "_exponential_plans",
        "_periodic_plans", "_calendar", "_visit_cb", "_watchers", "_triggers",
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        for attr in self._PER_RUN_ATTRS + self._REBUILT_ATTRS:
            state.pop(attr, None)
        if self.config.instrumentation is not None:
            # A pickled simulator ships no registry: a pool task's copy
            # would count into a throwaway, and its growing bytes would
            # change the digest workers cache simulators by.
            state["config"] = replace(self.config, instrumentation=None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._build_plans()
        self._init_per_run_state()

    def clone(self) -> "FMTSimulator":
        """A fresh simulator sharing this one's validated structure.

        Skips strategy application, tree validation and static-table
        construction — the clone references the same immutable tables,
        and the visit calendar once built —
        while per-run state and the ``self``-bound callbacks are its
        own.  Behaviour is bit-identical to a newly constructed
        simulator with the same arguments.
        """
        new = object.__new__(type(self))
        new.__setstate__({**self.__getstate__(), "config": self.config})
        new._calendar = self._calendar
        return new

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def simulate(self, rng: np.random.Generator) -> Trajectory:
        """Run one trajectory to the horizon and return its record.

        Its telemetry tallies reach the registry before it returns,
        or, inside a :meth:`batch` block, once at the block's end.
        """
        self._reset(rng)
        if self._instr is None:
            self._engine.advance(self._horizon)
            self._finalize()
        else:
            # Timed inline (not via Timer.time()): the contextmanager
            # plus the per-call registry lookup cost more than the
            # whole rest of the per-trajectory telemetry.
            start = _time.perf_counter()
            self._engine.advance(self._horizon)
            self._finalize()
            self._durations.append(_time.perf_counter() - start)
            self._n_trajectories += 1
            if not self._batched:
                self.flush_instrumentation()
        if logger.isEnabledFor(10):  # logging.DEBUG, avoided on the hot path
            trajectory = self._trajectory
            logger.debug(
                kv(
                    "trajectory done",
                    horizon=trajectory.horizon,
                    failures=trajectory.n_failures,
                    downtime=trajectory.downtime,
                    inspections=trajectory.n_inspections,
                    preventive=trajectory.n_preventive_actions,
                    corrective=trajectory.n_corrective_replacements,
                )
            )
        return self._trajectory

    @contextmanager
    def batch(self) -> Iterator["FMTSimulator"]:
        """Fold the tallies of the :meth:`simulate` calls in the block
        into the registry once, at its end (the chunk pipeline runs each
        chunk in one): a flush per trajectory would cost a watched run
        more than its 5% telemetry budget."""
        self._batched = True
        try:
            yield self
        finally:
            self._batched = False
            self.flush_instrumentation()

    # ------------------------------------------------------------------
    # Stepwise driving and state forking (importance splitting)
    # ------------------------------------------------------------------
    # None of the methods below are touched by simulate(); a crude
    # Monte Carlo run draws exactly the same random numbers in the same
    # order whether or not this block exists (bit-identity guarantee,
    # regression-tested in tests/test_rareevent.py).

    @property
    def now(self) -> float:
        """Current simulation clock of the active run."""
        return self._engine.now

    @property
    def phases(self) -> Dict[str, int]:
        """Live degradation phase per basic event (treat as read-only)."""
        return self._phase

    @property
    def states(self) -> Dict[str, bool]:
        """Live failed-state per tree node (treat as read-only)."""
        return self._state

    @property
    def system_failed(self) -> bool:
        """Whether the top event has occurred in the active run."""
        return bool(self._trajectory.failure_times)

    @property
    def trajectory(self) -> Trajectory:
        """The record of the active run (mutated as the run advances).

        Mid-run, its visit count and inspection cost may lag: periodic
        visits that found nothing are booked later (module docstring),
        at the latest when :meth:`finish` closes the record.
        """
        return self._trajectory

    def begin(self, rng: np.random.Generator) -> None:
        """Initialise a stepwise run; drive it with :meth:`step`.

        Equivalent to the setup :meth:`simulate` performs before its
        event loop.  Use :meth:`finish` to close the trajectory record.
        """
        self._reset(rng)

    def step(self) -> bool:
        """Execute the next event within the horizon.

        Returns False once the calendar is exhausted, the next event
        lies past the horizon, or an absorbing stop was requested —
        i.e. exactly when :meth:`Engine.run_until` would have returned.
        """
        if self._engine.stopped:
            return False
        next_time = self._engine.peek_time()
        if next_time is None or next_time > self._horizon:
            return False
        return self._engine.step()

    def finish(self) -> Trajectory:
        """Run the remaining events to the horizon and close the record."""
        if not self._engine.stopped:
            self._engine.advance(self._horizon)
        self._finalize()
        return self._trajectory

    def snapshot(self) -> SimulatorSnapshot:
        """Capture the complete mid-run state of the simulator.

        The snapshot is independent of the run's future: it stays valid
        after the run advances, so a splitting driver can take one
        snapshot at a level up-crossing and restore it several times.
        """
        return SimulatorSnapshot(
            engine=self._engine.snapshot(),
            phase=dict(self._phase),
            accel=dict(self._accel),
            state=dict(self._state),
            fail_time=dict(self._fail_time),
            transition=dict(self._transition),
            pending_actions={
                name: dict(handles)
                for name, handles in self._pending_actions.items()
            },
            system_down=self._system_down,
            down_since=self._down_since,
            trajectory=self._trajectory.copy(),
            visit_pos=self._visit_pos,
            armed=self._armed,
            armed_at=self._armed_at,
            hot=tuple(self._hot),
        )

    def restore(
        self,
        snapshot: SimulatorSnapshot,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Rewind the simulator to ``snapshot`` (cloning a trajectory).

        ``rng`` optionally swaps in a fresh random stream for the
        resumed timeline; combine with :meth:`resample_transitions` so
        the clone diverges from its parent.  All scheduled-event handles
        (degradation transitions, pending work orders) are rewired to
        the restored calendar; handles whose event already executed or
        was cancelled before the snapshot resolve to None/are dropped.
        """
        # The abandoned timeline's inspections/actions really happened:
        # fold their deltas into the carries before the trajectory
        # record rewinds to the snapshot's counts.
        self._n_inspections += self._trajectory.n_inspections - self._insp_base
        self._n_preventive_actions += (
            self._trajectory.n_preventive_actions - self._prev_base
        )
        mapping = self._engine.restore(snapshot.engine)
        self._phase = dict(snapshot.phase)
        self._accel = dict(snapshot.accel)
        self._state = dict(snapshot.state)
        self._fail_time = dict(snapshot.fail_time)
        # The incremental gate counters are derived state: rebuild them
        # from the restored child states.
        state = self._state
        self._gate_counts = {
            gate: sum(1 for child in children if state[child])
            for gate, children in self._count_children.items()
        }
        self._transition = {
            name: (mapping.get(id(handle)) if handle is not None else None)
            for name, handle in snapshot.transition.items()
        }
        self._pending_actions = {
            name: {
                module: new_handle
                for module, handle in handles.items()
                if (new_handle := mapping.get(id(handle))) is not None
            }
            for name, handles in snapshot.pending_actions.items()
        }
        self._system_down = snapshot.system_down
        self._down_since = snapshot.down_since
        self._trajectory = snapshot.trajectory.copy()
        self._insp_base = self._trajectory.n_inspections
        self._prev_base = self._trajectory.n_preventive_actions
        self._visit_pos = snapshot.visit_pos
        self._armed = (
            None if snapshot.armed is None else mapping[id(snapshot.armed)]
        )
        self._armed_at = snapshot.armed_at
        self._hot = list(snapshot.hot)
        if rng is not None:
            self._set_rng(rng)

    def resample_transitions(self) -> None:
        """Redraw every pending degradation jump from the current RNG.

        Exponential sojourns are memoryless, so replacing a pending
        phase-jump time with a fresh draw at the same rate leaves the
        trajectory distribution unchanged — this is how restored clones
        are decorrelated from their parent (and from each other).
        Deterministic events (inspections, repairs, work orders,
        restoration) are *not* resampled: their times are part of the
        schedule, not of the stochastic state.
        """
        for name in self._events:
            if self._transition[name] is not None:
                self._cancel_transition(name)
                self._schedule_transition(name)

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------
    def _reset(self, rng: np.random.Generator) -> None:
        instr = instrumentation_of(self)
        if instr is not self._instr:
            # Fold the tallies so far into the *outgoing* registry
            # before swapping in the new one.
            self.flush_instrumentation()
            self._instr = instr
            self._sim_timer = (
                None if instr is None else instr.timer(_obs.TIMER_SIMULATE)
            )
        elif instr is not None:
            # Same registry: the finished run's derived counts join the
            # carries, and the tallies keep counting until the flush.
            trajectory = self._trajectory
            self._n_inspections += trajectory.n_inspections - self._insp_base
            self._n_preventive_actions += (
                trajectory.n_preventive_actions - self._prev_base
            )
        self._engine.reset(instrumentation=instr)
        self._set_rng(rng)
        self._phase = dict(self._phase0)
        self._accel = dict(self._accel0)
        self._transition = dict(self._transition0)
        self._state = dict(self._state0)
        self._fail_time = dict(self._fail0)
        self._gate_counts = dict(self._counts0)
        self._pending_actions = {name: {} for name in self._events}
        self._system_down = False
        self._down_since = 0.0
        self._trajectory = Trajectory(
            horizon=self._horizon,
            events_recorded=self.config.record_events,
        )
        self._insp_base = 0
        self._prev_base = 0
        if self._calendar is None:
            self._calendar = _VisitCalendar(
                self._periodic_plans, self._horizon, self._discount_rate
            )
        # Every phase is 0 and thresholds are >= 1, so no round can find
        # anything yet: nothing to arm.
        self._zero_visits()

        # Periodic rounds draw nothing at their first tick, so leaving
        # them out keeps the draw order.
        for name in self._events:
            self._schedule_transition(name)
        for plan in self._exponential_plans:
            self._schedule_tick(plan, self._first_tick(plan), _PRIO_INSPECTION)
        for plan in self._repair_plans:
            self._schedule_tick(plan, self._first_tick(plan), _PRIO_REPAIR)

    def _first_tick(self, plan: _ModulePlan) -> float:
        if plan.exponential:
            return self._rng_exponential(plan.period)
        return plan.offset

    def _schedule_tick(self, plan: _ModulePlan, time: float, priority: int) -> None:
        if time > self._horizon:
            return
        self._schedule(time, plan.callback, priority)

    def _finalize(self) -> None:
        if self._system_down:
            # The visits left all fall in the final downtime.
            elapsed = self._horizon - self._down_since
            if elapsed > 0.0:
                self._trajectory.downtime += elapsed
                self._charge_downtime(self._down_since, self._horizon)
        else:
            self._settle(len(self._calendar.times))

    def _discount_factor(self, time: float) -> float:
        # Mirrors CostModel.discount_factor exactly (bit-identity);
        # inlined here so the undiscounted common case costs one
        # comparison instead of a method call plus math.exp.
        rate = self._discount_rate
        if rate == 0.0:
            return 1.0
        return math.exp(-rate * time)

    # ------------------------------------------------------------------
    # Degradation dynamics
    # ------------------------------------------------------------------
    def _schedule_transition(self, name: str) -> None:
        """Schedule the next phase jump of component ``name``."""
        phase = self._phase[name]
        inv_rates = self._inv_rates[name]
        if phase >= len(inv_rates):
            self._transition[name] = None
            return
        accel = self._accel[name]
        if accel == 1.0:
            # rate * 1.0 == rate exactly, so the precomputed reciprocal
            # is bit-identical to 1.0 / (rate * accel).
            scale = inv_rates[phase]
        else:
            scale = 1.0 / (self._rates[name][phase] * accel)
        delay = self._rng_exponential(scale)
        self._transition[name] = self._schedule_after(
            delay, self._jump_cb[name], _PRIO_TRANSITION
        )

    def _on_phase_jump(self, name: str) -> None:
        phase = self._phase[name] + 1
        self._phase[name] = phase
        if self._instr is not None:
            self._n_phase_jumps += 1
        if phase >= self._n_phases[name]:
            self._transition[name] = None
            if self._instr is not None:
                self._n_component_failures += 1
            if self._recording:
                self._record(name, "failure", phase=phase)
            self._set_component_state(name, failed=True)
        else:
            self._schedule_transition(name)
        if phase in self._triggers[name]:
            self._recheck(name)

    def _cancel_transition(self, name: str) -> None:
        pending = self._transition[name]
        if pending is not None:
            pending.cancel()
            self._transition[name] = None

    def _set_phase(self, name: str, phase: int) -> None:
        """Force component ``name`` to ``phase`` (maintenance restore)."""
        n_phases = self._n_phases[name]
        if not 0 <= phase <= n_phases:
            raise SimulationError(f"{name}: phase {phase} out of range")
        was_failed = self._phase[name] >= n_phases
        self._cancel_transition(name)
        self._phase[name] = phase
        self._schedule_transition(name)
        now_failed = phase >= n_phases
        if was_failed != now_failed:
            self._set_component_state(name, failed=now_failed)

    # ------------------------------------------------------------------
    # State propagation
    # ------------------------------------------------------------------
    def _set_component_state(self, name: str, failed: bool) -> None:
        if self._state[name] == failed:
            return
        self._state[name] = failed
        self._fail_time[name] = self._engine.now if failed else None
        self._propagate_from(name, 1 if failed else -1)

    def _propagate_from(self, origin: str, delta: int) -> None:
        """Recompute gate states upward from ``origin``; handle effects.

        ``delta`` is the origin's state change (+1 failed, -1 restored).
        Monotone gates update their failed-children count in O(1); only
        priority-AND gates re-evaluate their children.  Deltas are
        recorded at flip time (not read back from the state dict), so
        shared gates in a DAG that flip more than once during one
        propagation stay exact.
        """
        state = self._state
        fail_time = self._fail_time
        counts = self._gate_counts
        parent_info = self._parent_info
        now = self._engine.now
        top = self._top_name
        changed: List[Tuple[str, int]] = [(origin, delta)]
        self._apply_rdep_effects(origin)
        index = 0
        while index < len(changed):
            current, delta = changed[index]
            index += 1
            for parent_name, gate, threshold in parent_info[current]:
                if threshold is not None:
                    count = counts[parent_name] + delta
                    counts[parent_name] = count
                    new_state = count >= threshold
                else:
                    new_state = self._evaluate_pand(gate)
                if new_state == state[parent_name]:
                    continue
                state[parent_name] = new_state
                fail_time[parent_name] = now if new_state else None
                self._apply_rdep_effects(parent_name)
                if parent_name == top and new_state:
                    self._on_system_failure()
                changed.append((parent_name, 1 if new_state else -1))

    def _evaluate_pand(self, gate: PandGate) -> bool:
        """Exact order-sensitive priority-AND evaluation."""
        state = self._state
        fail_time = self._fail_time
        previous = -math.inf
        for child in gate.children:
            child_name = child.name
            if not state[child_name]:
                return False
            time = fail_time[child_name]
            if time < previous:
                return False
            previous = time
        return True

    def _apply_rdep_effects(self, trigger_name: str) -> None:
        for dep in self._rdeps_by_trigger.get(trigger_name, ()):
            for target in dep.targets:
                self._update_accel(target)

    def _update_accel(self, target: str) -> None:
        factor = 1.0
        for dep in self._rdeps_by_target.get(target, ()):
            if self._state[dep.trigger]:
                factor *= dep.factor
        if factor == self._accel[target]:
            return
        self._accel[target] = factor
        if self._instr is not None:
            self._n_rdep_accelerations += 1
        # Exponential sojourns are memoryless: rescheduling the pending
        # jump with the new rate realises the rate change exactly.
        if self._transition[target] is not None:
            self._cancel_transition(target)
            self._schedule_transition(target)

    # ------------------------------------------------------------------
    # System failure response
    # ------------------------------------------------------------------
    def _on_system_failure(self) -> None:
        now = self._engine.now
        # Visits before this instant ran with the system up; the rest
        # fall in downtime until the restoration drops them.
        self._settle(bisect_left(self._calendar.times, now))
        if self._armed is not None:
            self._armed.cancel()
            self._armed = None
        self._armed_at = -1
        if self._instr is not None:
            self._n_system_failures += 1
        self._trajectory.failure_times.append(now)
        if self._recording:
            self._record(self._top_name, "system_failure")
        cost_model = self.config.cost_model
        self._trajectory.costs.failures += (
            cost_model.system_failure * self._discount_factor(now)
        )

        if self.strategy.on_system_failure == "none":
            # Absorbing: the system stays down until the horizon.
            self._system_down = True
            self._down_since = now
            self._engine.stop()
            return

        self._system_down = True
        self._down_since = now
        self._trajectory.n_corrective_replacements += 1
        # The asset is being replaced: nothing degrades, planned work on
        # the old asset is moot.
        for name in self._events:
            self._cancel_transition(name)
        for pending in self._pending_actions.values():
            for handle in pending.values():
                handle.cancel()
            pending.clear()
        self._engine.schedule_after(
            self.strategy.system_repair_time, self._on_system_restored, _PRIO_RESTORE
        )

    def _on_system_restored(self) -> None:
        now = self._engine.now
        if self._instr is not None:
            self._n_system_restorations += 1
        elapsed = now - self._down_since
        self._trajectory.downtime += elapsed
        self._charge_downtime(self._down_since, now)
        self._system_down = False
        if self._recording:
            self._record(self._top_name, "system_restored")
        for name in self._events:
            self._phase[name] = 0
            if self._state[name]:
                self._set_component_state(name, failed=False)
            self._schedule_transition(name)
        # Visits in the downtime are neither run nor booked; the ones at
        # this instant come after the restoration.
        self._visit_pos = bisect_left(self._calendar.times, now)
        self._rewatch(self._visit_pos)

    def _charge_downtime(self, start: float, end: float) -> None:
        self._trajectory.costs.downtime += (
            self.config.cost_model.discounted_downtime_cost(start, end)
        )

    # ------------------------------------------------------------------
    # Inspection modules
    # ------------------------------------------------------------------
    def _on_inspection(self, plan: _ModulePlan) -> None:
        """A visit of an exponential-timing round (an engine event)."""
        now = self._engine.now
        # Reschedule first: the RNG draw happens before any detection
        # draws of this visit, exactly as in the reference code.
        next_time = now + self._rng_exponential(plan.period)
        if next_time <= self._horizon:
            self._schedule(next_time, plan.callback, _PRIO_INSPECTION)
        if self._system_down:
            return
        # The skipped periodic visits before this instant add their
        # costs first.  A periodic visit at the very same instant (a
        # tie of a continuous draw) is taken to come after this one.
        position = bisect_left(self._calendar.times, now)
        self._settle(position)
        trajectory = self._trajectory
        trajectory.n_inspections += 1
        rate = self._discount_rate
        trajectory.costs.inspections += plan.visit_cost * (
            1.0 if rate == 0.0 else math.exp(-rate * now)
        )
        self._inspect(plan)
        self._rewatch(position)

    def _on_visit(self) -> None:
        """The armed periodic visit: book the skipped ones, then run it."""
        index = self._armed_at
        self._armed = None
        self._armed_at = -1
        # Its own count and cost come last, as its turn in the calendar.
        self._settle(index + 1)
        self._inspect(self._periodic_plans[self._calendar.plan_of[index]])
        self._rewatch(index + 1)

    def _inspect(self, plan: _ModulePlan) -> None:
        """A visit's findings: corrective replacements, detections and
        the work orders they raise (its count and cost are booked by
        the caller)."""
        instr = self._instr
        state = self._state
        phase = self._phase
        pending_actions = self._pending_actions
        detection_probability = plan.detection_probability
        for target, threshold in plan.targets:
            if state[target]:
                if plan.detect_failures:
                    self._corrective_replace(target)
                continue
            if phase[target] < threshold:
                continue
            if (
                detection_probability < 1.0
                and self._rng_random() >= detection_probability
            ):
                continue  # imperfect inspection missed the degradation
            if instr is not None:
                self._n_detections += 1
            if self._recording:
                self._record(target, "detection", phase=phase[target])
            if plan.name in pending_actions[target]:
                continue
            if plan.delay <= 0.0:
                self._perform_action(plan, target)
            else:
                handle = self._schedule_after(
                    plan.delay,
                    partial(self._on_delayed_action, plan, target),
                    _PRIO_ACTION,
                )
                pending_actions[target][plan.name] = handle

    # ------------------------------------------------------------------
    # On-demand periodic visits (module docstring)
    # ------------------------------------------------------------------
    def _finds_something(self, plan: _ModulePlan) -> bool:
        """Whether a visit of ``plan`` now would draw or act.

        Mirrors :meth:`_inspect`: a failed target matters only to a
        round that detects failures, a working one from its threshold
        on.  A visit that finds nothing draws nothing and changes
        nothing but the visit count and the inspection cost.
        """
        phase = self._phase
        for target, threshold, n_phases in plan.watch:
            k = phase[target]
            if k >= threshold and (k < n_phases or plan.detect_failures):
                return True
        return False

    def _recheck(self, name: str) -> None:
        """Re-check the rounds inspecting ``name`` after its phase jumped
        to its threshold or to failure (a transition: the visits at this
        instant come after it)."""
        hot = self._hot
        plans = self._periodic_plans
        changed = False
        for index in self._watchers[name]:
            finds = self._finds_something(plans[index])
            if finds != hot[index]:
                hot[index] = finds
                changed = True
        if changed:
            self._arm(bisect_left(self._calendar.times, self._engine.now))

    def _rewatch(self, position: int) -> None:
        """Re-check every round after a visit, maintenance or a
        restoration set phases; ``position`` is the first calendar
        visit that comes after the current event."""
        self._hot = [self._finds_something(plan) for plan in self._periodic_plans]
        self._arm(position)

    def _arm(self, position: int) -> None:
        """Keep the one armed engine event on the first visit at or
        after calendar index ``position`` of a round that can find
        something (none while the system is down)."""
        if self._system_down:
            return
        by_plan = self._calendar.by_plan
        best = -1
        for index, hot in enumerate(self._hot):
            if hot:
                visits = by_plan[index]
                i = bisect_left(visits, position)
                if i < len(visits) and (best < 0 or visits[i] < best):
                    best = visits[i]
        if best == self._armed_at:
            return
        if self._armed is not None:
            self._armed.cancel()
        self._armed_at = best
        self._armed = (
            None if best < 0 else self._schedule(
                self._calendar.times[best], self._visit_cb, _PRIO_INSPECTION
            )
        )

    def _settle(self, stop: int) -> None:
        """Book the unbooked visits before calendar index ``stop``.

        The count moves in one step; the costs are added one by one in
        calendar order, as the visits would have added them.
        """
        start = self._visit_pos
        if stop <= start:
            return
        self._visit_pos = stop
        trajectory = self._trajectory
        trajectory.n_inspections += stop - start
        calendar = self._calendar
        first = bisect_left(calendar.paid_at, start)
        last = bisect_left(calendar.paid_at, stop, first)
        if last > first:
            costs = trajectory.costs
            total = costs.inspections
            for term in calendar.paid[first:last]:
                total += term
            costs.inspections = total

    def _on_delayed_action(self, plan: _ModulePlan, target: str) -> None:
        self._pending_actions[target].pop(plan.name, None)
        if self._system_down:
            return
        if self._state[target]:
            # The component failed while the work order was pending;
            # the crew replaces it instead.
            self._corrective_replace(target)
        else:
            self._perform_action(plan, target)
        # Work orders run after the visits of their instant.
        self._rewatch(bisect_right(self._calendar.times, self._engine.now))

    def _perform_action(self, plan: _ModulePlan, target: str) -> None:
        trajectory = self._trajectory
        trajectory.costs.preventive += plan.action_cost[
            target
        ] * self._discount_factor(self._engine.now)
        trajectory.n_preventive_actions += 1
        new_phase = plan.action.resulting_phase(self._phase[target])
        if self._recording:
            self._record(target, plan.action_kind, phase=new_phase)
        self._set_phase(target, new_phase)

    def _corrective_replace(self, target: str) -> None:
        trajectory = self._trajectory
        trajectory.costs.corrective += self._corrective_cost[
            target
        ] * self._discount_factor(self._engine.now)
        trajectory.n_corrective_replacements += 1
        if self._instr is not None:
            self._n_corrective += 1
        if self._recording:
            self._record(target, "replace", corrective=True, phase=0)
        self._set_phase(target, 0)

    # ------------------------------------------------------------------
    # Repair modules
    # ------------------------------------------------------------------
    def _on_repair(self, plan: _ModulePlan) -> None:
        now = self._engine.now
        if plan.exponential:
            next_time = now + self._rng_exponential(plan.period)
        else:
            next_time = now + plan.period
        if next_time <= self._horizon:
            self._schedule(next_time, plan.callback, _PRIO_REPAIR)
        if self._system_down:
            return
        if self._instr is not None:
            self._n_repair_rounds += 1
        for target, _ in plan.targets:
            self._perform_action(plan, target)
        # Repair rounds run before the visits of their instant.
        self._rewatch(bisect_left(self._calendar.times, now))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(
        self,
        component: str,
        kind: str,
        corrective: bool = False,
        phase: Optional[int] = None,
    ) -> None:
        if not self._recording:
            return
        self._trajectory.events.append(
            ComponentEvent(
                time=self._engine.now,
                component=component,
                kind=kind,
                corrective=corrective,
                phase=phase,
            )
        )
