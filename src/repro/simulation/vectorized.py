"""Lockstep vectorized trajectory kernel.

The object engine (:class:`~repro.simulation.executor.FMTSimulator`)
walks one trajectory at a time through a discrete-event calendar.  This
module simulates N trajectories *in lockstep* as struct-of-arrays
columns: phase-jump chains are batch-sampled as Erlang cumulative sums,
gate evaluation is compiled into numpy selection kernels over
per-component failure-time columns, and the only per-trajectory Python
left is the chunk loop itself.

The kernel exploits a structural property of the simulated process:
between two *deterministic* calendar points (the merged inspection /
repair tick epochs), the system evolves purely by component degradation
— components only move toward failure, never away.  Over such an
interval the entire future of each component is one pre-sampled jump
chain, every monotone gate's failure time is a min/max/k-th-smallest
selection over its children's failure times, a priority-AND fires at
its last child's failure time iff the children's failure times are
non-decreasing, and RDEP rate switches happen exactly at trigger
failure times and are realised by memoryless re-draws of the target
chains.  Everything stochastic therefore vectorizes; everything
non-vectorizable is deterministic and shared across the batch.

Models whose event times are *per-trajectory random* on the calendar —
exponentially timed modules, inspection work-order delays — or whose
failure-time composition needs historical gate flip times (PAND gates
over subtrees, RDEPs triggered by gates, chained RDEPs) break the
lockstep property.  :func:`vectorized_fallback_reason` classifies them
up front, and the driver then runs the batch through the object engine
instead — bit-identical to the plain object path, which stays the
correctness oracle (see :mod:`repro.simulation.differential` for the
distributional-equivalence harness).

Determinism: a study of ``n_runs`` trajectories runs the chunk plan
:func:`chunk_plan` ``(n_runs, chunk_trajectories)`` — ``k =
ceil(n_runs / chunk_trajectories)`` chunks of near-equal size — and
chunk ``i`` draws from ``default_rng(root.spawn(k)[i])``.  The plan
never depends on the process count, so serial and pooled runs of one
study return the same bytes.  Results are *distributionally*
equivalent to — but not bit-identical with — the object engine, and
they are not invariant to the chunk size.  Studies that need
bit-level reproducibility against golden fixtures keep
``kernel="object"``.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gates import OrGate, PandGate, VotingGate
from repro.errors import SimulationError, ValidationError
from repro.observability import instrumentation as _obs
from repro.simulation.batch import COST_FIELDS, TrajectoryAccumulator, TrajectoryBatch
from repro.simulation.executor import (
    DEFAULT_CHUNK_TRAJECTORIES,
    FMTSimulator,
    _replay_schedule,
)

__all__ = [
    "DEFAULT_CHUNK_TRAJECTORIES",
    "VectorizedKernel",
    "chunk_plan",
    "iter_vectorized_batches",
    "runs_lockstep",
    "simulate_batch_columns_vectorized",
    "vectorized_fallback_reason",
]

#: Hard cap on wave iterations per inter-epoch interval — each
#: iteration commits at least one rate switch or system failure per
#: stuck row, so hitting the cap means a logic error, not a big model.
_MAX_WAVE_ITERATIONS = 10_000

#: Rows per refill block of the pre-drawn RNG pools.  Re-draws after
#: chunk initialisation touch tens of rows at a time, so one block
#: amortizes hundreds of generator calls.
_POOL_REFILL = 1024


# ----------------------------------------------------------------------
# Model classification
# ----------------------------------------------------------------------
def vectorized_fallback_reason(simulator: FMTSimulator) -> Optional[str]:
    """Why ``simulator``'s model cannot run on the lockstep kernel.

    Returns None when the model is fully vectorizable, otherwise a
    human-readable reason.  The drivers run the object engine — the
    oracle — for any non-None reason, so a conservative classification
    costs throughput, never correctness.
    """
    tree = simulator.tree
    events = simulator._events
    for plan in simulator._inspection_plans + simulator._repair_plans:
        if plan.exponential:
            return (
                f"module {plan.name!r} uses exponential timing "
                "(per-trajectory tick times break the lockstep calendar)"
            )
        if plan.delay > 0.0:
            return (
                f"module {plan.name!r} schedules delayed work orders "
                "(per-trajectory action times break the lockstep calendar)"
            )
    targets = set()
    for dep in tree.dependencies:
        targets.update(dep.targets)
    for dep in tree.dependencies:
        if dep.trigger not in events:
            return (
                f"RDEP trigger {dep.trigger!r} is a gate (composed gate "
                "failure times do not track historical flip times)"
            )
        if dep.trigger in targets:
            return (
                f"RDEP trigger {dep.trigger!r} is itself rate-dependent "
                "(chained RDEPs invalidate the switch fixed point)"
            )
    for gate in tree.gates.values():
        if isinstance(gate, PandGate):
            for child in gate.children:
                if child.name not in events:
                    return (
                        f"PAND gate {gate.name!r} has gate child "
                        f"{child.name!r} (order checks need historical "
                        "flip times)"
                    )
    return None


def runs_lockstep(simulator: FMTSimulator) -> bool:
    """Whether ``simulator``'s batches run on the lockstep kernel.

    True for ``kernel="vectorized"`` simulators whose model vectorizes.
    Everything else — including vectorized-kernel simulators whose
    model falls back — runs the object engine with one seed per
    trajectory, bit-identical to ``kernel="object"``.
    """
    return (
        simulator.config.kernel == "vectorized"
        and vectorized_fallback_reason(simulator) is None
    )


def chunk_plan(n_runs: int, chunk_trajectories: int) -> List[int]:
    """Row counts of the lockstep chunks of an ``n_runs`` study.

    ``ceil(n_runs / chunk_trajectories)`` chunks whose sizes differ by
    at most one (larger chunks first), so no chunk exceeds
    ``chunk_trajectories`` and no chunk is a small remainder.  The
    plan is a pure function of its two arguments: chunk ``i`` draws
    from the ``i``-th of ``len(plan)`` streams spawned from the study's
    root seed whether it runs in-process or on any pool worker.
    """
    if n_runs < 1:
        raise ValidationError(f"n_runs must be >= 1, got {n_runs}")
    if chunk_trajectories < 1:
        raise ValidationError(
            f"chunk_trajectories must be >= 1, got {chunk_trajectories}"
        )
    k = -(-n_runs // chunk_trajectories)
    base, extra = divmod(n_runs, k)
    return [base + 1] * extra + [base] * (k - extra)


# ----------------------------------------------------------------------
# Compiled model tables
# ----------------------------------------------------------------------
class _GateOp:
    """One compiled gate: a selection kernel over child value slots."""

    __slots__ = ("slot", "kind", "children", "k")

    # kind codes
    PAND = 0
    MIN = 1  # OR / VOT(k=1)
    MAX = 2  # AND / inhibit / VOT(k=n)
    KTH = 3  # VOT(1 < k < n)

    def __init__(self, slot: int, kind: int, children: Tuple[int, ...], k: int = 0):
        self.slot = slot
        self.kind = kind
        self.children = children
        self.k = k


class _PlanCols:
    """One module plan with names resolved to event column indices."""

    __slots__ = (
        "name",
        "visit_cost",
        "detect_failures",
        "detection_probability",
        "restore_phases",
        "targets",  # tuples (event index, threshold, action cost, corrective cost)
    )

    def __init__(self, plan, index: Dict[str, int], corrective_cost: Dict[str, float]):
        self.name = plan.name
        self.visit_cost = plan.visit_cost
        self.detect_failures = plan.detect_failures
        self.detection_probability = plan.detection_probability
        self.restore_phases = plan.action.restore_phases
        self.targets = tuple(
            (
                index[target],
                threshold,
                plan.action_cost[target],
                corrective_cost[target],
            )
            for target, threshold in plan.targets
        )


class _FusedInspect:
    """Inspection rounds of one epoch compiled into a single pass.

    An epoch's line-up of rounds is one pass when no component is
    inspected by two of its rounds, and one single-round pass per
    round, in line-up order, when rounds share a component (a later
    round must see what an earlier one did to it).  Either way each
    inspected event appears at most once in a pass, so the per-target
    failed / threshold-crossed scans collapse into two stacked 2-D
    comparisons (one over the F rows of the inspected events, one over
    the crossing-time rows), and the per-round visit bookkeeping folds
    into one masked add each.  Targets whose threshold equals the phase
    count are *detect-only* — crossing the threshold is failing — and
    are excluded from the condition block entirely.
    """

    __slots__ = (
        "n_visits",  # number of rounds in the pass
        "visit_cost",  # their summed visit cost
        "targets",  # flat (e, action_cost, corrective_cost, dp,
        #             detect, renew, restore_phases, cond_pos) tuples
        "tidx",  # (m,) event index per target (failed-scan rows)
        "xsel",  # (c,) Xmat row per condition target
        "cond_sel",  # (c,) target position per condition target
    )


class _ExpPool:
    """Pre-drawn standard-exponential columns served in call order.

    Replaces per-re-draw generator calls with slices of one large
    batch: the RNG is still consumed in a deterministic order (the
    kernel stays a pure function of the seed), but hundreds of small
    ``standard_exponential`` dispatches collapse into a few block
    draws.  Leftover rows of a block too small for a request are
    discarded — distributionally irrelevant, and keeping them would
    complicate the accounting for no measurable gain.
    """

    __slots__ = ("_rng", "_k", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, k: int, capacity: int):
        self._rng = rng
        self._k = k
        self._buf = rng.standard_exponential((capacity, k))
        self._pos = 0

    def take(self, m: int) -> np.ndarray:
        if self._pos + m > len(self._buf):
            self._buf = self._rng.standard_exponential(
                (max(m, _POOL_REFILL), self._k)
            )
            self._pos = 0
        out = self._buf[self._pos : self._pos + m]
        self._pos += m
        return out


class _UniformPool:
    """Pre-drawn uniform [0, 1) column for detection-probability rolls."""

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = np.empty(0)
        self._pos = 0

    def take(self, m: int) -> np.ndarray:
        if self._pos + m > len(self._buf):
            self._buf = self._rng.random(max(m, _POOL_REFILL))
            self._pos = 0
        out = self._buf[self._pos : self._pos + m]
        self._pos += m
        return out


class _ChunkState:
    """Struct-of-arrays state of one lockstep chunk (n rows)."""

    __slots__ = (
        "n",
        "jumps",  # per event: (n, K_e) absolute jump times, inf-padded
        "p0",  # per event: (n,) phase at the chain's draw point
        "F",  # (E, n) final-jump (component failure) times
        "Xmat",  # (n_thresholds, n) threshold crossing times
        "X",  # per (event, threshold): view of the Xmat row
        "T",  # (n,) cached composed system failure times
        "S",  # (n,) cached earliest eligible RDEP switch candidate
        "dirty",  # (n,) rows whose T/S caches are stale
        "pools",  # per event: _ExpPool feeding its re-draws
        "upool",  # _UniformPool feeding detection rolls
        "down_until",
        "done",
        "downtime",
        "costs",
        "n_insp",
        "n_prev",
        "n_corr",
        "fail_rows",
        "fail_times",
        "path_t0",  # per RDEP target: (n,) draw time of the live chain
        "factor",  # per RDEP target: (n,) acceleration baked into it
    )

    def __init__(
        self,
        n: int,
        n_events: int,
        rdep_targets: Sequence[int],
        threshold_keys: Sequence[Tuple[int, int]] = (),
    ):
        self.n = n
        self.jumps: List[np.ndarray] = [None] * n_events  # type: ignore[list-item]
        self.p0: List[np.ndarray] = [None] * n_events  # type: ignore[list-item]
        self.F = np.zeros((n_events, n))
        # Row views of one contiguous matrix: scatter writes go through
        # the per-key views, while the fused inspection pass compares
        # whole row blocks of Xmat in a single 2-D op.
        self.Xmat = np.full((len(threshold_keys), n), np.inf)
        self.X = {key: self.Xmat[i] for i, key in enumerate(threshold_keys)}
        self.T = np.full(n, np.inf)
        self.S = np.full(n, np.inf)
        self.dirty = np.ones(n, dtype=bool)
        self.pools: List[_ExpPool] = []
        self.upool: Optional[_UniformPool] = None
        self.down_until = np.zeros(n)
        self.done = np.zeros(n, dtype=bool)
        self.downtime = np.zeros(n)
        self.costs = {field: np.zeros(n) for field in COST_FIELDS}
        self.n_insp = np.zeros(n, dtype=np.int64)
        self.n_prev = np.zeros(n, dtype=np.int64)
        self.n_corr = np.zeros(n, dtype=np.int64)
        self.fail_rows: List[np.ndarray] = []
        self.fail_times: List[np.ndarray] = []
        self.path_t0 = {e: np.zeros(n) for e in rdep_targets}
        self.factor = {e: np.ones(n) for e in rdep_targets}


class VectorizedKernel:
    """Compiled lockstep sampler for one (tree, strategy, config).

    Construction compiles the simulator's static tables into numpy form
    (per-phase reciprocal-rate matrices, topologically ordered gate
    selection ops, RDEP dependency columns, the merged tick-epoch
    calendar); :meth:`simulate_chunk` then runs N trajectories per call
    using only the provided RNG.

    Raises
    ------
    SimulationError
        If the model is not vectorizable — callers are expected to
        check :func:`vectorized_fallback_reason` first.
    """

    def __init__(self, simulator: FMTSimulator):
        reason = vectorized_fallback_reason(simulator)
        if reason is not None:
            raise SimulationError(f"model is not vectorizable: {reason}")
        self.simulator = simulator
        self.horizon = simulator.config.horizon
        cost_model = simulator.config.cost_model
        self.discount_rate = cost_model.discount_rate
        self.downtime_per_year = cost_model.downtime_per_year
        self.system_failure_cost = cost_model.system_failure
        strategy = simulator.strategy
        self.absorbing = strategy.on_system_failure == "none"
        self.repair_time = strategy.system_repair_time
        self._compile_events(simulator)
        self._compile_gates(simulator)
        self._compile_rdeps(simulator)
        self._compile_calendar(simulator)

    # -- compilation ----------------------------------------------------
    def _compile_events(self, sim: FMTSimulator) -> None:
        self.names: List[str] = list(sim._events)
        self.index: Dict[str, int] = {
            name: e for e, name in enumerate(self.names)
        }
        self.n_events = len(self.names)
        self.K: List[int] = [sim._n_phases[name] for name in self.names]
        # inv_from[e][p] = the reciprocal rates of the remaining phases
        # p, p+1, ..., K-1, zero-padded: one row-indexed gather gives
        # the Erlang scale matrix for a whole batch of re-draws.
        self.inv_from: List[np.ndarray] = []
        for name in self.names:
            inv = np.asarray(sim._inv_rates[name])
            K = len(inv)
            table = np.zeros((K + 1, K))
            for p in range(K):
                table[p, : K - p] = inv[p:]
            self.inv_from.append(table)
        # Phase-0 scale rows, pre-sliced for the renewal fast path.
        self.inv0: List[np.ndarray] = [table[0] for table in self.inv_from]

    def _compile_gates(self, sim: FMTSimulator) -> None:
        tree = sim.tree
        slots = dict(self.index)
        ops: List[_GateOp] = []

        def visit(node) -> int:
            name = node.name
            if name in slots:
                return slots[name]
            children = tuple(visit(child) for child in node.children)
            slot = self.n_events + len(ops)
            slots[name] = slot
            # isinstance dispatch mirrors the executor's threshold
            # derivation: PAND -> order-sensitive, VOT -> k, OR -> 1,
            # anything else (AND, inhibit) -> all children.
            if isinstance(node, PandGate):
                ops.append(_GateOp(slot, _GateOp.PAND, children))
            elif isinstance(node, VotingGate):
                if node.k == 1:
                    ops.append(_GateOp(slot, _GateOp.MIN, children))
                elif node.k == len(children):
                    ops.append(_GateOp(slot, _GateOp.MAX, children))
                else:
                    ops.append(_GateOp(slot, _GateOp.KTH, children, node.k))
            elif isinstance(node, OrGate):
                ops.append(_GateOp(slot, _GateOp.MIN, children))
            else:
                ops.append(_GateOp(slot, _GateOp.MAX, children))
            return slot

        self.top_slot = visit(tree.top)
        self.gate_ops = ops
        self.n_slots = self.n_events + len(ops)

    def _compile_rdeps(self, sim: FMTSimulator) -> None:
        # Per target event index: [(trigger event index, factor), ...].
        deps: Dict[int, List[Tuple[int, float]]] = {}
        for dep in sim.tree.dependencies:
            trig = self.index[dep.trigger]
            for target in dep.targets:
                deps.setdefault(self.index[target], []).append(
                    (trig, dep.factor)
                )
        self.rdep_deps = deps

    def _compile_calendar(self, sim: FMTSimulator) -> None:
        # Per tick time: (repair plans, inspection rounds), each in the
        # object engine's order, from its own schedule replay: the
        # epochs are the same floats and an instant's line-up the same
        # order on both engines.  Repairs run before inspections (ties:
        # engine priority).
        ticks: Dict[float, Tuple[List[_PlanCols], List[_PlanCols]]] = {}
        for slot, plans in enumerate((sim._repair_plans, sim._inspection_plans)):
            cols = [
                _PlanCols(plan, self.index, sim._corrective_cost) for plan in plans
            ]
            for t, i in zip(*_replay_schedule(plans, self.horizon)):
                ticks.setdefault(t, ([], []))[slot].append(cols[i])
        # Thresholds inspected per event: each (event, threshold) pair
        # gets a cached crossing-time column in the chunk state, so the
        # per-epoch condition check is one comparison instead of a
        # phase count over the whole jump matrix.
        thresholds: Dict[int, set] = {}
        for plan in sim._inspection_plans:
            for target, threshold in plan.targets:
                thresholds.setdefault(self.index[target], set()).add(threshold)
        self.plan_thresholds: Dict[int, Tuple[int, ...]] = {
            e: tuple(sorted(ts)) for e, ts in thresholds.items()
        }
        self.threshold_keys: Tuple[Tuple[int, int], ...] = tuple(
            (e, thr)
            for e, ts in sorted(self.plan_thresholds.items())
            for thr in ts
        )
        # Each epoch holds its repair plans and its inspection passes.
        # The epochs of a periodic policy share a few line-ups, so the
        # passes are compiled once per distinct line-up.
        passes: Dict[Tuple[int, ...], Tuple[_FusedInspect, ...]] = {}
        self.epochs: List[
            Tuple[float, List[_PlanCols], Tuple[_FusedInspect, ...]]
        ] = []
        for t in sorted(ticks):
            repairs, rounds = ticks[t]
            key = tuple(map(id, rounds))
            if key not in passes:
                passes[key] = self._fuse_inspections(rounds)
            self.epochs.append((t, repairs, passes[key]))

    def _fuse_inspections(
        self, rounds: Sequence[_PlanCols]
    ) -> Tuple[_FusedInspect, ...]:
        """The inspection passes of one line-up of rounds.

        One pass for the whole line-up when no component is inspected
        by two of its rounds.  Otherwise one single-round pass per
        round, in line-up order: a later round sees the earlier rounds'
        restores and re-draws of a shared component, which one up-front
        scan could not.  (A round never names a target twice.)
        """
        events = [e for p in rounds for e, _, _, _ in p.targets]
        if len(set(events)) < len(events):
            return tuple(self._fuse_inspections([p])[0] for p in rounds)
        if not rounds:
            return ()
        xrow = {key: i for i, key in enumerate(self.threshold_keys)}
        targets = []
        tidx: List[int] = []
        xsel: List[int] = []
        cond_sel: List[int] = []
        for p in rounds:
            renew = p.restore_phases is None
            for e, thr, action_cost, corrective_cost in p.targets:
                if thr < self.K[e]:
                    cond_pos: Optional[int] = len(xsel)
                    xsel.append(xrow[(e, thr)])
                    cond_sel.append(len(targets))
                else:
                    cond_pos = None
                targets.append(
                    (
                        e,
                        action_cost,
                        corrective_cost,
                        p.detection_probability,
                        p.detect_failures,
                        renew,
                        p.restore_phases,
                        cond_pos,
                    )
                )
                tidx.append(e)
        fe = _FusedInspect()
        fe.n_visits = len(rounds)
        fe.visit_cost = sum(p.visit_cost for p in rounds)
        fe.targets = tuple(targets)
        fe.tidx = np.asarray(tidx, dtype=np.intp)
        fe.xsel = np.asarray(xsel, dtype=np.intp)
        fe.cond_sel = np.asarray(cond_sel, dtype=np.intp)
        return (fe,)

    # -- sampling primitives --------------------------------------------
    def _redraw(
        self,
        st: _ChunkState,
        e: int,
        rows: np.ndarray,
        t,
        phases: np.ndarray,
        factor: np.ndarray,
    ) -> None:
        """Re-sample event ``e``'s remaining jump chain for ``rows``.

        ``t`` (scalar or per-row array) is the draw point, ``phases``
        the phase there (``None`` means phase 0 for every row — the
        renewal fast path), ``factor`` the acceleration in force
        (``None`` means no acceleration).  Sojourn of phase p at
        acceleration a is Exp(rate_p * a), realised as
        ``standard_exponential() * inv_rate_p / a`` — memorylessness
        makes re-drawing at any point distributionally exact.
        """
        K = self.K[e]
        m = len(rows)
        if type(t) is float:
            t_arr = base = t
        else:
            t_arr = np.asarray(t, dtype=float)
            base = t_arr[:, None] if t_arr.ndim else t_arr
        if phases is None:
            # Fast path: a chain re-drawn from phase 0 (renewals,
            # corrective replacements, restore-to-new actions — the
            # vast majority of re-draws).  No per-row scale gather, no
            # inf padding, plain column slices for F and the crossing
            # times.
            sojourns = st.pools[e].take(m) * self.inv0[e]
            if factor is not None:
                sojourns /= factor[:, None]
            jumps = sojourns.cumsum(axis=1, out=sojourns)
            jumps += base
            st.jumps[e][rows] = jumps
            st.p0[e][rows] = 0
            st.F[e][rows] = jumps[:, K - 1]
            st.dirty[rows] = True
            for thr in self.plan_thresholds.get(e, ()):
                st.X[(e, thr)][rows] = (
                    -np.inf if thr < 1 else jumps[:, thr - 1]
                )
        else:
            scales = self.inv_from[e][phases]
            sojourns = st.pools[e].take(m) * scales
            if factor is not None:
                sojourns /= factor[:, None]
            jumps = sojourns.cumsum(axis=1, out=sojourns)
            jumps += base
            remaining = K - phases
            # Pad the columns past the remaining phases with +inf —
            # leaving the zero-sojourn duplicates in place would
            # overcount phases in _phase_at.
            jumps[np.arange(K)[None, :] >= remaining[:, None]] = np.inf
            st.jumps[e][rows] = jumps
            st.p0[e][rows] = phases
            arange_m = np.arange(m)
            st.F[e][rows] = jumps[arange_m, remaining - 1]
            st.dirty[rows] = True
            for thr in self.plan_thresholds.get(e, ()):
                # Crossing time of the inspection threshold: the jump
                # into phase ``thr`` (column thr - p0 - 1 of the
                # chain), already -inf when the chain was drawn at or
                # past the threshold.
                rel = thr - phases - 1
                st.X[(e, thr)][rows] = np.where(
                    rel < 0, -np.inf, jumps[arange_m, np.maximum(rel, 0)]
                )
        if e in self.rdep_deps:
            st.path_t0[e][rows] = t_arr
            st.factor[e][rows] = 1.0 if factor is None else factor

    def _phase_at(self, st: _ChunkState, e: int, rows: np.ndarray, t) -> np.ndarray:
        """Degradation phase of event ``e`` at time ``t`` for ``rows``."""
        if type(t) is float:
            bound = t
        else:
            t_arr = np.asarray(t, dtype=float)
            bound = t_arr[:, None] if t_arr.ndim else t_arr
        return st.p0[e][rows] + np.count_nonzero(
            st.jumps[e][rows] <= bound, axis=1
        )

    def _current_factor(
        self, st: _ChunkState, e: int, rows: np.ndarray, t
    ) -> np.ndarray:
        """Acceleration of target ``e`` at time ``t``: the product over
        its dependencies whose trigger is failed (trigger failure times
        are the F column — triggers are pure basic events).

        ``rows`` may be ``None`` for the whole-column variant (used by
        the end-of-epoch reconciliation, where gathering ~every row
        costs more than the full columns)."""
        fac = None
        for trig, f in self.rdep_deps[e]:
            Ft = st.F[trig] if rows is None else st.F[trig][rows]
            term = np.where(Ft <= t, f, 1.0)
            fac = term if fac is None else fac * term
        return fac

    # -- cost mirrors ---------------------------------------------------
    def _discount(self, t: float) -> float:
        if self.discount_rate == 0.0:
            return 1.0
        return math.exp(-self.discount_rate * t)

    def _discount_arr(self, t: np.ndarray):
        if self.discount_rate == 0.0:
            return 1.0
        return np.exp(-self.discount_rate * t)

    def _downtime_cost(self, start, end):
        r = self.discount_rate
        if r == 0.0:
            return self.downtime_per_year * (np.asarray(end) - start)
        return (
            self.downtime_per_year
            * (np.exp(-r * np.asarray(start)) - np.exp(-r * np.asarray(end)))
            / r
        )

    # -- composition ----------------------------------------------------
    def _compose_top(
        self, st: _ChunkState, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """System failure time per row, given the current jump chains.

        Component slots carry the failure-time columns; each gate op
        selects from its children: OR = min, AND/inhibit = max, VOT(k)
        = k-th smallest, PAND = last child's failure time where the
        children's failure times are non-decreasing, else +inf.  All
        selections propagate *actual component failure times*, so a
        finite top value is the exact instant the object engine would
        raise the top event on the same chains.

        ``rows`` restricts the composition to a row subset (the dirty
        rows of the cached top column); every op is elementwise per
        row, so the subset result equals the full composition gathered
        at ``rows``.
        """
        vals: List[np.ndarray] = [None] * self.n_slots  # type: ignore[list-item]
        for e in range(self.n_events):
            vals[e] = st.F[e] if rows is None else st.F[e][rows]
        for op in self.gate_ops:
            children = [vals[c] for c in op.children]
            if op.kind == _GateOp.MIN:
                v = np.minimum.reduce(children)
            elif op.kind == _GateOp.MAX:
                v = np.maximum.reduce(children)
            elif op.kind == _GateOp.KTH:
                if op.k == 2 and len(children) == 4:
                    # Second smallest of four via pairwise min/max
                    # (e.g. the paper's 2-of-4 bolt vote): the second
                    # smallest is the smaller of the two pair maxima or
                    # the larger of the two pair minima — six
                    # elementwise ops, no stack/partition round-trip.
                    a, b, c, d = children
                    v = np.minimum(
                        np.maximum(np.minimum(a, b), np.minimum(c, d)),
                        np.minimum(np.maximum(a, b), np.maximum(c, d)),
                    )
                else:
                    v = np.partition(
                        np.stack(children), op.k - 1, axis=0
                    )[op.k - 1]
            else:  # PAND: non-decreasing order, fires at the last child
                ok = children[0] <= children[1]
                for a, b in zip(children[1:-1], children[2:]):
                    ok &= a <= b
                v = np.where(ok, children[-1], np.inf)
            vals[op.slot] = v
        return vals[self.top_slot]

    def _sync(self, st: _ChunkState) -> None:
        """Bring the cached top times (T) and earliest eligible switch
        candidates (S) of the dirty rows up to date.

        Re-draws and switch-point moves mark their rows dirty;
        everything else is unchanged since the last composition, so the
        gather/scatter subset pass touches tens of rows per wave
        instead of the whole chunk.  ``min(T, S)`` per row is then the
        exact next instant anything can happen to that row between
        epochs — the per-row next-event lower bound that lets
        ``_advance`` skip every row (often the whole chunk) with
        nothing pending before the next calendar tick.
        """
        n_dirty = int(np.count_nonzero(st.dirty))
        if not n_dirty:
            return
        if n_dirty == st.n:
            st.T = self._compose_top(st)
            self._candidates(st, None)
            st.dirty[:] = False
        else:
            rows = st.dirty.nonzero()[0]
            st.T[rows] = self._compose_top(st, rows)
            self._candidates(st, rows)
            st.dirty[rows] = False

    def _candidates(
        self, st: _ChunkState, rows: Optional[np.ndarray]
    ) -> None:
        """Earliest eligible RDEP switch candidate per row, into st.S.

        A candidate for a target is a trigger failure strictly after
        the target chain's switch point; st.S holds the earliest over
        all (target, trigger) pairs, +inf when none is pending.
        """
        if not self.rdep_deps:
            return
        m = st.n if rows is None else len(rows)
        S = np.full(m, np.inf)
        for tgt, deps in self.rdep_deps.items():
            t0 = st.path_t0[tgt] if rows is None else st.path_t0[tgt][rows]
            for trig, _ in deps:
                Ft = st.F[trig] if rows is None else st.F[trig][rows]
                np.minimum(S, np.where(Ft > t0, Ft, np.inf), out=S)
        if rows is None:
            st.S = S
        else:
            st.S[rows] = S

    # -- inter-epoch advancement ----------------------------------------
    def _apply_switches(
        self, st: _ChunkState, hot: np.ndarray, t1: float
    ) -> bool:
        """Apply each hot row's earliest pending RDEP rate switch.

        A switch candidate for a target is a trigger failure strictly
        after the target chain's draw point and no later than
        ``min(T, t1)`` — later triggers are preempted by the system
        failure at T (renewal re-draws everything) or belong to the
        next interval.  Only the earliest candidate per row is applied
        (simultaneously across targets sharing it); the caller then
        recomposes and calls again, which keeps the factor product
        exact when several triggers fail in sequence.  Everything is
        gathered at the ``hot`` row subset — rows without a pending
        event never enter the scan.

        Returns whether any switch was applied; the caller only
        commits failures on switch-free waves.
        """
        if not self.rdep_deps:
            return False
        bound = np.minimum(st.T[hot], t1)
        # S is the row-wise minimum over every (target, trigger)
        # candidate past its draw point, so S > bound everywhere means
        # no candidate can be eligible — skip the per-target scan (the
        # common case: most waves are commit-only).
        if not (st.S[hot] <= bound).any():
            return False
        taus: Dict[int, np.ndarray] = {}
        for tgt, deps in self.rdep_deps.items():
            cand = np.full(len(hot), np.inf)
            t0 = st.path_t0[tgt][hot]
            for trig, _ in deps:
                Ft = st.F[trig][hot]
                eligible = (Ft > t0) & (Ft <= bound)
                cand = np.where(eligible & (Ft < cand), Ft, cand)
            taus[tgt] = cand
        row_min = np.minimum.reduce(list(taus.values()))
        hit = np.isfinite(row_min)
        if not hit.any():
            return False
        for tgt, cand in taus.items():
            apply = hit & (cand == row_min)
            if not apply.any():
                continue
            idx = apply.nonzero()[0]
            rows = hot[idx]
            tau = row_min[idx]
            fac = self._current_factor(st, tgt, rows, tau)
            up = st.F[tgt][rows] > tau
            if up.any():
                up_rows = rows[up]
                phases = self._phase_at(st, tgt, up_rows, tau[up])
                self._redraw(st, tgt, up_rows, tau[up], phases, fac[up])
            # Failed targets get no re-draw (no pending transition to
            # reschedule) but must still advance their switch point, or
            # the same trigger would be re-found forever.  The moved
            # switch point invalidates the cached S column.
            down_rows = rows[~up]
            if len(down_rows):
                st.path_t0[tgt][down_rows] = tau[~up]
                st.factor[tgt][down_rows] = fac[~up]
                st.dirty[down_rows] = True
        return True

    def _commit_failures(
        self, st: _ChunkState, hot: np.ndarray, t1: float
    ) -> bool:
        """Commit system failures at T <= t1 and apply the strategy's
        failure response (absorbing stop or corrective renewal)."""
        T_hot = st.T[hot]
        fail = T_hot <= t1
        if not fail.any():
            return False
        idx = fail.nonzero()[0]
        rows = hot[idx]
        tf = T_hot[idx]
        st.fail_rows.append(rows)
        st.fail_times.append(tf)
        st.costs["failures"][rows] += (
            self.system_failure_cost * self._discount_arr(tf)
        )
        if self.absorbing:
            st.done[rows] = True
            st.downtime[rows] += self.horizon - tf
            st.costs["downtime"][rows] += self._downtime_cost(tf, self.horizon)
            return True
        st.n_corr[rows] += 1
        du = tf + self.repair_time
        over = du > self.horizon
        over_rows = rows[over]
        if len(over_rows):
            # Repair completes past the horizon: the trajectory ends
            # down (the object path books this in _finalize).
            st.done[over_rows] = True
            st.downtime[over_rows] += self.horizon - tf[over]
            st.costs["downtime"][over_rows] += self._downtime_cost(
                tf[over], self.horizon
            )
        in_rows = rows[~over]
        if len(in_rows):
            du_in = du[~over]
            st.downtime[in_rows] += du_in - tf[~over]
            st.costs["downtime"][in_rows] += self._downtime_cost(
                tf[~over], du_in
            )
            st.down_until[in_rows] = du_in
            # Corrective renewal: the whole asset restarts as new.
            self._renew_all(st, in_rows, du_in)
        return True

    def _renew_all(
        self,
        st: _ChunkState,
        rows: np.ndarray,
        t: np.ndarray,
    ) -> None:
        """Renew every event's chain from phase 0 at per-row time ``t``
        — the corrective-renewal inner loop of ``_commit_failures``,
        with the per-event ``_redraw`` dispatch overhead (time
        broadcasting, dirty marking, branchwork) hoisted out of the
        loop.  Pool consumption order matches event-by-event
        ``_redraw`` calls exactly."""
        base = t[:, None]
        m = len(rows)
        for e in range(self.n_events):
            sojourns = st.pools[e].take(m) * self.inv0[e]
            jumps = sojourns.cumsum(axis=1, out=sojourns)
            jumps += base
            st.jumps[e][rows] = jumps
            st.p0[e][rows] = 0
            st.F[e][rows] = jumps[:, self.K[e] - 1]
            for thr in self.plan_thresholds.get(e, ()):
                st.X[(e, thr)][rows] = (
                    -np.inf if thr < 1 else jumps[:, thr - 1]
                )
        for e in self.rdep_deps:
            st.path_t0[e][rows] = t
            st.factor[e][rows] = 1.0
        st.dirty[rows] = True

    def _advance(self, st: _ChunkState, t1: float) -> None:
        """Run all rows forward until no event remains at or before
        ``t1``: alternate earliest-switch application and failure
        commits until the composed system failure times clear ``t1``.

        Per-row compaction: after syncing the dirty caches, the only
        rows that participate in a wave are the *hot* ones — rows whose
        cached top time or earliest switch candidate is at or before
        ``t1``.  On a maintained model only a handful of the chunk's
        rows are hot per interval, so every wave is three whole-column
        compares plus work proportional to the hot subset.

        Switches and failure commits alternate strictly — failures are
        only committed on waves where *no* row applied a switch — so a
        row's composed failure time is never consumed while another
        pending dependency switch could still reshape it.  Every wave
        with hot rows makes progress (a hot row either has an eligible
        switch at or before ``min(T, t1)`` or its composed top time is
        at or before ``t1``), and mutated rows re-enter the next wave
        with their caches re-synced.
        """
        for _ in range(_MAX_WAVE_ITERATIONS):
            self._sync(st)
            hot = (~st.done & ((st.T <= t1) | (st.S <= t1))).nonzero()[0]
            if not len(hot):
                return
            if self._apply_switches(st, hot, t1):
                continue
            if not self._commit_failures(st, hot, t1):
                return
        raise SimulationError(
            "vectorized kernel failed to converge advancing the chunk "
            f"to t={t1!r} (wave iteration cap exceeded)"
        )

    # -- epoch (tick) processing ----------------------------------------
    def _process_epoch(
        self,
        st: _ChunkState,
        t: float,
        repairs: List[_PlanCols],
        passes: Tuple[_FusedInspect, ...],
    ) -> None:
        # System restoration (priority 1) precedes repair/inspection
        # ticks at the same instant, so rows restored exactly at t are
        # active; rows still down skip the visit (the object handlers
        # return early but the tick itself was still scheduled).
        active = ~st.done & (st.down_until <= t)
        if not active.any():
            return
        disc = self._discount(t)
        if repairs:
            act_rows = active.nonzero()[0]
            for plan in repairs:
                self._repair(st, t, plan, active, act_rows, disc)
        for fe in passes:
            self._inspect_fused(st, t, fe, active, disc)
        # End-of-epoch RDEP reconciliation: replacements above may have
        # un-failed trigger components, decelerating their targets.  The
        # object engine reschedules the pending target transition at the
        # very instant the trigger flips; by memorylessness, re-drawing
        # the chain at the same instant t with the settled factor is
        # distributionally identical.
        for tgt in self.rdep_deps:
            fac = self._current_factor(st, tgt, None, t)
            changed = active & (fac != st.factor[tgt])
            if not changed.any():
                continue
            rows = changed.nonzero()[0]
            new_fac = fac[rows]
            up = st.F[tgt][rows] > t
            if up.any():
                up_rows = rows[up]
                phases = self._phase_at(st, tgt, up_rows, t)
                self._redraw(st, tgt, up_rows, t, phases, new_fac[up])
            down_rows = rows[~up]
            if len(down_rows):
                st.factor[tgt][down_rows] = new_fac[~up]
                st.path_t0[tgt][down_rows] = t
                # path_t0 moved, so the cached earliest-eligible-switch
                # candidate for these rows is stale (up rows were
                # already marked dirty by the re-draw above).
                st.dirty[down_rows] = True

    def _inspect_fused(
        self,
        st: _ChunkState,
        t: float,
        fe: _FusedInspect,
        active: np.ndarray,
        disc: float,
    ) -> None:
        """One inspection pass (see :class:`_FusedInspect`).

        The per-target failed scans collapse into one stacked 2-D
        comparison over the inspected events' F rows, the condition
        checks into one over their crossing-time rows — ~4 matrix ops
        per pass instead of ~5 column ops per target.  Per-target
        gathers, cost scatters and re-draws then run only for targets
        whose row-wise ``any`` fired, in round and target order (so the
        RNG pools are consumed in that order)."""
        # Whole-column masked adds: x + 0.0 == x for the inactive rows
        # (costs are finite and non-negative), and the active rows see
        # the same addition as a fancy-indexed scatter.
        st.n_insp += active if fe.n_visits == 1 else fe.n_visits * active
        if fe.visit_cost != 0.0:
            st.costs["inspections"] += (fe.visit_cost * disc) * active
        failed_mat = st.F[fe.tidx] <= t
        failed_mat &= active
        any_failed = failed_mat.any(axis=1)
        if len(fe.xsel):
            crossed_mat = st.Xmat[fe.xsel] <= t
            crossed_mat &= active
            crossed_mat &= ~failed_mat[fe.cond_sel]
            any_crossed = crossed_mat.any(axis=1)
        for j, (
            e,
            action_cost,
            corrective_cost,
            dp,
            detect,
            renew,
            restore_phases,
            cond_pos,
        ) in enumerate(fe.targets):
            frows = None
            if detect and any_failed[j]:
                frows = failed_mat[j].nonzero()[0]
                st.costs["corrective"][frows] += corrective_cost * disc
                st.n_corr[frows] += 1
            rows = None
            if cond_pos is not None and any_crossed[cond_pos]:
                rows = crossed_mat[cond_pos].nonzero()[0]
                if dp < 1.0:
                    # A visit misses when random() >= dp; uniforms are
                    # drawn for the crossed rows only.
                    rows = rows[st.upool.take(len(rows)) < dp]
                if len(rows):
                    st.costs["preventive"][rows] += action_cost * disc
                    st.n_prev[rows] += 1
                else:
                    rows = None
            if renew:
                # Corrective replacement and a restore-to-new action
                # both re-draw from phase 0 at t: one re-draw over the
                # union.
                if frows is None:
                    merged = rows
                elif rows is None:
                    merged = frows
                else:
                    merged = np.concatenate((frows, rows))
                if merged is not None:
                    fac = self._current_factor_or_none(st, e, merged, t)
                    self._redraw(st, e, merged, t, None, fac)
            else:
                if frows is not None:
                    fac = self._current_factor_or_none(st, e, frows, t)
                    self._redraw(st, e, frows, t, None, fac)
                if rows is not None:
                    self._apply_action(st, e, rows, t, None, restore_phases)

    def _repair(
        self,
        st: _ChunkState,
        t: float,
        plan: _PlanCols,
        active: np.ndarray,
        act_rows: np.ndarray,
        disc: float,
    ) -> None:
        # Time-based repairs apply the action to every target regardless
        # of condition — including failed ones, which come back at
        # phase K - restore_phases (restore_phases >= 1, so always < K).
        for e, _, action_cost, _ in plan.targets:
            st.costs["preventive"] += (action_cost * disc) * active
            st.n_prev += active
            self._apply_action(st, e, act_rows, t, None, plan.restore_phases)

    def _apply_action(
        self,
        st: _ChunkState,
        e: int,
        rows: np.ndarray,
        t: float,
        phases: Optional[np.ndarray],
        restore_phases: Optional[int],
    ) -> None:
        """Mirror of _perform_action: restore the phase, re-draw the
        chain from ``t``.  The object engine re-draws the pending jump
        even when the phase is numerically unchanged (_set_phase always
        cancels and reschedules), so an unconditional re-draw matches.
        ``phases`` may be None — a full renewal (restore_phases None)
        never needs them, so callers skip the phase count entirely."""
        if restore_phases is None:
            new_phases = None
        else:
            if phases is None:
                phases = self._phase_at(st, e, rows, t)
            new_phases = np.maximum(phases - restore_phases, 0)
        fac = self._current_factor_or_none(st, e, rows, t)
        self._redraw(st, e, rows, t, new_phases, fac)

    def _current_factor_or_none(
        self, st: _ChunkState, e: int, rows: np.ndarray, t
    ) -> Optional[np.ndarray]:
        """Acceleration factor for RDEP targets, else ``None`` — the
        ``_redraw`` fast path skips the division by an all-ones column."""
        if e in self.rdep_deps:
            return self._current_factor(st, e, rows, t)
        return None

    # -- chunk driver ---------------------------------------------------
    def simulate_chunk(
        self,
        n: int,
        rng: np.random.Generator,
        progress: Optional[Callable[[float], None]] = None,
    ) -> TrajectoryBatch:
        """Simulate ``n`` trajectories in lockstep; returns their batch.

        ``progress``, when given, is called with the fraction of the
        calendar processed after every epoch (and once with 1.0 at the
        end).  It must not touch the RNG; the kernel's results are
        bit-identical with or without a callback.
        """
        st = _ChunkState(
            n, self.n_events, tuple(self.rdep_deps), self.threshold_keys
        )
        st.pools = [_ExpPool(rng, self.K[e], n) for e in range(self.n_events)]
        st.upool = _UniformPool(rng)
        all_rows = np.arange(n)
        for e in range(self.n_events):
            st.jumps[e] = np.empty((n, self.K[e]))
            st.p0[e] = np.zeros(n, dtype=np.int64)
            self._redraw(st, e, all_rows, 0.0, None, None)
        n_steps = len(self.epochs) + 1
        for i, (t, repairs, passes) in enumerate(self.epochs):
            self._advance(st, t)
            self._process_epoch(st, t, repairs, passes)
            if progress is not None:
                progress((i + 1) / n_steps)
        self._advance(st, self.horizon)
        if progress is not None:
            progress(1.0)
        return self._build_batch(st)

    def _build_batch(self, st: _ChunkState) -> TrajectoryBatch:
        n = st.n
        if st.fail_rows:
            rows = np.concatenate(st.fail_rows)
            times = np.concatenate(st.fail_times)
            # Stable sort: appends are chronological per row, so the
            # per-trajectory failure-time slices come out ordered.
            order = np.argsort(rows, kind="stable")
            times = times[order]
            counts = np.bincount(rows, minlength=n)
        else:
            times = np.empty(0)
            counts = np.zeros(n, dtype=np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return TrajectoryBatch(
            horizon=self.horizon,
            failure_times=times,
            failure_offsets=offsets,
            downtime=st.downtime,
            costs=st.costs,
            n_inspections=st.n_insp,
            n_preventive_actions=st.n_prev,
            n_corrective_replacements=st.n_corr,
        )


# ----------------------------------------------------------------------
# Deprecated per-trajectory-seed drivers
# ----------------------------------------------------------------------
def _warn_seed_driver(name: str) -> None:
    warnings.warn(
        f"repro.simulation.{name} is deprecated: it seeds each lockstep "
        "chunk from its first per-trajectory seed, so results depend on "
        "how the seeds are chunked; use MonteCarlo(kernel='vectorized') "
        "or simulate_batch_columns with (size, seed) chunk items",
        DeprecationWarning,
        stacklevel=3,
    )


def _iter_seed_chunks(
    simulator: FMTSimulator,
    seeds: Sequence[np.random.SeedSequence],
    chunk_size: Optional[int],
) -> Iterator[TrajectoryBatch]:
    if chunk_size is None:
        chunk_size = simulator.config.chunk_trajectories
    instr = simulator.config.instrumentation
    if instr is None:
        instr = _obs.current()
    reason = vectorized_fallback_reason(simulator)
    kernel = None if reason is not None else VectorizedKernel(simulator)
    for start in range(0, len(seeds), chunk_size):
        chunk = seeds[start : start + chunk_size]
        if kernel is None:
            accumulator = TrajectoryAccumulator(horizon=simulator.config.horizon)
            for seed in chunk:
                accumulator.add(simulator.simulate(np.random.default_rng(seed)))
            batch = accumulator.finalize()
        else:
            rng = np.random.default_rng(chunk[0].spawn(1)[0])
            batch = kernel.simulate_chunk(len(chunk), rng)
            if instr is not None:
                instr.count(_obs.SIM_TRAJECTORIES, len(chunk))
        yield batch


def iter_vectorized_batches(
    simulator: FMTSimulator,
    seeds: Sequence[np.random.SeedSequence],
    chunk_size: Optional[int] = None,
) -> Iterator[TrajectoryBatch]:
    """Yield one :class:`TrajectoryBatch` per lockstep chunk of seeds.

    .. deprecated::
        Seeds each chunk from a child of its first per-trajectory seed,
        so results depend on the chunking.  Use
        ``MonteCarlo(kernel="vectorized")``, or
        :func:`repro.simulation.parallel.simulate_batch_columns` with
        ``(size, seed)`` chunk items (see :func:`chunk_plan`).

    Non-vectorizable models run each seed through the object engine.
    ``chunk_size`` defaults to the simulator's ``chunk_trajectories``.
    """
    _warn_seed_driver("iter_vectorized_batches")
    return _iter_seed_chunks(simulator, seeds, chunk_size)


def simulate_batch_columns_vectorized(
    simulator: FMTSimulator,
    seeds: Sequence[np.random.SeedSequence],
    chunk_size: Optional[int] = None,
) -> TrajectoryBatch:
    """Columnar results of :func:`iter_vectorized_batches`, merged.

    .. deprecated::
        See :func:`iter_vectorized_batches`.
    """
    _warn_seed_driver("simulate_batch_columns_vectorized")
    accumulator = TrajectoryAccumulator(horizon=simulator.config.horizon)
    for batch in _iter_seed_chunks(simulator, seeds, chunk_size):
        accumulator.add_batch(batch)
    return accumulator.finalize()
