"""Importance-splitting drivers: fixed effort and RESTART.

Both algorithms estimate the probability that the system fails within
the horizon by decomposing the rare path to failure into a sequence of
*levels* — up-crossings of an importance function — and multiplying
(or weight-accounting) the much larger conditional probabilities of
climbing one level at a time.  They drive an
:class:`~repro.simulation.executor.FMTSimulator` stepwise and clone
trajectories with its :meth:`snapshot`/:meth:`restore` capability;
restored clones are decorrelated by redrawing the (memoryless)
pending degradation jumps from a fresh RNG stream.

* :class:`FixedEffortSplitting` runs a fixed number of trajectory
  segments per level; the estimate is the product of the per-level
  success fractions.  Effort per level is deterministic, which makes
  run time predictable.
* :class:`RestartSplitting` follows the classic RESTART scheme: each
  up-crossing splits the trajectory into ``splits`` copies carrying
  ``1/splits`` of the weight; copies that fall back below their
  creation level are pruned.  Each root trajectory yields one i.i.d.
  weight observation, so a plain t-interval over roots applies.

Randomness bookkeeping: every trajectory segment draws from its own
child stream of the :class:`numpy.random.SeedSequence` given to the
driver, spawned in a deterministic order — results are a pure function
of the seed, exactly like crude Monte Carlo.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError, ValidationError
from repro.observability import instrumentation as _obs
from repro.simulation.executor import (
    FMTSimulator,
    SimulatorSnapshot,
    instrumentation_of,
)

__all__ = ["FixedEffortSplitting", "RestartSplitting", "SplittingRun", "RestartRoot"]

ImportanceFn = Callable[[Mapping[str, int]], float]


@dataclass(frozen=True)
class SplittingRun:
    """Outcome of one complete fixed-effort replication."""

    #: Product of the per-stage success fractions — an estimate of the
    #: unreliability (0.0 when any stage died out).
    estimate: float
    #: Success fraction per stage (stage k climbs from level k).
    stage_probabilities: Tuple[float, ...]
    #: Trajectory segments simulated per stage.
    stage_trials: Tuple[int, ...]
    #: Total trajectory segments simulated (cost proxy).
    n_segments: int


@dataclass(frozen=True)
class RestartRoot:
    """Outcome of one RESTART root trajectory (one i.i.d. observation)."""

    #: Total weight that reached the rare event (unbiased for the
    #: unreliability; 0.0 for most roots).
    weight: float
    #: Trajectory segments simulated for this root, clones included.
    n_segments: int


def _check_thresholds(thresholds: Sequence[float]) -> Tuple[float, ...]:
    ordered = tuple(float(t) for t in thresholds)
    if not ordered:
        raise ValidationError("at least one importance threshold is required")
    if any(not 0.0 < t < 1.0 for t in ordered):
        raise ValidationError(
            f"thresholds must lie strictly inside (0, 1): {ordered}"
        )
    if any(b <= a for a, b in zip(ordered, ordered[1:])):
        raise ValidationError(f"thresholds must be strictly increasing: {ordered}")
    return ordered


class _SplittingBase:
    """Shared plumbing of the two drivers."""

    def __init__(
        self,
        simulator: FMTSimulator,
        importance: ImportanceFn,
        thresholds: Sequence[float],
        max_segments: int = 1_000_000,
    ):
        if max_segments < 1:
            raise ValidationError(f"max_segments must be >= 1, got {max_segments}")
        self.simulator = simulator
        self.importance = importance
        self.thresholds = _check_thresholds(thresholds)
        self.max_segments = max_segments
        self._seed_sequence: Optional[np.random.SeedSequence] = None
        self._instr = None
        self._segments = 0

    @property
    def n_levels(self) -> int:
        """Number of intermediate levels (= number of thresholds)."""
        return len(self.thresholds)

    def _start(self, seed_sequence: np.random.SeedSequence) -> None:
        self._seed_sequence = seed_sequence
        self._instr = instrumentation_of(self.simulator)
        self._segments = 0

    def _next_rng(self) -> np.random.Generator:
        assert self._seed_sequence is not None
        return np.random.default_rng(self._seed_sequence.spawn(1)[0])

    def _count(self, name: str, amount: int = 1) -> None:
        if self._instr is not None:
            self._instr.count(name, amount)

    def _new_segment(self) -> None:
        self._segments += 1
        self._count(_obs.RARE_SEGMENTS)
        if self._segments > self.max_segments:
            raise EstimationError(
                f"splitting exceeded max_segments={self.max_segments}; "
                "the level thresholds are probably too dense for this "
                "model (see docs/rare_events.md on level selection)"
            )

    def _level(self, value: float) -> int:
        """Number of thresholds at or below ``value`` (current level)."""
        return bisect_right(self.thresholds, value)


class FixedEffortSplitting(_SplittingBase):
    """Fixed-effort splitting: ``effort`` trajectory segments per level.

    Stage ``k`` starts ``effort`` segments from entry states recorded
    at level ``k`` (fresh starts for ``k = 0``) and runs each until it
    either crosses threshold ``k+1`` (recording the entry snapshot for
    the next stage) or terminates — end of horizon, or an absorbing
    system failure.  The final stage's target is the system failure
    itself.  The estimate is the product of the per-stage success
    fractions.
    """

    def __init__(
        self,
        simulator: FMTSimulator,
        importance: ImportanceFn,
        thresholds: Sequence[float],
        effort: int = 100,
        max_segments: int = 1_000_000,
    ):
        super().__init__(simulator, importance, thresholds, max_segments)
        if effort < 2:
            raise ValidationError(f"effort must be >= 2, got {effort}")
        self.effort = effort

    def run(self, seed_sequence: np.random.SeedSequence) -> SplittingRun:
        """One complete fixed-effort replication."""
        self._start(seed_sequence)
        sim = self.simulator
        pool: List[Optional[SimulatorSnapshot]] = [None]  # None = fresh start
        probabilities: List[float] = []
        trials: List[int] = []
        n_stages = self.n_levels + 1
        for stage in range(n_stages):
            # Target: cross threshold ``stage`` (0-based into the
            # thresholds tuple); for the last stage, reach the failure.
            target = (
                self.thresholds[stage] if stage < self.n_levels else None
            )
            next_pool: List[Optional[SimulatorSnapshot]] = []
            successes = 0
            for _ in range(self.effort):
                rng = self._next_rng()
                self._new_segment()
                if stage == 0:
                    sim.begin(rng)
                else:
                    entry = pool[int(rng.integers(len(pool)))]
                    assert entry is not None
                    sim.restore(entry, rng)
                    sim.resample_transitions()
                    self._count(_obs.RARE_CLONES)
                reached = self._run_segment(sim, target)
                if reached:
                    successes += 1
                    self._count(_obs.RARE_LEVEL_UP)
                    if target is not None:
                        next_pool.append(sim.snapshot())
            probabilities.append(successes / self.effort)
            trials.append(self.effort)
            if successes == 0:
                break  # the chain died out: estimate is 0 for this run
            pool = next_pool if target is not None else pool
        estimate = 1.0
        for p in probabilities:
            estimate *= p
        if len(probabilities) < n_stages:
            estimate = 0.0
        return SplittingRun(
            estimate=estimate,
            stage_probabilities=tuple(probabilities),
            stage_trials=tuple(trials),
            n_segments=self._segments,
        )

    def _run_segment(
        self, sim: FMTSimulator, target: Optional[float]
    ) -> bool:
        """Advance until the target is reached or the run terminates."""
        while True:
            if sim.system_failed:
                return True  # failure implies importance 1 >= any target
            if target is not None and self.importance(sim.phases) >= target:
                return True
            if not sim.step():
                return False


class RestartSplitting(_SplittingBase):
    """RESTART splitting with weight accounting.

    Each root trajectory starts at weight 1.  On every up-crossing
    into a new level the trajectory is replaced by ``splits`` copies
    carrying ``weight / splits`` each (one continues in place, the
    rest restart from a snapshot with fresh randomness).  A copy that
    falls back below the level it was created at is pruned.  Weight
    reaching the system failure accumulates into the root's
    observation; the weights of distinct roots are i.i.d. with mean
    equal to the unreliability, which is what makes the scheme
    unbiased and gives it a plain t-interval.
    """

    def __init__(
        self,
        simulator: FMTSimulator,
        importance: ImportanceFn,
        thresholds: Sequence[float],
        splits: int = 4,
        max_segments: int = 1_000_000,
    ):
        super().__init__(simulator, importance, thresholds, max_segments)
        if splits < 2:
            raise ValidationError(f"splits must be >= 2, got {splits}")
        self.splits = splits

    def run_root(self, seed_sequence: np.random.SeedSequence) -> RestartRoot:
        """Run one root trajectory and all clones it spawns."""
        self._start(seed_sequence)
        sim = self.simulator
        # Work list of clones waiting to run: (snapshot, weight,
        # creation_level).  Depth-first keeps the list small.
        backlog: List[Tuple[SimulatorSnapshot, float, int]] = []
        total_weight = 0.0

        self._new_segment()
        sim.begin(self._next_rng())
        total_weight += self._run_trajectory(sim, weight=1.0, creation_level=0,
                                             backlog=backlog)
        while backlog:
            snapshot, weight, creation_level = backlog.pop()
            self._new_segment()
            self._count(_obs.RARE_CLONES)
            sim.restore(snapshot, self._next_rng())
            sim.resample_transitions()
            total_weight += self._run_trajectory(
                sim, weight, creation_level, backlog
            )
        return RestartRoot(weight=total_weight, n_segments=self._segments)

    def _run_trajectory(
        self,
        sim: FMTSimulator,
        weight: float,
        creation_level: int,
        backlog: List[Tuple[SimulatorSnapshot, float, int]],
    ) -> float:
        """Run one clone to completion; returns the weight it scored."""
        level = self._level(self.importance(sim.phases))
        while True:
            if sim.system_failed:
                return weight
            if not sim.step():
                return 0.0
            new_level = self._level(self.importance(sim.phases))
            if new_level < level:
                self._count(_obs.RARE_LEVEL_DOWN)
                if new_level < creation_level:
                    self._count(_obs.RARE_PRUNES)
                    return 0.0
                level = new_level
                continue
            # Split once per level climbed, so a multi-level jump
            # branches ``splits`` ways at each level, like a slow climb.
            while new_level > level:
                level += 1
                self._count(_obs.RARE_LEVEL_UP)
                weight /= self.splits
                snapshot = sim.snapshot()
                for _ in range(self.splits - 1):
                    backlog.append((snapshot, weight, level))
