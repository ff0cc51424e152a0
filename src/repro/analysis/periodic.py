"""Exact analysis of a single component under *periodic* inspection.

The CTMC compiler (:mod:`repro.ctmc.compiler`) validates the simulator
on exponentially-timed maintenance; this module closes the remaining
gap and validates the **deterministic** (periodic) inspection semantics
exactly, for the single-component case:

One extended basic event with phases ``0..N-1`` (failure on leaving
phase ``N-1``) is inspected at times ``offset, offset+T, offset+2T, …``.
Between inspections the phase distribution evolves by the matrix
exponential of the degradation generator; at an inspection, the
detection map fires: mass in phases at or past the threshold moves to
the action's restored phase with the module's detection probability.

Two failure responses, matching the simulator's strategies:

* **absorbing** (``renew_on_failure=False``) — the failed state is
  absorbing; :meth:`PeriodicInspectionModel.unreliability` is exact.
* **renewal** (``renew_on_failure=True``) — failure transitions are
  redirected to phase 0 (instant corrective renewal) and the expected
  number of failures is the time integral of the failure flux, computed
  *exactly* per inter-inspection interval with Van Loan's augmented
  matrix-exponential construction.

No sampling is involved anywhere, so these values are ground truth for
the simulator's periodic-timing code path (``tests/test_periodic.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.events import BasicEvent
from repro.errors import AnalysisError, UnsupportedModelError
from repro.maintenance.modules import InspectionModule

__all__ = ["PeriodicInspectionModel", "unreliability", "expected_failures"]


class PeriodicInspectionModel:
    """Exact phase-distribution evolution of one inspected component.

    Parameters
    ----------
    event:
        The extended basic event (its failure is the system failure).
    module:
        A periodic inspection module targeting exactly this event; the
        planning delay must be zero (a pending delayed action would
        change the dynamics between epochs).
    renew_on_failure:
        See the module docstring.
    """

    def __init__(
        self,
        event: BasicEvent,
        module: InspectionModule,
        renew_on_failure: bool = False,
    ):
        if module.delay != 0.0:
            raise UnsupportedModelError(
                "periodic-inspection analysis requires delay=0"
            )
        if module.timing != "periodic":
            raise UnsupportedModelError(
                "module must have timing='periodic' (use the CTMC "
                "compiler for exponential timing)"
            )
        if tuple(module.targets) != (event.name,):
            raise UnsupportedModelError(
                "module must target exactly the analysed event"
            )
        if event.threshold is None:
            raise UnsupportedModelError(f"{event.name} has no threshold")
        self.event = event
        self.module = module
        self.renew_on_failure = bool(renew_on_failure)
        n = event.phases
        if self.renew_on_failure:
            # States 0..n-1; the last phase's exit is redirected to 0.
            generator = np.zeros((n, n))
            for i, rate in enumerate(event.phase_rates):
                generator[i, i] = -rate
                if i + 1 < n:
                    generator[i, i + 1] = rate
                else:
                    generator[i, 0] += rate
            flux = np.zeros((n, 1))
            flux[n - 1, 0] = event.phase_rates[n - 1]
            # Van Loan block: expm([[A, c],[0,0]] * t) has expm(A t) in
            # the top-left and  integral_0^t expm(A s) c ds  top-right.
            self._augmented = np.zeros((n + 1, n + 1))
            self._augmented[:n, :n] = generator
            self._augmented[:n, n:] = flux
            self._dimension = n
        else:
            # States 0..n with the failed state n absorbing.
            generator = np.zeros((n + 1, n + 1))
            for i, rate in enumerate(event.phase_rates):
                generator[i, i] = -rate
                generator[i, i + 1] = rate
            self._augmented = generator  # no flux block needed
            self._dimension = n + 1
        self._step_cache: Dict[float, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------
    def _blocks(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """(transition matrix, flux-integral column) for a step ``dt``."""
        key = round(dt, 12)
        hit = self._step_cache.get(key)
        if hit is None:
            from scipy.linalg import expm

            hit = expm(self._augmented * dt)
            self._step_cache[key] = hit
        n = self._dimension
        if self.renew_on_failure:
            return hit[:n, :n], hit[:n, n]
        return hit, np.zeros(n)

    def _inspect(self, v: np.ndarray) -> np.ndarray:
        """Apply the detection map to a phase distribution."""
        event = self.event
        module = self.module
        out = v.copy()
        p = module.detection_probability
        restored = module.action.resulting_phase
        for phase in range(event.threshold, event.phases):
            mass = out[phase]
            if mass <= 0.0:
                continue
            detected = p * mass
            out[phase] -= detected
            out[restored(phase)] += detected
        if (
            not self.renew_on_failure
            and module.detect_failures
        ):
            # Absorbing mode: the failed state is the measured event;
            # detection of a failed component is irrelevant to the
            # first-failure distribution, so nothing moves.
            pass
        return out

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------
    def _evolve(self, t: float) -> Tuple[np.ndarray, float]:
        """Phase distribution at ``t`` and accumulated expected failures."""
        if t < 0.0:
            raise AnalysisError(f"time must be non-negative, got {t}")
        v = np.zeros(self._dimension)
        v[0] = 1.0
        failures = 0.0
        now = 0.0
        next_inspection = self.module.offset
        while next_inspection <= t + 1e-15:
            dt = next_inspection - now
            if dt > 1e-15:
                transition, flux_integral = self._blocks(dt)
                failures += float(v @ flux_integral)
                v = v @ transition
            v = self._inspect(v)
            now = next_inspection
            next_inspection += self.module.period
        if t - now > 1e-15:
            transition, flux_integral = self._blocks(t - now)
            failures += float(v @ flux_integral)
            v = v @ transition
        return v, failures

    def unreliability(self, t: float) -> float:
        """P(component has failed by ``t``) in absorbing mode."""
        if self.renew_on_failure:
            raise AnalysisError(
                "unreliability is defined for renew_on_failure=False"
            )
        v, _ = self._evolve(t)
        return min(1.0, max(0.0, float(v[self.event.phases])))

    def expected_failures(self, t: float) -> float:
        """E[# failures in [0, t]] in renewal mode — exact."""
        if not self.renew_on_failure:
            raise AnalysisError(
                "expected_failures requires renew_on_failure=True"
            )
        _, failures = self._evolve(t)
        return failures

    def phase_distribution(self, t: float) -> np.ndarray:
        """Phase distribution at ``t`` (diagnostics)."""
        v, _ = self._evolve(t)
        return v


def unreliability(
    event: BasicEvent, module: InspectionModule, t: float
) -> float:
    """Exact P(failure by ``t``) of an inspected component (absorbing)."""
    return PeriodicInspectionModel(
        event, module, renew_on_failure=False
    ).unreliability(t)


def expected_failures(
    event: BasicEvent, module: InspectionModule, t: float
) -> float:
    """Exact E[failures in [0, t]] with instant corrective renewal."""
    return PeriodicInspectionModel(
        event, module, renew_on_failure=True
    ).expected_failures(t)
