"""Transient and steady-state solution of CTMCs.

Transient distributions use **uniformization** (Jensen's method): with
``Lambda`` at least the maximal exit rate and ``P = I + Q/Lambda``,

.. math:: \\pi(t) = \\sum_k e^{-\\Lambda t} \\frac{(\\Lambda t)^k}{k!}\\; \\pi(0) P^k

truncated when the remaining Poisson mass drops below the tolerance.
This is numerically robust (all terms non-negative) and fast for the
moderately stiff chains produced by the FMT compiler.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.ctmc.chain import CTMC
from repro.errors import AnalysisError

__all__ = ["transient_distribution", "transient_grid", "steady_state"]


def transient_distribution(
    ctmc: CTMC,
    t: float,
    initial: Optional[np.ndarray] = None,
    tol: float = 1e-12,
) -> np.ndarray:
    """State distribution at time ``t`` by uniformization."""
    if t < 0.0:
        raise AnalysisError(f"time must be non-negative, got {t}")
    pi0 = ctmc.initial if initial is None else np.asarray(initial, dtype=float)
    if t == 0.0:
        return pi0.copy()
    from scipy import sparse

    rate = ctmc.uniformization_rate()
    # P = I + Q / rate, kept sparse; vector-matrix products only.
    P = sparse.identity(ctmc.n_states, format="csr") + ctmc.generator / rate

    x = rate * t
    # Iterate Poisson weights in place to avoid under/overflow.
    log_weight = -x  # log of Poisson(0; x)
    result = np.zeros_like(pi0)
    term = pi0.copy()
    accumulated = 0.0
    k = 0
    max_terms = int(x + 10.0 * math.sqrt(x) + 50)
    while accumulated < 1.0 - tol and k <= max_terms:
        weight = math.exp(log_weight)
        result += weight * term
        accumulated += weight
        k += 1
        log_weight += math.log(x) - math.log(k)
        term = term @ P
    # Renormalize the truncation remainder onto the computed mixture.
    if accumulated > 0.0:
        result /= accumulated
    return result


def transient_grid(
    ctmc: CTMC,
    times: Sequence[float],
    initial: Optional[np.ndarray] = None,
    tol: float = 1e-12,
) -> np.ndarray:
    """Distributions at several times; rows align with ``times``.

    For a uniformly spaced, sorted grid the solution is advanced step
    by step (each step one uniformization of length ``dt``), reusing
    the previous point — much cheaper than independent solves.
    """
    grid = np.asarray(list(times), dtype=float)
    if len(grid) == 0:
        return np.zeros((0, ctmc.n_states))
    if np.any(grid < 0.0):
        raise AnalysisError("times must be non-negative")
    if np.any(np.diff(grid) < 0.0):
        raise AnalysisError("times must be sorted non-decreasingly")
    pi = (ctmc.initial if initial is None else np.asarray(initial, float)).copy()
    out = np.zeros((len(grid), ctmc.n_states))
    current_time = 0.0
    for row, t in enumerate(grid):
        dt = t - current_time
        if dt > 0.0:
            pi = transient_distribution(ctmc, dt, initial=pi, tol=tol)
            current_time = t
        out[row] = pi
    return out


def steady_state(ctmc: CTMC) -> np.ndarray:
    """Stationary distribution ``pi Q = 0`` with ``sum(pi) = 1``.

    Requires an irreducible chain (one recurrent class); chains with
    absorbing states concentrate all mass there only if reachable from
    everywhere — for general chains use transient analysis at a large
    horizon instead.

    Raises
    ------
    AnalysisError
        If the linear system is singular beyond the normalisation
        constraint (multiple recurrent classes).
    """
    n = ctmc.n_states
    if n == 1:
        return np.ones(1)
    # Solve Q^T pi^T = 0 with the last equation replaced by sum(pi)=1.
    a = ctmc.generator.transpose().tolil(copy=True)
    a[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    from scipy.sparse.linalg import spsolve

    try:
        pi = spsolve(a.tocsr(), b)
    except Exception as exc:  # scipy raises various singularity errors
        raise AnalysisError(f"steady-state solve failed: {exc}") from exc
    if not np.all(np.isfinite(pi)):
        raise AnalysisError("steady-state solve produced non-finite entries")
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0.0:
        raise AnalysisError("steady-state solve produced a zero vector")
    return pi / total
