"""Exact time-dependent unreliability for maintenance-free fault trees.

For a static fault tree whose basic events fail independently, the
system unreliability at time ``t`` is the structure function's
probability under the per-event failure probabilities ``p_i(t)``.  This
module evaluates it exactly via the BDD, and also via cut-set based
approximations (inclusion-exclusion, rare-event, min-cut upper bound)
that are standard in the fault-tree literature and are used in the test
suite to cross-validate the BDD and the simulator.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Tuple

from repro.analysis.bdd import build_bdd
from repro.analysis.cutsets import minimal_cut_sets
from repro.core.tree import FaultMaintenanceTree
from repro.errors import AnalysisError, UnsupportedModelError

__all__ = [
    "basic_event_probabilities",
    "unreliability",
    "unreliability_bounds",
    "mean_time_to_failure",
]

_METHODS = ("bdd", "inclusion-exclusion", "rare-event")


def _check_static(tree: FaultMaintenanceTree, ignore_maintenance: bool,
                  ignore_dependencies: bool) -> None:
    if tree.dependencies and not ignore_dependencies:
        raise UnsupportedModelError(
            "tree has rate dependencies (RDEP); basic events are not "
            "independent, so static quantification is not exact. Pass "
            "ignore_dependencies=True to quantify the structure anyway, "
            "or use the simulator."
        )
    if (tree.inspections or tree.repairs) and not ignore_maintenance:
        raise UnsupportedModelError(
            "tree has maintenance modules; static unreliability ignores "
            "them. Pass ignore_maintenance=True to compute the "
            "unmaintained unreliability, or use the simulator."
        )


def basic_event_probabilities(
    tree: FaultMaintenanceTree, t: float
) -> Dict[str, float]:
    """Failure probability of every basic event at time ``t`` from new."""
    if t < 0.0:
        raise AnalysisError(f"time must be non-negative, got {t}")
    return {
        name: event.lifetime_cdf(t) for name, event in tree.basic_events.items()
    }


def unreliability(
    tree: FaultMaintenanceTree,
    t: float,
    method: str = "bdd",
    ignore_maintenance: bool = False,
    ignore_dependencies: bool = False,
    treat_pand_as_and: bool = False,
) -> float:
    """System unreliability P(top event by time ``t``), maintenance-free.

    Parameters
    ----------
    tree:
        The fault tree; must be free of RDEP and maintenance (or the
        corresponding ``ignore_*`` flag must be set).
    t:
        Mission time in years.
    method:
        ``"bdd"`` (exact), ``"inclusion-exclusion"`` (exact, exponential
        in the number of cut sets — capped), or ``"rare-event"`` (the
        sum-of-cut-set-probabilities upper bound).
    """
    _check_static(tree, ignore_maintenance, ignore_dependencies)
    probabilities = basic_event_probabilities(tree, t)
    return _quantify(tree, probabilities, method, treat_pand_as_and)


def _quantify(
    tree: FaultMaintenanceTree,
    probabilities: Dict[str, float],
    method: str,
    treat_pand_as_and: bool = False,
) -> float:
    if method == "bdd":
        bdd, root = build_bdd(tree, treat_pand_as_and=treat_pand_as_and)
        return bdd.probability(root, probabilities)
    if method == "inclusion-exclusion":
        cut_sets = minimal_cut_sets(tree, treat_pand_as_and=treat_pand_as_and)
        if len(cut_sets) > 20:
            raise UnsupportedModelError(
                f"inclusion-exclusion over {len(cut_sets)} cut sets needs "
                f"2^{len(cut_sets)} terms; use method='bdd'"
            )
        total = 0.0
        for size in range(1, len(cut_sets) + 1):
            sign = 1.0 if size % 2 == 1 else -1.0
            for combo in combinations(cut_sets, size):
                union = frozenset().union(*combo)
                term = 1.0
                for name in union:
                    term *= probabilities[name]
                total += sign * term
        return min(1.0, max(0.0, total))
    if method == "rare-event":
        cut_sets = minimal_cut_sets(tree, treat_pand_as_and=treat_pand_as_and)
        total = 0.0
        for cut in cut_sets:
            term = 1.0
            for name in cut:
                term *= probabilities[name]
            total += term
        return min(1.0, total)
    raise AnalysisError(f"unknown method {method!r}; expected one of {_METHODS}")


def unreliability_bounds(
    tree: FaultMaintenanceTree,
    t: float,
    ignore_maintenance: bool = False,
    ignore_dependencies: bool = False,
) -> Tuple[float, float]:
    """(lower, upper) bounds on the unreliability from minimal cut sets.

    The lower bound is the probability of the likeliest single cut set;
    the upper bound is the min-cut (Esary–Proschan) bound
    ``1 - prod_C (1 - P(C))``, which dominates the exact value for
    coherent trees with independent events.
    """
    _check_static(tree, ignore_maintenance, ignore_dependencies)
    probabilities = basic_event_probabilities(tree, t)
    cut_sets = minimal_cut_sets(tree)
    best = 0.0
    log_complement = 0.0
    for cut in cut_sets:
        term = 1.0
        for name in cut:
            term *= probabilities[name]
        best = max(best, term)
        if term >= 1.0:
            return 1.0, 1.0
        log_complement += math.log1p(-term)
    upper = -math.expm1(log_complement)
    return best, min(1.0, upper)


def mean_time_to_failure(
    tree: FaultMaintenanceTree,
    ignore_maintenance: bool = False,
    ignore_dependencies: bool = False,
    treat_pand_as_and: bool = False,
) -> float:
    """MTTF of the unmaintained system: the integral of the reliability.

    Computed by numeric quadrature of ``1 - unreliability(t)`` over
    ``[0, inf)`` on the compiled BDD.
    """
    from scipy import integrate

    _check_static(tree, ignore_maintenance, ignore_dependencies)
    bdd, root = build_bdd(tree, treat_pand_as_and=treat_pand_as_and)
    events = tree.basic_events

    def survival(t: float) -> float:
        probabilities = {
            name: event.lifetime_cdf(t) for name, event in events.items()
        }
        return 1.0 - bdd.probability(root, probabilities)

    # Truncate the infinite integral where the survival mass is gone:
    # grow the horizon until the tail contribution is negligible.
    scale = max(event.mean_lifetime() for event in events.values())
    upper = 10.0 * scale
    while survival(upper) > 1e-10 and upper < 1e6 * scale:
        upper *= 2.0
    value, _ = integrate.quad(
        survival, 0.0, upper, points=[scale, 3.0 * scale], limit=200
    )
    return value
