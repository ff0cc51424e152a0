"""Both engines against exact answers, serial and pooled.

The differential harness checks the lockstep kernel against the object
engine only, so a bug in code both share (strategy application, cost
accounting) would pass it.  Here each engine meets two oracles that
involve no sampling at all: the CTMC transient unreliability of a
Markovian tree (Erlang phases plus an event-triggered RDEP — constructs
on which the compositional semantics of Monti et al., arXiv:1910.10507,
and the CTMC agree), and the matrix-exponential expected failure count
of one periodically inspected component with renewal (on the object
engine, a check of on-demand inspection visits against an answer that
involves no sampling).  Each exact value must lie inside the engine's
99% confidence interval, and the pooled run must return the serial
bytes.
"""

from __future__ import annotations

import pytest

from repro.analysis.periodic import expected_failures
from repro.core.builder import FMTBuilder
from repro.core.events import BasicEvent
from repro.ctmc.compiler import compile_fmt
from repro.maintenance.actions import clean
from repro.maintenance.modules import InspectionModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.simulation.montecarlo import MonteCarlo
from repro.simulation.parallel import SharedSimulationPool
from repro.simulation.vectorized import vectorized_fallback_reason

N_RUNS = 40_000
CONFIDENCE = 0.99


@pytest.fixture(scope="module")
def pool():
    with SharedSimulationPool(2) as shared:
        yield shared


def _serial_and_pooled(pool, tree, strategy, horizon, seed, kernel="vectorized"):
    def driver():
        return MonteCarlo(tree, strategy, horizon=horizon, seed=seed, kernel=kernel)

    if kernel == "vectorized":
        assert vectorized_fallback_reason(driver().simulator) is None
    serial = driver().run(N_RUNS, confidence=CONFIDENCE)
    pooled = driver().run_parallel(N_RUNS, confidence=CONFIDENCE, pool=pool)
    assert pooled.summary == serial.summary
    return serial.summary


def _markovian_rdep_tree():
    builder = FMTBuilder("markov-rdep")
    builder.degraded_event("a", phases=2, mean=8.0, threshold=1)
    builder.basic_event("trig", rate=0.3)
    builder.degraded_event("b", phases=3, mean=6.0, threshold=2)
    builder.rdep("d", trigger="trig", targets=["b"], factor=3.0)
    builder.and_gate("guard", ["trig", "b"])
    builder.or_gate("top", ["a", "guard"])
    return builder.build("top")


def _check_markovian_rdep_tree(pool, kernel):
    tree = _markovian_rdep_tree()
    strategy = MaintenanceStrategy.absorbing()
    horizon = 5.0

    exact = compile_fmt(tree, strategy).unreliability(horizon)
    summary = _serial_and_pooled(
        pool, tree, strategy, horizon, seed=2016, kernel=kernel
    )
    assert 0.05 < exact < 0.95
    assert summary.unreliability.contains(exact)


def _check_periodic_inspection(pool, kernel):
    event = BasicEvent.erlang("w", phases=3, mean=2.0, threshold=2)
    module = InspectionModule("i", period=0.5, targets=["w"], action=clean())
    builder = FMTBuilder("periodic")
    builder.add_event(event)
    builder.or_gate("top", ["w"])
    strategy = MaintenanceStrategy(
        "s",
        inspections=(module,),
        on_system_failure="replace",
        system_repair_time=0.0,
    )
    horizon = 10.0

    exact = expected_failures(event, module, horizon)
    summary = _serial_and_pooled(
        pool, builder.build("top"), strategy, horizon, seed=1910, kernel=kernel
    )
    assert exact > 0.5
    assert summary.expected_failures.contains(exact)


def test_markovian_rdep_tree_matches_ctmc(pool):
    _check_markovian_rdep_tree(pool, "vectorized")


def test_markovian_rdep_tree_matches_ctmc_on_object_engine(pool):
    _check_markovian_rdep_tree(pool, "object")


def test_periodic_inspection_with_renewal_matches_analytics(pool):
    _check_periodic_inspection(pool, "vectorized")


def test_periodic_inspection_with_renewal_matches_analytics_on_object_engine(pool):
    _check_periodic_inspection(pool, "object")
