"""Exact regression fixture for the lockstep kernel's inspection rounds.

``test_golden_corners.py`` pins the object engine.  The lockstep kernel
(``kernel="vectorized"``) has its own inspection code, and its hardest
case is a calendar instant where two rounds inspect the same component:
the later round must see what the earlier one did to it.  The
scenarios below run such line-ups on the kernel:

* periods that meet at every epoch (1/1) and at only some (0.25/1,
  0.5/0.75/1.5);
* imperfect detection and ``detect_failures=False``, and a detect-only
  target (threshold equal to the phase count) in two rounds;
* renewing actions (``replace()``, ``clean()``) and partial restores
  (``clean(restore_phases=1)``, ``repair(restore_phases=2)``);
* a rate dependency whose target two rounds share;
* a repair module ticking at the rounds' instants;
* discounted and undiscounted cost models, both failure responses, and
  studies of several chunks;
* the EI-joint with one extra round over targets of all three of its
  rounds, and one EI-joint grid policy whose rounds share nothing.

Each scenario pins a SHA-256 digest over every column of the study's
batch, plus a few integer totals that make a failure readable.

Regenerate (only for a deliberate, documented semantics change) with::

    PYTHONPATH=src python tests/test_golden_kernel_overlap.py
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.builder import FMTBuilder
from repro.eijoint import build_ei_joint_fmt, inspection_policy
from repro.eijoint.parameters import default_cost_model
from repro.maintenance.actions import clean, repair, replace
from repro.maintenance.costs import CostModel
from repro.maintenance.modules import InspectionModule, RepairModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.simulation.batch import COST_FIELDS
from repro.simulation.executor import FMTSimulator, SimulationConfig
from repro.simulation.montecarlo import MonteCarlo
from repro.simulation.vectorized import VectorizedKernel, runs_lockstep

DATA_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_kernel_overlap.json"
)


def _tree():
    builder = FMTBuilder("overlap")
    builder.degraded_event("wear", phases=4, mean=3.0, threshold=2)
    # Threshold equal to the phase count: only a failure is visible.
    builder.degraded_event("crack", phases=3, mean=4.0, threshold=3)
    builder.degraded_event("loose", phases=2, mean=5.0, threshold=1)
    builder.basic_event("shock", mean=12.0, threshold=1)
    builder.and_gate("worn_and_cracked", ["wear", "crack"])
    builder.voting_gate("two_of_three", 2, ["crack", "loose", "shock"])
    builder.or_gate("top", ["worn_and_cracked", "two_of_three"])
    builder.rdep("loose_speeds_wear", "loose", ["wear"], 2.5)
    return builder.build("top")


def _costs(discount_rate):
    return CostModel(
        inspection_visit=0.1,
        module_visit_costs={"second": 0.3, "third": 0.7},
        action_costs={"clean": 0.35, "repair": 1.7, "replace": 9.1},
        system_failure=57.3,
        corrective_factor=1.3,
        downtime_per_year=13.7,
        discount_rate=discount_rate,
    )


def _every_epoch():
    inspections = (
        InspectionModule("first", period=1.0, targets=["wear", "loose"],
                         action=clean(restore_phases=1),
                         detection_probability=0.8),
        InspectionModule("second", period=1.0,
                         targets=["wear", "crack", "shock"], action=replace()),
    )
    strategy = MaintenanceStrategy(
        "every-epoch", inspections=inspections,
        on_system_failure="replace", system_repair_time=0.3,
    )
    return _tree(), strategy, _costs(0.03), 20.0


def _quarter_and_year():
    inspections = (
        InspectionModule("first", period=0.25, targets=["wear", "loose"],
                         action=clean(), detection_probability=0.6),
        InspectionModule("second", period=1.0, targets=["wear", "crack"],
                         action=replace(), detect_failures=False),
    )
    repairs = (
        RepairModule("renew_loose", period=1.0, targets=["loose"],
                     action=repair(restore_phases=1)),
    )
    strategy = MaintenanceStrategy(
        "quarter-and-year", inspections=inspections, repairs=repairs,
        on_system_failure="none",
    )
    return _tree(), strategy, _costs(0.05), 20.0


def _half_and_three_quarters():
    inspections = (
        InspectionModule("first", period=0.5, targets=["loose", "wear"],
                         action=repair(restore_phases=2),
                         detection_probability=0.7),
        InspectionModule("second", period=0.75,
                         targets=["crack", "wear", "loose"], action=clean(),
                         detection_probability=0.9),
        InspectionModule("third", period=1.5, targets=["shock", "crack"],
                         action=replace(), detect_failures=False),
    )
    strategy = MaintenanceStrategy(
        "half-and-three-quarters", inspections=inspections,
        on_system_failure="replace", system_repair_time=0.0,
    )
    return _tree(), strategy, _costs(0.0), 20.0


def _eijoint_spot_check():
    quarterly = inspection_policy(4.0, detection_probability=0.8)
    # First in plan order, so the quarterly rounds visit what its
    # partial restores leave behind.
    spot_check = InspectionModule(
        "spot_check", period=1.0,
        targets=["glue_failure", "bolt_1", "pollution_conductive"],
        action=repair(restore_phases=1), detection_probability=0.9,
    )
    strategy = MaintenanceStrategy(
        "spot-check-plus-quarterly",
        inspections=(spot_check,) + quarterly.inspections,
        on_system_failure="replace",
        system_repair_time=quarterly.system_repair_time,
    )
    return build_ei_joint_fmt(), strategy, default_cost_model(), 50.0


def _eijoint_grid_policy():
    return build_ei_joint_fmt(), inspection_policy(4.0), default_cost_model(), 50.0


#: label -> (() -> (tree, strategy, cost model, horizon), runs, chunk cap)
SCENARIOS = {
    "every_epoch": (_every_epoch, 500, 200),
    "quarter_and_year": (_quarter_and_year, 500, 200),
    "half_and_three_quarters": (_half_and_three_quarters, 500, 200),
    "eijoint_spot_check": (_eijoint_spot_check, 600, 250),
    "eijoint_grid_policy": (_eijoint_grid_policy, 600, 250),
}

#: Scenarios whose rounds share a component at some instant.
OVERLAPPING = (
    "every_epoch",
    "quarter_and_year",
    "half_and_three_quarters",
    "eijoint_spot_check",
)

SEED = 2016


def _batch(label):
    build, n_runs, chunk = SCENARIOS[label]
    tree, strategy, costs, horizon = build()
    return MonteCarlo(
        tree, strategy, horizon=horizon, cost_model=costs, seed=SEED,
        kernel="vectorized", chunk_trajectories=chunk,
    ).run(n_runs).batch


def _collect_scenario(label):
    batch = _batch(label)
    digest = hashlib.sha256(repr(batch.horizon).encode())
    columns = [
        ("failure_times", batch.failure_times),
        ("failure_offsets", batch.failure_offsets),
        ("downtime", batch.downtime),
        *((f"costs.{field}", batch.costs[field]) for field in COST_FIELDS),
        ("n_inspections", batch.n_inspections),
        ("n_preventive_actions", batch.n_preventive_actions),
        ("n_corrective_replacements", batch.n_corrective_replacements),
    ]
    for name, column in columns:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    return {
        "digest": digest.hexdigest(),
        "n_runs": len(batch),
        "failures": int(batch.n_failures.sum()),
        "inspections": int(batch.n_inspections.sum()),
        "preventive": int(batch.n_preventive_actions.sum()),
        "corrective": int(batch.n_corrective_replacements.sum()),
    }


def collect_golden():
    """Simulate every scenario and return the golden image."""
    return {label: _collect_scenario(label) for label in SCENARIOS}


def _simulator(label):
    tree, strategy, costs, horizon = SCENARIOS[label][0]()
    config = SimulationConfig(horizon=horizon, cost_model=costs,
                              kernel="vectorized")
    return FMTSimulator(tree, strategy, config=config)


@pytest.fixture(scope="module")
def golden():
    with open(DATA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_kernel_batch_bit_identical(golden, label):
    assert runs_lockstep(_simulator(label)), f"{label} fell back"
    assert _collect_scenario(label) == golden[label]


def _max_passes(label):
    kernel = VectorizedKernel(_simulator(label))
    return max(len(passes) for _, _, passes in kernel.epochs)


@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_overlapping_rounds_compile_to_per_round_passes(label):
    """The fixture covers per-round passes only while some epoch of
    each overlapping scenario holds more than one inspection pass."""
    assert (_max_passes(label) > 1) == (label in OVERLAPPING)


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    for label in SCENARIOS:
        assert (_max_passes(label) > 1) == (label in OVERLAPPING), label
    with open(DATA_PATH, "w", encoding="utf-8") as handle:
        json.dump(collect_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA_PATH}")
