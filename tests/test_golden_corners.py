"""Exact regression fixture for the inspection-calendar corner cases.

The EI-joint fixtures (``test_golden_trajectory.py``) use integer visit
costs, no discounting, one inspection period and same-instant visits in
plan order.  They cannot see a visit cost added out of order (integer
sums are associative) or a wrong order of visits that share an instant.
The scenarios below can:

* rounds of period 0.25 and 0.5 meet at t = 0.5 with the 0.5-round
  first, which is not plan order;
* offsets, a non-representable period (1/3) and a planning delay that
  lands work orders on later round instants;
* imperfect detection, ``detect_failures=False`` and a detection
  threshold equal to the phase count;
* a repair module whose rounds share instants with inspection rounds,
  and an exponential-timing round beside the periodic ones;
* discounted, non-representable visit costs;
* both failure responses, a zero repair time, and a rate dependency;
* a fixed-effort and a RESTART rare-event estimate on an inspected
  model.

Each scenario pins full records for a few seeds (with their event
streams) and a SHA-256 digest of the exact ``repr`` of many more, plus
a Monte Carlo summary; everything is compared with ``==``.

Regenerate (only for a deliberate, documented semantics change) with::

    PYTHONPATH=src python tests/test_golden_corners.py
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.builder import FMTBuilder
from repro.eijoint import build_ei_joint_fmt, current_policy, inspection_policy
from repro.maintenance.actions import MaintenanceAction, clean, repair
from repro.maintenance.costs import CostModel
from repro.maintenance.modules import InspectionModule, RepairModule
from repro.maintenance.strategy import MaintenanceStrategy
from repro.rareevent.estimator import RareEventConfig
from repro.simulation.executor import FMTSimulator, SimulationConfig
from repro.simulation.montecarlo import MonteCarlo

DATA_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_corners.json")

FULL_SEEDS = (0, 1)
DIGEST_RUNS = 200
SUMMARY_RUNS = 100
SUMMARY_SEED = 16


def _corner_tree():
    builder = FMTBuilder("corners")
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


def _corner_modules(exponential=True):
    inspections = [
        # Plan order: the 0.25-round before the 0.5-round.
        InspectionModule(
            "fast", period=0.25, targets=["wear", "loose"],
            action=repair(restore_phases=1), offset=0.0,
            detection_probability=0.7, delay=0.5,
        ),
        InspectionModule(
            "slow", period=0.5, targets=["wear", "crack"],
            action=MaintenanceAction("replace"), offset=0.0,
            detect_failures=False,
        ),
        InspectionModule(
            "third", period=1.0 / 3.0, targets=["crack", "loose", "shock"],
            action=clean(), offset=0.1, detection_probability=0.9,
        ),
    ]
    if exponential:
        inspections.append(
            InspectionModule(
                "random", period=1.5, targets=["wear", "crack", "loose"],
                action=MaintenanceAction("replace"), timing="exponential",
            )
        )
    repairs = (
        RepairModule("renew_loose", period=1.0, targets=["loose"], offset=0.5),
    )
    return tuple(inspections), repairs


def _corner_costs(discount_rate=0.03):
    return CostModel(
        inspection_visit=0.1,
        module_visit_costs={"slow": 0.3, "third": 0.7, "random": 1.1},
        action_costs={"clean": 0.35, "repair": 1.7, "replace": 9.1},
        system_failure=57.3,
        corrective_factor=1.3,
        downtime_per_year=13.7,
        discount_rate=discount_rate,
    )


def _corner_scenario(on_failure, repair_time, exponential=True, discount=0.03):
    inspections, repairs = _corner_modules(exponential)
    strategy = MaintenanceStrategy(
        "corners", inspections=inspections, repairs=repairs,
        on_system_failure=on_failure, system_repair_time=repair_time,
    )
    return _corner_tree(), strategy, _corner_costs(discount), 20.0


def _eijoint_scenario(strategy, discount=0.02):
    costs = CostModel(
        inspection_visit=0.1,
        module_visit_costs={"inspect_repair": 0.3, "inspect_replace": 0.0},
        action_costs={"clean": 150.3, "repair": 400.7, "replace": 2500.1},
        system_failure=20_000.3,
        corrective_factor=1.5,
        downtime_per_year=250_000.0,
        discount_rate=discount,
    )
    return build_ei_joint_fmt(), strategy, costs, 50.0


def _eijoint_mixed_timing():
    periodic = inspection_policy(
        12.0, delay=0.05, detection_probability=0.85, renewal_years=7.0
    )
    extra = InspectionModule(
        "spot_check", period=2.0,
        targets=[m.targets[0] for m in periodic.inspections],
        action=MaintenanceAction("replace"), timing="exponential",
    )
    return MaintenanceStrategy(
        "mixed-timing",
        inspections=periodic.inspections + (extra,),
        repairs=periodic.repairs,
        on_system_failure="replace",
        system_repair_time=periodic.system_repair_time,
    )


#: label -> () -> (tree, strategy, cost model, horizon)
SCENARIOS = {
    "corners_replace": lambda: _corner_scenario("replace", 0.3),
    "corners_absorbing": lambda: _corner_scenario("none", 0.0),
    "corners_zero_repair": lambda: _corner_scenario("replace", 0.0),
    "corners_periodic_only": lambda: _corner_scenario(
        "replace", 0.2, exponential=False, discount=0.07
    ),
    "eijoint_12x_discounted": lambda: _eijoint_scenario(inspection_policy(12.0)),
    "eijoint_mixed_timing": lambda: _eijoint_scenario(_eijoint_mixed_timing()),
}


def _trajectory_record(trajectory):
    return {
        "failure_times": list(trajectory.failure_times),
        "downtime": trajectory.downtime,
        "costs": trajectory.costs.as_dict(),
        "n_inspections": trajectory.n_inspections,
        "n_preventive_actions": trajectory.n_preventive_actions,
        "n_corrective_replacements": trajectory.n_corrective_replacements,
        "events": [
            [e.time, e.component, e.kind, e.corrective, e.phase]
            for e in trajectory.events
        ],
    }


def _interval(interval):
    return [interval.estimate, interval.lower, interval.upper]


def _collect_scenario(label):
    tree, strategy, costs, horizon = SCENARIOS[label]()
    config = SimulationConfig(horizon=horizon, cost_model=costs, record_events=True)
    simulator = FMTSimulator(tree, strategy, config=config)
    full = {}
    digest = hashlib.sha256()
    for seed in range(DIGEST_RUNS):
        record = _trajectory_record(simulator.simulate(np.random.default_rng(seed)))
        if seed in FULL_SEEDS:
            full[str(seed)] = record
        digest.update(repr(sorted(record.items())).encode())
    summary = MonteCarlo(
        tree, strategy, horizon=horizon, cost_model=costs, seed=SUMMARY_SEED
    ).run(SUMMARY_RUNS).summary
    return {
        "trajectories": full,
        "digest": digest.hexdigest(),
        "summary": {
            "n_runs": summary.n_runs,
            "unreliability": _interval(summary.unreliability),
            "failures_per_year": _interval(summary.failures_per_year),
            "availability": _interval(summary.availability),
            "cost_per_year": _interval(summary.cost_per_year),
        },
    }


RARE_EVENT_CONFIGS = {
    "fixed_effort": RareEventConfig(
        method="fixed_effort", n_levels=3, effort=40, n_replications=4
    ),
    "restart": RareEventConfig(method="restart", n_levels=3, splits=3, n_roots=60),
}


def _collect_rare_event(method):
    mc = MonteCarlo(
        build_ei_joint_fmt(), current_policy(), horizon=10.0, seed=2016
    )
    result = mc.run_rare_event(RARE_EVENT_CONFIGS[method])
    return {
        "unreliability": _interval(result.unreliability),
        "n_trajectories": result.n_trajectories,
        "thresholds": list(result.thresholds),
        "stage_probabilities": (
            None if result.stage_probabilities is None
            else list(result.stage_probabilities)
        ),
    }


def collect_golden():
    """Simulate every scenario and return the golden image."""
    return {
        "scenarios": {label: _collect_scenario(label) for label in SCENARIOS},
        "rare_event": {
            method: _collect_rare_event(method) for method in RARE_EVENT_CONFIGS
        },
    }


@pytest.fixture(scope="module")
def golden():
    with open(DATA_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_corner_scenario_bit_identical(golden, label):
    expected = golden["scenarios"][label]
    got = _collect_scenario(label)
    for seed, record in expected["trajectories"].items():
        assert got["trajectories"][seed] == record, f"{label}: seed {seed}"
    assert got["digest"] == expected["digest"], f"{label}: a trajectory drifted"
    assert got["summary"] == expected["summary"]


@pytest.mark.parametrize("method", sorted(RARE_EVENT_CONFIGS))
def test_rare_event_estimate_bit_identical(golden, method):
    assert _collect_rare_event(method) == golden["rare_event"][method]


def test_scenarios_exercise_their_corners(golden):
    """The fixture is only useful if the corners actually occur."""
    replace = golden["scenarios"]["corners_replace"]["trajectories"]
    kinds = {e[2] for record in replace.values() for e in record["events"]}
    assert {"detection", "repair", "replace", "clean", "system_failure"} <= kinds
    # Plan order puts the 0.25-round first; at t = 0.5 the engine runs
    # the 0.5-round's visit first.
    strategy = SCENARIOS["corners_periodic_only"]()[1]
    assert [m.period for m in strategy.inspections[:2]] == [0.25, 0.5]
    for scenario in golden["scenarios"].values():
        assert scenario["summary"]["n_runs"] == SUMMARY_RUNS


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    with open(DATA_PATH, "w", encoding="utf-8") as handle:
        json.dump(collect_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA_PATH}")
