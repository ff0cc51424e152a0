"""Workload definitions shared by the benchmark's processes.

The studies are fixed but for their seeds, and every study seed is
drawn from the workload seed, so one seed gives one set of inputs.
The program only ever receives the studies built here.
"""

from __future__ import annotations

import json
import os
import random
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: The F5/F6 grid: inspection rounds per year, as ``repro fig5``/``fig6``.
FREQUENCIES = (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0)
#: The grid's cost-minimising frequency must be this or a neighbour.
PAPER_OPTIMUM = 4.0
SWEEP_HORIZON = 50.0

SWEEPS = {
    # workload -> (kernel, runs per policy, StudyRunner processes)
    "sweep-object": ("object", 300, 1),
    "sweep-vectorized-pool": ("vectorized", 20_000, 2),
}
#: Cached reads of each grid study right after it is simulated: in
#: ``repro all``, ``fig6`` reads back once, through the shared runner,
#: the grid ``fig5`` simulated.
REREADS = 1
#: Runs per policy of the untimed warm-up pass; at or above the
#: runner's parallel threshold, so the pooled warm-up uses the pool.
WARMUP_RUNS = {"sweep-object": 20, "sweep-vectorized-pool": 1_000}

SERVICE_HORIZON = 10.0
SERVICE_RUNS = 2_000
SERVICE_WORKERS = 2
CLIENTS = 2
HOT_SET = 6
#: Of every block of this many submissions, one is a fresh study.
MISS_EVERY = 4
POLL_INTERVAL_S = 0.02
#: The service's rates are medians over this many equal windows of a run.
RATE_WINDOWS = 6

WORKLOADS = tuple(SWEEPS) + ("service-mixed",)


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` directory."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def reference() -> dict:
    """The reference KPI table built by ``make_reference.py``."""
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def seed_stream(seed: int, salt: str) -> random.Random:
    """An independent, reproducible stream of study seeds."""
    return random.Random(f"{salt}:{seed}")


def study_seeds(seed: int, salt: str, count: int) -> List[int]:
    """``count`` distinct study seeds for one purpose of one run."""
    return seed_stream(seed, salt).sample(range(1, 2**31), count)


def grid_model():
    """(tree, {frequency: strategy}, cost model) of the EI-joint grid."""
    from repro.eijoint.model import build_ei_joint_fmt
    from repro.eijoint.parameters import default_cost_model, default_parameters
    from repro.eijoint.strategies import inspection_policy, no_maintenance

    parameters = default_parameters()
    strategies = {
        frequency: (
            no_maintenance(parameters)
            if frequency == 0
            else inspection_policy(frequency, parameters=parameters)
        )
        for frequency in FREQUENCIES
    }
    return build_ei_joint_fmt(parameters), strategies, default_cost_model()


def service_request(seed: int, n_runs: int = SERVICE_RUNS):
    """The service workload's study: current policy over 10 years."""
    from repro.eijoint import build_ei_joint_fmt, current_policy
    from repro.eijoint.parameters import default_cost_model
    from repro.studies.runner import StudyRequest

    return StudyRequest(
        tree=build_ei_joint_fmt(),
        strategy=current_policy(),
        horizon=SERVICE_HORIZON,
        cost_model=default_cost_model(),
        seed=seed,
        n_runs=n_runs,
    )
