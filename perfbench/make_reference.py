"""Build ``reference.json``: the KPI table the benchmark checks against.

One row per grid policy (50-year horizon, default cost model) and one
for the ``service-mixed`` study (current policy, 10 years), each from
the object engine at a high run count.  A benchmark study passes when
its failures/yr and cost/yr lie within 5 combined standard errors of
its row.

Usage (from the repository root; takes several minutes on 2 CPUs)::

    python3 perfbench/make_reference.py [--grid-runs 40000]
        [--service-runs 200000] [--processes 2]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time

from workloads import (
    FREQUENCIES,
    HERE,
    SERVICE_HORIZON,
    SWEEP_HORIZON,
    grid_model,
    service_request,
    use_source_tree,
)

from stats import kpi_errors

SEED = 20160628
OUT = os.path.join(HERE, "reference.json")


def _row(summary, seconds: float) -> dict:
    row = {"n_runs": summary.n_runs, "seconds": round(seconds, 1)}
    for name, (estimate, se) in kpi_errors(summary).items():
        row[name] = estimate
        row[f"{name}_se"] = se
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid-runs", type=int, default=40_000)
    parser.add_argument("--service-runs", type=int, default=200_000)
    parser.add_argument("--processes", type=int, default=2)
    args = parser.parse_args()
    use_source_tree()
    from repro.studies import StudyRequest, StudyRunner

    tree, strategies, cost_model = grid_model()
    table = {
        "engine": "object",
        "seed": SEED,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}",
        "grid": {"horizon": SWEEP_HORIZON, "rows": {}},
        "service": {"horizon": SERVICE_HORIZON},
    }
    with StudyRunner(processes=args.processes) as runner:
        for frequency in FREQUENCIES:
            started = time.perf_counter()
            summary = runner.summary(
                StudyRequest(
                    tree=tree,
                    strategy=strategies[frequency],
                    horizon=SWEEP_HORIZON,
                    cost_model=cost_model,
                    seed=SEED,
                    n_runs=args.grid_runs,
                )
            )
            row = _row(summary, time.perf_counter() - started)
            table["grid"]["rows"][f"{frequency:g}"] = row
            print(f"{frequency:g}/yr: {row}", flush=True)
        started = time.perf_counter()
        summary = runner.summary(service_request(SEED, n_runs=args.service_runs))
        table["service"]["row"] = _row(summary, time.perf_counter() - started)
        print(f"service: {table['service']['row']}", flush=True)
    with open(OUT, "w") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
