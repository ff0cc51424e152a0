"""Discrete-event Monte Carlo simulation of fault maintenance trees.

The layering is:

* :mod:`repro.simulation.engine` — a generic discrete-event core
  (calendar queue, cancellable events, deterministic tie-breaking);
* :mod:`repro.simulation.executor` — executes one trajectory of an FMT
  under a maintenance strategy: phase-type degradation, RDEP
  acceleration, periodic inspections and repairs, system-failure
  response, full cost accounting;
* :mod:`repro.simulation.trace` — the per-trajectory record;
* :mod:`repro.simulation.batch` — columnar batches of trajectory KPI
  material (packed numpy columns + streaming accumulator);
* :mod:`repro.simulation.metrics` — KPI estimators over trajectories
  or batches, vectorized and bit-identical either way;
* :mod:`repro.simulation.montecarlo` — the replication driver with
  confidence intervals and sequential stopping;
* :mod:`repro.simulation.parallel` — multiprocess fan-out with
  bit-identical results;
* :mod:`repro.simulation.vectorized` — the lockstep struct-of-arrays
  sampling kernel (``SimulationConfig(kernel="vectorized")``), with
  the object engine as fallback and correctness oracle;
* :mod:`repro.simulation.differential` — the kernel-equivalence
  harness (same-seed distributional comparison of the two kernels).

Every layer accepts an optional
:class:`~repro.observability.instrumentation.Instrumentation` (event
counters, per-trajectory timers) — see :mod:`repro.observability`.
"""

from repro.simulation.batch import TrajectoryAccumulator, TrajectoryBatch
from repro.simulation.differential import (
    KernelComparisonReport,
    compare_kernels,
)
from repro.simulation.engine import Engine, ScheduledEvent
from repro.simulation.executor import FMTSimulator, SimulationConfig
from repro.simulation.metrics import (
    KpiSummary,
    availability_curve,
    reliability_curve,
    summarize,
)
from repro.simulation.montecarlo import MonteCarlo, MonteCarloResult
from repro.simulation.parallel import (
    default_process_count,
    sample_parallel,
    sample_parallel_batch,
    simulate_batch,
    simulate_batch_columns,
)
from repro.simulation.trace import ComponentEvent, Trajectory
from repro.simulation.vectorized import (
    VectorizedKernel,
    chunk_plan,
    iter_vectorized_batches,
    simulate_batch_columns_vectorized,
    vectorized_fallback_reason,
)

__all__ = [
    "ComponentEvent",
    "Engine",
    "FMTSimulator",
    "KernelComparisonReport",
    "KpiSummary",
    "MonteCarlo",
    "MonteCarloResult",
    "ScheduledEvent",
    "SimulationConfig",
    "Trajectory",
    "TrajectoryAccumulator",
    "TrajectoryBatch",
    "VectorizedKernel",
    "availability_curve",
    "chunk_plan",
    "compare_kernels",
    "default_process_count",
    "iter_vectorized_batches",
    "reliability_curve",
    "sample_parallel",
    "sample_parallel_batch",
    "simulate_batch",
    "simulate_batch_columns",
    "simulate_batch_columns_vectorized",
    "summarize",
    "vectorized_fallback_reason",
]
