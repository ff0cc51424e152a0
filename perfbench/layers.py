"""Layer spans taken around the program's public calls.

The traced run replaces a fixed list of public functions and methods
with wrappers that time each call and file it under the layer that
owns the function.  Spans nest per thread; a span's self time is its
duration minus the time of the spans it encloses, so the layers' self
times plus the time outside every span add up to the wall time.
Spans are kept in memory and summarised when the run ends.

Nothing here changes what the program computes: every wrapper calls
the original with the same arguments and returns its result.

Calls made inside pool workers are traced by running each pool task
through :func:`run_remote`, which installs the same wrappers in the
worker and ships the worker's spans back with the task's result.

Span start times come from ``time.perf_counter``, which on Linux is
``CLOCK_MONOTONIC`` and so shared by every process on the host: spans
recorded in the service's process line up with the client's timings.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import statistics
import threading
import time
import types
import zlib
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

LAYERS = (
    "service",
    "studies",
    "montecarlo",
    "parallel",
    "executor",
    "vectorized",
    "batch",
)

#: Pool task sets kept for ``parallel.task_bytes``: one grid's
#: studies.  Keeping every study's seed lists would grow the heap the
#: traced run's garbage collector walks.
KEPT_TASK_SETS = 7


class Span(NamedTuple):
    """A finished call: its layer, name, duration and self time."""

    layer: str
    name: str
    seconds: float
    self_seconds: float
    top: bool
    rows: int
    thread: int
    start: float
    tag: Optional[str]

    @property
    def end(self) -> float:
        return self.start + self.seconds


class Recorder:
    """In-memory span store plus the values noted by wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.notes: Dict[str, List[float]] = defaultdict(list)
        self.remote: List[dict] = []
        self.task_sets: List[list] = []
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        rows: Optional[Callable[[tuple], int]] = None,
        after: Optional[Callable[["Recorder", tuple, Any], None]] = None,
        tag: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                recorder.spans.append(
                    Span(
                        layer,
                        name,
                        seconds,
                        seconds - children[0],
                        not stack,
                        rows(args) if rows is not None else 0,
                        threading.get_ident(),
                        start,
                        tag(args) if tag is not None else None,
                    )
                )
            if after is not None:
                after(recorder, args, result)
            return result

        return traced

    # -- summaries -----------------------------------------------------
    def calls(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def mean_ms(self, name: str) -> float:
        return mean_ms(self.calls(name))

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer over the recorded spans."""
        return self_seconds(self.spans)

    def top_level_seconds(self) -> float:
        return sum(span.seconds for span in self.spans if span.top)

    def dump(self, path: str) -> None:
        """Write the spans and notes as JSON (the traced server's output)."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "notes": self.notes}, handle)


def load(path: str) -> Tuple[List[Span], Dict[str, list]]:
    """The spans and notes :meth:`Recorder.dump` wrote."""
    with open(path) as handle:
        data = json.load(handle)
    return [Span(*row) for row in data["spans"]], data["notes"]


def mean_ms(spans: List[Span]) -> float:
    """Mean duration of ``spans`` in ms; 0 for none."""
    return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0


def self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per layer over ``spans``."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        totals[span.layer] += span.self_seconds
    return totals


def subtrees(spans: List[Span]) -> Dict[Span, List[Span]]:
    """Each top-level span with the spans it encloses (itself first).

    Spans nest per thread, so a span belongs to the top-level span of
    its thread whose interval holds its start.
    """
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_thread[span.thread].append(span)
    trees: Dict[Span, List[Span]] = {}
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s.start, not s.top))
        current: List[Span] = []
        for span in thread_spans:
            if span.top:
                current = trees.setdefault(span, [span])
            elif current and span.start <= current[0].end:
                current.append(span)
    return trees


class _TracedExecutor:
    """Runs every task of a pool ``map`` through :func:`run_remote`."""

    def __init__(self, real, recorder: Recorder):
        self._real = real
        self._recorder = recorder

    def map(self, fn, payloads, **kwargs):
        # The pool's own map lists its inputs up front as well.  The
        # tasks are pickled for ``task_bytes`` after the run, outside
        # every span.
        payloads = list(payloads)
        if len(self._recorder.task_sets) < KEPT_TASK_SETS:
            self._recorder.task_sets.append(payloads)
        self._recorder.notes["parallel.tasks"].append(len(payloads))
        for result, remote in self._real.map(
            run_remote, [(fn, p) for p in payloads], **kwargs
        ):
            self._recorder.remote.append(remote)
            yield result

    def __getattr__(self, name):
        return getattr(self._real, name)


_ACTIVE: Optional[Recorder] = None


def run_remote(task):
    """Pool-side task body: run ``fn(payload)`` with spans recorded."""
    fn, payload = task
    recorder = _ACTIVE
    if recorder is None:
        recorder = Recorder()
        install(recorder, pool_proxy=False)
    mark = len(recorder.spans)
    start = time.perf_counter()
    result = fn(payload)
    busy = time.perf_counter() - start
    spans = recorder.spans[mark:]
    del recorder.spans[mark:]
    return result, {"pid": os.getpid(), "busy": busy, "spans": spans}


def task_bytes(recorder: Recorder) -> float:
    """Median pickled bytes of the pool tasks one study sends."""
    sizes = [
        sum(len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL)) for p in tasks)
        for tasks in recorder.task_sets
    ]
    return statistics.median(sizes) if sizes else 0.0


class _TracedSeeds:
    """A driver's ``SeedSequence`` whose ``spawn`` is a montecarlo span."""

    def __init__(self, real, recorder: Recorder):
        self._real = real
        self.spawn = recorder.wrap("montecarlo", "SeedSequence.spawn", real.spawn)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _trace_seeds(recorder: Recorder, args: tuple, _result) -> None:
    driver = args[0]
    driver._seed_sequence = _TracedSeeds(driver._seed_sequence, recorder)


def _note_epochs(recorder: Recorder, args: tuple, _result) -> None:
    recorder.notes["vectorized.epochs"].append(len(args[0].epochs))


def _note_batch_bytes(recorder: Recorder, _args: tuple, result) -> None:
    recorder.notes["batch.bytes"].append(result.nbytes)


def request_tag(method: str, path: str, body: bytes) -> str:
    """What identifies an HTTP call on both sides of the connection."""
    return f"{method} {path} {zlib.crc32(body):08x}"


def _handle_tag(args: tuple) -> str:
    _service, method, path, _query, body = args
    return request_tag(method, path, body)


def _study_tag(args: tuple) -> str:
    return str(args[1].seed)


def _targets(app_json) -> Iterable[Tuple[Any, str, str, dict]]:
    """(owner, attribute, layer, wrap options) for every traced call.

    ``app_json`` stands in for the service app's ``json`` module, so
    the app's request parsing and response rendering are spans of
    their own without tracing every JSON call in the process.
    """
    from repro.service import app
    from repro.service.app import StudyService
    from repro.simulation import montecarlo, parallel
    from repro.simulation.batch import TrajectoryAccumulator
    from repro.simulation.executor import FMTSimulator
    from repro.simulation.montecarlo import MonteCarlo
    from repro.simulation.shm import ShmBatchWriter
    from repro.simulation.vectorized import VectorizedKernel
    from repro.studies.cache import DiskCache
    from repro.studies.runner import StudyRequest, StudyRunner

    return [
        (StudyService, "handle", "service", {"tag": _handle_tag}),
        (app_json, "loads", "service", {}),
        (app_json, "dumps", "service", {}),
        (app, "decode_wire", "service", {}),
        (app, "encode_wire", "service", {}),
        (StudyRunner, "summary", "studies", {"tag": _study_tag}),
        (StudyRunner, "peek_summary", "studies", {}),
        (StudyRequest, "key", "studies", {}),
        (StudyRequest, "simulator_material", "studies", {}),
        (DiskCache, "store", "studies", {}),
        (StudyRequest, "build_simulator", "executor", {}),
        (MonteCarlo, "__init__", "montecarlo", {"after": _trace_seeds}),
        (MonteCarlo, "run", "montecarlo", {}),
        (MonteCarlo, "run_parallel", "montecarlo", {}),
        (parallel, "sample_parallel_batch", "parallel", {}),
        (FMTSimulator, "simulate", "executor", {}),
        (FMTSimulator, "clone", "executor", {}),
        (VectorizedKernel, "__init__", "vectorized", {"after": _note_epochs}),
        (
            VectorizedKernel,
            "simulate_chunk",
            "vectorized",
            {"rows": lambda args: int(args[1])},
        ),
        (TrajectoryAccumulator, "add", "batch", {}),
        (TrajectoryAccumulator, "add_batch", "batch", {}),
        (TrajectoryAccumulator, "finalize", "batch", {"after": _note_batch_bytes}),
        (ShmBatchWriter, "finalize", "batch", {"after": _note_batch_bytes}),
        (montecarlo, "summarize", "batch", {}),
    ]


def _span_name(owner: Any, attribute: str) -> str:
    prefix = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
    return f"{prefix}.{attribute}"


def install(recorder: Recorder, pool_proxy: bool = True) -> Callable[[], None]:
    """Wrap every traced call; returns a function that unwraps them.

    With ``pool_proxy`` the shared pool's executor is replaced by one
    that traces its tasks inside the workers.
    """
    global _ACTIVE
    from repro.service import app
    from repro.simulation.parallel import SharedSimulationPool

    app_json = types.SimpleNamespace(
        __name__="json", loads=json.loads, dumps=json.dumps
    )
    originals = [(app, "json", app.__dict__["json"])]
    app.json = app_json
    for owner, attribute, layer, options in _targets(app_json):
        original = owner.__dict__[attribute]
        wrapped = recorder.wrap(
            layer,
            _span_name(owner, attribute),
            original,
            options.get("rows"),
            options.get("after"),
            options.get("tag"),
        )
        setattr(owner, attribute, wrapped)
        originals.append((owner, attribute, original))
    if pool_proxy:
        original = SharedSimulationPool.__dict__["executor"]

        def executor(self):
            return _TracedExecutor(original(self), recorder)

        SharedSimulationPool.executor = executor
        originals.append((SharedSimulationPool, "executor", original))
    _ACTIVE = recorder

    def uninstall() -> None:
        global _ACTIVE
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
        _ACTIVE = None

    return uninstall


def fold_remote(recorder: Recorder) -> Dict[str, float]:
    """Self time per layer of the busiest pool worker.

    The busiest worker is the pool's critical path: the driver waits at
    least that long in ``sample_parallel_batch``.
    """
    busy: Dict[int, float] = defaultdict(float)
    layer_self: Dict[int, Dict[str, float]] = defaultdict(
        lambda: {layer: 0.0 for layer in LAYERS}
    )
    for remote in recorder.remote:
        busy[remote["pid"]] += remote["busy"]
        for layer, seconds in self_seconds(remote["spans"]).items():
            layer_self[remote["pid"]][layer] += seconds
    if not busy:
        return {}
    busiest = max(busy, key=busy.get)
    return layer_self[busiest]


def remote_spans(recorder: Recorder) -> List[Span]:
    return [span for remote in recorder.remote for span in remote["spans"]]


#: The calls that fold trajectories into a study's batch.
FOLD_CALLS = (
    "TrajectoryAccumulator.add",
    "TrajectoryAccumulator.add_batch",
    "TrajectoryAccumulator.finalize",
    "ShmBatchWriter.finalize",
)


def study_metrics(
    spans: List[Span], chunk_spans: List[Span], notes: Dict[str, list], studies: int
) -> Dict[str, Tuple[float, str]]:
    """Per-study metrics of the vectorized and batch layers.

    ``spans`` are every span of the fresh studies (pool workers
    included); ``chunk_spans`` those that time ``simulate_chunk`` per
    row, in the workload's chunk layout.
    """

    def named(name):
        return [s for s in spans if s.name == name]

    compiles = named("VectorizedKernel.__init__")
    chunks = [s for s in chunk_spans if s.name == "VectorizedKernel.simulate_chunk"]
    rows = sum(s.rows for s in chunks)
    epochs = notes.get("vectorized.epochs", [])
    batch_bytes = notes.get("batch.bytes", [])
    return {
        "vectorized.compile_ms": (
            1e3 * statistics.median(s.seconds for s in compiles) if compiles else 0.0,
            "ms",
        ),
        "vectorized.compiles_per_study": (len(compiles) / studies, "count"),
        "vectorized.chunk_us": (
            1e6 * sum(s.seconds for s in chunks) / rows if rows else 0.0,
            "us",
        ),
        "vectorized.epochs": (statistics.fmean(epochs) if epochs else 0.0, "count"),
        "vectorized.chunks_per_study": (
            len(named("VectorizedKernel.simulate_chunk")) / studies,
            "count",
        ),
        "batch.fold_ms": (
            1e3 * sum(s.seconds for s in spans if s.name in FOLD_CALLS) / studies,
            "ms",
        ),
        "batch.summarize_ms": (
            1e3 * sum(s.seconds for s in named("montecarlo.summarize")) / studies,
            "ms",
        ),
        "batch.bytes": (
            statistics.median(batch_bytes) if batch_bytes else 0.0,
            "bytes",
        ),
        "montecarlo.seed_spawn_ms": (
            1e3 * sum(s.seconds for s in named("SeedSequence.spawn")) / studies,
            "ms",
        ),
    }


def split(
    self_s: Dict[str, float], unattributed: float, wall: float
) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """Layer shares of ``wall`` as metrics, and the seconds as a report.

    The shares and ``unattributed_share`` add up to 1; the report's
    ``sum_over_wall`` shows it.
    """
    metrics = {f"{layer}.self_share": (self_s[layer] / wall, "ratio") for layer in LAYERS}
    metrics["unattributed_share"] = (unattributed / wall, "ratio")
    report = {
        "wall_s": round(wall, 4),
        "self_s": {layer: round(self_s[layer], 4) for layer in LAYERS},
        "unattributed_s": round(unattributed, 4),
        "sum_over_wall": round((sum(self_s.values()) + unattributed) / wall, 6),
    }
    return metrics, report

