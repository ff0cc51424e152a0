"""Zero-dependency metrics registry: counters, gauges, timers.

The registry is the storage layer of the observability stack: hot-path
code increments :class:`Counter`\\ s and feeds :class:`Timer`\\ s; the CLI
renders the registry to aligned text (``--profile``) or dumps it as
JSON (``--metrics-out``).  Everything here is pure stdlib and cheap
enough to stay enabled in the simulation hot path — a counter
increment is one attribute add, and timers only pay two
``perf_counter`` calls per observed block.

All instruments are plain picklable objects so a
:class:`~repro.observability.instrumentation.Instrumentation` can ride
along with a simulator into worker processes (each worker then updates
its own copy; see :func:`MetricsRegistry.merge` for recombining).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.errors import ValidationError

__all__ = ["Counter", "Gauge", "Timer", "MetricsRegistry", "percentile"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``samples`` (``q`` in [0, 100]).

    Matches ``numpy.percentile``'s default method but needs no numpy —
    the registry must work in contexts where only stdlib is loaded.
    """
    if not samples:
        raise ValidationError("percentile() of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValidationError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class Counter:
    """Monotonically increasing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Float value tracking last/min/max across sets.

    ``last`` is the conventional gauge reading (most recent ``set``);
    ``min``/``max`` record the envelope, which is what makes merging
    worker-side gauges lossless — folding registries keeps the extreme
    readings instead of whichever worker's chunk happened to merge
    last (the pre-PR-6 behaviour).
    """

    __slots__ = ("name", "last", "min", "max", "n_sets")

    def __init__(self, name: str):
        self.name = name
        self.last = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.n_sets = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        value = float(value)
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.n_sets += 1

    @property
    def value(self) -> float:
        """The most recent reading (alias of ``last``)."""
        return self.last

    def merge_from(self, other: "Gauge") -> None:
        """Fold another gauge's envelope into this one.

        The other gauge's ``last`` wins (merge order = chunk completion
        order, so the final reading is the most recent one seen);
        min/max combine exactly.  A never-set gauge contributes
        nothing.
        """
        if other.n_sets == 0:
            return
        self.last = other.last
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.n_sets += other.n_sets

    def summary(self) -> Dict[str, float]:
        """``{"last", "min", "max"}`` as a JSON-ready dict.

        A created-but-never-set gauge reports zeros (its historical
        reading) rather than infinities.
        """
        if self.n_sets == 0:
            return {"last": self.last, "min": self.last, "max": self.last}
        return {"last": self.last, "min": self.min, "max": self.max}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self.last:g})"


class Timer:
    """Duration histogram: bounded reservoir, reports p50/p95/max.

    Samples are seconds.  The raw list is bounded by ``max_samples``;
    beyond that the kept samples form a uniform random reservoir
    (Vitter's algorithm R) over *everything* observed, so quantiles
    describe the whole run rather than its first ``max_samples``
    observations, while memory stays bounded on million-trajectory
    runs.  The reservoir RNG is seeded from the timer name — fully
    deterministic, independent of numpy streams, identical across
    runs — and ``max`` tracks the true maximum separately so late-run
    stragglers always surface even when the reservoir drops them.
    """

    __slots__ = ("name", "count", "total", "max_samples", "_samples",
                 "_max", "_reservoir_rng")

    def __init__(self, name: str, max_samples: int = 100_000):
        if max_samples < 1:
            raise ValidationError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._max = 0.0
        seed = int.from_bytes(
            hashlib.sha256(name.encode("utf-8")).digest()[:8], "big"
        )
        self._reservoir_rng = random.Random(seed)

    def observe(self, seconds: float) -> None:
        """Record one duration, in seconds."""
        self.count += 1
        self.total += seconds
        if seconds > self._max:
            self._max = seconds
        if len(self._samples) < self.max_samples:
            self._samples.append(seconds)
        else:
            slot = self._reservoir_rng.randrange(self.count)
            if slot < self.max_samples:
                self._samples[slot] = seconds

    def observe_many(self, samples: Sequence[float]) -> None:
        """Record durations in order: the same state as one
        :meth:`observe` per sample, for a fraction of the calls."""
        room = max(0, self.max_samples - len(self._samples))
        self._samples.extend(samples[:room])
        count = self.count
        total = self.total
        top = self._max
        for index, seconds in enumerate(samples):
            count += 1
            total += seconds
            if seconds > top:
                top = seconds
            if index >= room:
                slot = self._reservoir_rng.randrange(count)
                if slot < self.max_samples:
                    self._samples[slot] = seconds
        self.count = count
        self.total = total
        self._max = top

    @contextmanager
    def time(self) -> Iterator[None]:
        """Context manager timing the enclosed block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)

    @property
    def mean(self) -> float:
        """Mean duration, 0.0 when nothing was observed."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Percentile (``q`` in [0, 100]) of the recorded samples."""
        if not self._samples:
            return 0.0
        return percentile(self._samples, q)

    @property
    def max(self) -> float:
        """Largest observed duration, 0.0 when nothing was observed.

        Tracked outside the reservoir, so it is exact over the whole
        run even when the sample that produced it was evicted.
        """
        return self._max

    def summary(self) -> Dict[str, float]:
        """Count/total/mean/p50/p95/max as a JSON-ready dict."""
        return {
            "count": self.count,
            "total_seconds": self.total,
            "mean_seconds": self.mean,
            "p50_seconds": self.quantile(50.0),
            "p95_seconds": self.quantile(95.0),
            "max_seconds": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Timer({self.name}: n={self.count}, total={self.total:.3g}s)"


class MetricsRegistry:
    """Named collection of counters, gauges, and timers.

    Instruments are created on first use (``registry.counter("x")``)
    and live for the registry's lifetime; a name is bound to exactly
    one instrument kind (asking for ``counter("x")`` after
    ``timer("x")`` is a caller bug and raises).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    # -- instrument accessors -----------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, self._counters)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, self._gauges)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def timer(self, name: str) -> Timer:
        """Get or create the timer ``name``."""
        instrument = self._timers.get(name)
        if instrument is None:
            self._check_free(name, self._timers)
            instrument = self._timers[name] = Timer(name)
        return instrument

    def _check_free(self, name: str, owner: Dict[str, object]) -> None:
        for family in (self._counters, self._gauges, self._timers):
            if family is not owner and name in family:
                raise ValidationError(
                    f"metric name {name!r} already used by another instrument kind"
                )

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (e.g. from a worker).

        Counters add; gauges fold their last/min/max envelopes
        (:meth:`Gauge.merge_from`); timer samples replay through the
        reservoir, count/total stay exact even past the sample cap, and
        the true maximum is carried over explicitly.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge_from(gauge)
        for name, timer in other._timers.items():
            mine = self.timer(name)
            for sample in timer._samples:
                mine.observe(sample)
            extra = timer.count - len(timer._samples)
            if extra > 0:
                mine.count += extra
                mine.total += timer.total - sum(timer._samples)
            if timer._max > mine._max:
                mine._max = timer._max

    def reset(self) -> None:
        """Drop every instrument."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()

    # -- rendering -----------------------------------------------------
    def to_dict(self) -> Dict[str, Dict[str, Union[int, float, Dict[str, float]]]]:
        """JSON-ready snapshot of everything in the registry."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.summary() for name, g in sorted(self._gauges.items())
            },
            "timers": {
                name: t.summary() for name, t in sorted(self._timers.items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The :meth:`to_dict` snapshot as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path) -> None:
        """Write the JSON snapshot to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def render_prometheus(self, namespace: str = "repro") -> str:
        """Prometheus text exposition (0.0.4) of the registry.

        Counters become ``<ns>_<name>_total``, gauges expose last with
        ``_min``/``_max`` companions, timers render as summaries; see
        :mod:`repro.observability.exposition` for the full mapping.
        """
        from repro.observability.exposition import render_prometheus

        return render_prometheus(self.to_dict(), namespace=namespace)

    def render_text(self, title: str = "metrics") -> str:
        """Aligned human-readable rendering (the ``--profile`` report)."""
        lines = [f"== {title} =="]
        if self._counters:
            lines.append("counters:")
            width = max(len(name) for name in self._counters)
            for name, counter in sorted(self._counters.items()):
                lines.append(f"  {name.ljust(width)}  {counter.value}")
        if self._gauges:
            lines.append("gauges:")
            width = max(len(name) for name in self._gauges)
            for name, gauge in sorted(self._gauges.items()):
                line = f"  {name.ljust(width)}  {gauge.last:g}"
                if gauge.n_sets > 1 and gauge.min != gauge.max:
                    line += f" (min {gauge.min:g}, max {gauge.max:g})"
                lines.append(line)
        if self._timers:
            lines.append("timers (seconds):")
            width = max(len(name) for name in self._timers)
            for name, timer in sorted(self._timers.items()):
                lines.append(
                    f"  {name.ljust(width)}  n={timer.count}"
                    f" total={timer.total:.4g} mean={timer.mean:.4g}"
                    f" p50={timer.quantile(50.0):.4g}"
                    f" p95={timer.quantile(95.0):.4g}"
                    f" max={timer.max:.4g}"
                )
        if len(lines) == 1:
            lines.append("(empty)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, timers={len(self._timers)})"
        )
