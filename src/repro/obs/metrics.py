"""Counters, gauges, and histograms for run-level quantities.

The registry is the numeric side of the observability subsystem: the
tracer (:mod:`repro.obs.trace`) answers *why*, the registry answers
*how much*.  :class:`~repro.sim.metrics.RunMetrics` is built on top of
it — per-wait durations, commit latencies, validation latencies, and
lock-queue depths land in histograms, from which the summary reports
percentiles (p50/p95/p99) instead of just mean/max.

Everything is plain in-memory Python: instruments are cheap to create,
``observe``/``inc`` are O(1) appends, and percentiles are computed on
demand by nearest-rank over a sort (runs are bounded, so this is fine
— and keeps the hot path allocation-free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass(slots=True)
class Gauge:
    """A value that moves both ways; tracks its high-water mark."""

    name: str
    value: float = 0.0
    max_value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


@dataclass(slots=True)
class Histogram:
    """A distribution of observed values with percentile queries.

    ``max_samples`` bounds memory for long-running processes (the live
    server): when set, ``values`` keeps only the most recent window
    and percentiles describe that window, while ``count``, ``total``,
    ``mean``, ``max`` and ``min`` stay exact over the full lifetime.
    A full window is a ring: each sample overwrites the oldest one in
    O(1), so ``values`` is in ring order, not arrival order.
    """

    name: str
    values: list[float] = field(default_factory=list)
    max_samples: int | None = None
    _count: int = field(default=0, repr=False)
    _total: float = field(default=0.0, repr=False)
    _max: float | None = field(default=None, repr=False)
    _min: float | None = field(default=None, repr=False)
    _oldest: int = field(default=0, repr=False)  # ring slot to reuse

    def observe(self, value: float) -> None:
        window = self.max_samples
        if window is None or len(self.values) < window:
            self.values.append(value)
        else:
            self.values[self._oldest] = value
            self._oldest = (self._oldest + 1) % window
        self._count += 1
        self._total += value
        if self._max is None or value > self._max:
            self._max = value
        if self._min is None or value < self._min:
            self._min = value

    @property
    def count(self) -> int:
        # values mutated directly (tests, pre-window callers) still count
        return max(self._count, len(self.values))

    @property
    def total(self) -> float:
        if self._count >= len(self.values):
            return self._total
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        if self._count >= len(self.values):
            return self._max if self._max is not None else 0.0
        return max(self.values) if self.values else 0.0

    @property
    def min(self) -> float:
        if self._count >= len(self.values):
            return self._min if self._min is not None else 0.0
        return min(self.values) if self.values else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; 0.0 on an empty histogram."""
        if not self.values:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        ordered = sorted(self.values)
        if p == 0:
            return ordered[0]
        rank = max(1, -(-len(ordered) * p // 100))  # ceil(n*p/100)
        return ordered[int(rank) - 1]

    def percentiles(self, *ps: float) -> dict[str, float]:
        return {f"p{p:g}": self.percentile(p) for p in ps}

    def summary(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    One registry per run; the simulator's :class:`RunMetrics` owns one
    and the protocol's lock table and validation path feed it when
    attached (see :meth:`TransactionManager.set_registry`).
    """

    def __init__(self, *, default_max_samples: int | None = None) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: window applied to histograms created after construction; the
        #: server sets this so per-request latency histograms stay
        #: bounded over an arbitrarily long uptime.
        self.default_max_samples = default_max_samples

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(
            name, Histogram(name, max_samples=self.default_max_samples)
        )

    @property
    def counters(self) -> dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def snapshot(self) -> dict[str, Any]:
        """One JSON-ready dict of every instrument's current state."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: {"value": gauge.value, "max": gauge.max_value}
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }
