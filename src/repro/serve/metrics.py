"""Serving metrics: counters, gauges, and latency histograms.

A deliberately small, dependency-free instrumentation layer in the
style of a Prometheus client: named instruments registered in a
:class:`Metrics` registry, each thread-safe, all exported through one
:meth:`Metrics.snapshot` call that returns plain dictionaries (JSON
serializable, stable key order) — the payload behind
``ServingRuntime.metrics_snapshot()`` and the ``serve`` CLI output.

Histograms keep a bounded reservoir of recent samples (newest-wins
ring buffer) next to exact count/sum/min/max accumulators, so p50/p95/
p99 reflect recent traffic while totals stay exact over the process
lifetime.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "StateGauge",
]


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A value that can move both ways (queue depth, cache size)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class StateGauge:
    """A gauge whose value is a symbolic state string, with transition
    counts — the circuit-breaker ``closed``/``half_open``/``open``
    export, where an averaged number would be meaningless."""

    def __init__(self, name: str, initial: str = ""):
        self.name = name
        self._state = initial
        self._transitions = 0
        self._lock = threading.Lock()

    def set(self, state: str) -> None:
        with self._lock:
            if state != self._state:
                self._state = state
                self._transitions += 1

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"state": self._state, "transitions": self._transitions}


class Histogram:
    """Latency histogram: exact totals + a sample reservoir for quantiles.

    The reservoir is a fixed-size ring buffer — under sustained load the
    quantiles describe the most recent ``capacity`` observations, which
    is the operationally useful window for p95/p99 dashboards.
    """

    def __init__(self, name: str, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("histogram capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._samples: List[float] = []
        self._cursor = 0
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if len(self._samples) < self.capacity:
                self._samples.append(value)
            else:
                self._samples[self._cursor] = value
                self._cursor = (self._cursor + 1) % self.capacity

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the retained samples.

        Nearest-rank on the sorted reservoir; 0.0 when empty (a
        dashboard-friendly sentinel — check ``count`` to distinguish).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            count = self._count
            total = self._sum
            lo = self._min
            hi = self._max
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class Metrics:
    """A named registry of instruments with one-call export.

    ``counter`` / ``gauge`` / ``histogram`` create-or-return, so call
    sites never coordinate registration order.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._states: Dict[str, StateGauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = Counter(name)
                self._counters[name] = instrument
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = Gauge(name)
                self._gauges[name] = instrument
            return instrument

    def state_gauge(self, name: str, initial: str = "") -> StateGauge:
        with self._lock:
            instrument = self._states.get(name)
            if instrument is None:
                instrument = StateGauge(name, initial)
                self._states[name] = instrument
            return instrument

    def histogram(self, name: str, capacity: int = 4096) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = Histogram(name, capacity)
                self._histograms[name] = instrument
            return instrument

    def snapshot(self) -> Dict[str, Dict]:
        """Every instrument's current state as plain dictionaries."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            states = dict(self._states)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].snapshot() for name in sorted(counters)
            },
            "gauges": {
                name: gauges[name].snapshot() for name in sorted(gauges)
            },
            "states": {
                name: states[name].snapshot() for name in sorted(states)
            },
            "histograms": {
                name: histograms[name].snapshot()
                for name in sorted(histograms)
            },
        }
