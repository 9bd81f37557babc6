"""Arithmetic of the ledger: aggregations, the reference clock, spans,
the host-ceiling probe.

Everything here is independent of ``repro`` except :func:`host_ceiling`'s
cache-size lookup, so the unit tests exercise it without compiling
anything.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "REFERENCE_NOMINAL_MS",
    "ReferenceClock",
    "SpanLog",
    "geomean",
    "geomean_of_medians",
    "host_ceiling",
    "host_jiffies",
    "layer_self_ms",
    "percentile",
    "reference_ms",
    "self_times",
]

#: What one :func:`reference_ms` sample reads on the host the ledger's
#: times are stated for (the reference container in its middle speed).
REFERENCE_NOMINAL_MS = 1.0

_REFERENCE_STEPS = 7500


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; 0.0 for an empty sequence."""
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def geomean_of_medians(per_class: Mapping[str, Sequence[float]]) -> float:
    """The paper's Table II aggregation: geometric mean over classes of
    each class's median.  A gain on one class moves it; a pooled median
    would not.  Classes whose median is not positive are left out (a
    layer that took no measurable time has no place in a product)."""
    medians = [statistics.median(v) for v in per_class.values() if len(v)]
    return geomean(m for m in medians if m > 0.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of pooled samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reference_ms() -> float:
    """One sample of the host's speed: the milliseconds a fixed piece of
    interpreter work (integer arithmetic, dict stores, tuple and string
    allocation) takes right now.  It calls nothing of ``repro``, so only
    the host can move it."""
    started = time.perf_counter()
    acc = 0
    table = {}
    items = []
    for i in range(_REFERENCE_STEPS):
        acc = (acc + i * i) % 1000003
        table[i & 127] = (acc, i)
        if not i & 7:
            items.append(str(acc))
    ",".join(items)
    return (time.perf_counter() - started) * 1e3


class ReferenceClock:
    """Reference samples that cut a stretch of time into intervals.

    The shared host runs at one of a few speeds and changes between them
    every few seconds (the reference kernel reads about 0.75, 1.0 or 1.3 ms),
    so a wall-clock time says as much about the host as about the
    program.  :meth:`mark` takes a sample; the time between two marks is
    an interval, and what happened in it is stated on a host of nominal
    speed by multiplying with ``REFERENCE_NOMINAL_MS`` / the mean of the
    two samples that bracket it.
    """

    def __init__(self) -> None:
        #: ``(perf_counter when the sample ended, the sample's ms)``
        self.marks: List[tuple] = []

    def mark(self) -> None:
        sample = reference_ms()
        self.marks.append((time.perf_counter(), sample))

    @property
    def interval(self) -> int:
        """Index of the interval the last mark opened."""
        return len(self.marks) - 1

    def scales(self) -> List[float]:
        """Per interval, the factor from wall time to nominal time."""
        samples = [ms for _end, ms in self.marks]
        return [
            2.0 * REFERENCE_NOMINAL_MS / (before + after)
            for before, after in zip(samples, samples[1:])
        ]

    def nominal_seconds(self, first: int = 0, last: Optional[int] = None) -> float:
        """Mark ``first`` to mark ``last`` (default: all of them), every
        interval between at nominal speed."""
        stop = len(self.marks) if last is None else last + 1
        ends = [end for end, _ms in self.marks[first:stop]]
        return sum(
            (after - before) * scale
            for before, after, scale in zip(ends, ends[1:], self.scales()[first:])
        )

    def median_sample_ms(self) -> float:
        return statistics.median(ms for _end, ms in self.marks)


class SpanLog:
    """In-memory span recorder: ``[name, start, end, parent, request_id]``.

    ``parent`` is the index of the enclosing span on the same thread (or
    ``None``); spans of one request share ``request_id``.  Recording is a
    list append and two clock reads, so the log can stay on for a whole
    traced run and be written out once at the end.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, request_id: int) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, 0.0, 0.0, stack[-1] if stack else None, request_id]
        with self._lock:  # append + index read must not interleave
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time in seconds: duration minus the children's.

    Children of one span run one after another inside it, so the sum of
    their durations is the part of the interval they cover.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent is not None:
            own[parent] -= span[2] - span[1]
    return own


def layer_self_ms(
    spans: Sequence[Sequence], class_of_request: Mapping[int, str]
) -> Dict[str, Dict[str, List[float]]]:
    """``layer -> class -> [self ms per request]`` from a span list.

    Several spans of one name inside one request add up (a request may
    enter a layer more than once).
    """
    own = self_times(spans)
    per_request: Dict[tuple, float] = {}
    for span, self_s in zip(spans, own):
        key = (span[0], span[4])
        per_request[key] = per_request.get(key, 0.0) + self_s * 1e3
    table: Dict[str, Dict[str, List[float]]] = {}
    for (name, request_id), ms in per_request.items():
        cls = class_of_request[request_id]
        table.setdefault(name, {}).setdefault(cls, []).append(ms)
    return table


def host_ceiling(plane_bytes: int, repetitions: int = 3) -> Dict[str, object]:
    """Measured copy and triad bandwidth at the workload's plane size.

    ``memcpy`` moves 2 x plane bytes (read + write); the triad
    ``a = b + s*c`` is credited the STREAM convention's 3 x (two reads,
    one write) although NumPy makes two passes over ``a``, so the figure
    understates what the memory system did.  The arrays are the size of one
    image plane of the workload, not a multiple of the last-level cache:
    it is the ceiling *at plane size* — on a host whose LLC holds the
    planes it is a cache figure, and the detected cache sizes are
    reported beside it so the reader can tell.
    """
    from repro.model.hardware import detect_cpu_caches

    count = max(1, plane_bytes // 8)
    b = np.full(count, 1.5)
    c = np.full(count, 2.5)
    a = np.empty(count)
    # Enough inner iterations that one repetition lasts ~10 ms even for a
    # 48 KiB plane; a single pass over a tiny array times the clock.
    inner = max(1, int(64e6 // max(1, plane_bytes)))

    def pass_s(fn) -> float:
        times = []
        for _ in range(repetitions):
            started = time.perf_counter()
            for _ in range(inner):
                fn()
            times.append((time.perf_counter() - started) / inner)
        return statistics.median(times)

    copy_s = pass_s(lambda: np.copyto(a, b))
    triad_s = pass_s(lambda: np.add(b, np.multiply(c, 3.0, out=a), out=a))
    caches = detect_cpu_caches()
    return {
        "plane_bytes": count * 8,
        "repetitions": repetitions,
        "memcpy_gbs": 2 * count * 8 / copy_s / 1e9,
        "triad_gbs": 3 * count * 8 / triad_s / 1e9,
        "caches": caches.describe(),
        "llc_bytes": caches.l3_bytes or caches.l2_bytes,
    }



def host_jiffies() -> tuple:
    """``(stolen, total)`` CPU jiffies of the host since boot, from the
    first line of ``/proc/stat``.  The stolen share of an interval is the
    time the hypervisor ran someone else on this VM's CPUs: on a shared
    host it is the sign that a run was disturbed from outside."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except OSError:
        return 0, 1
    return fields[7], sum(fields)
