"""The compiled-plan cache: fuse once, plan once, serve forever.

Every entry point of the reproduction used to re-fuse and re-plan per
call; the whole point of the paper's compile-time analysis is that the
result is **reusable** — the fused partition and the compiled
instruction tapes depend only on the pipeline's structure, the input
geometry/dtype, the execution engine, and the fusion configuration.
:class:`PlanCache` materializes exactly that key:

    (graph structural signature, input shapes/dtypes, engine,
     fusion configuration)

and holds the fused :class:`~repro.graph.partition.Partition` together
with the compiled :class:`~repro.backend.plan.PartitionPlan` — plus,
for ``engine="native"``, the loaded native-kernel plan whose ``.so``
artifact makes a hit skip the C compile too — under LRU eviction.  Two *separately built* but structurally identical pipelines
hash to the same entry (see :mod:`repro.ir.signature`); changing a mask
constant, an image shape, or any fusion knob misses.

Concurrent requests for the same missing key are **coalesced**: one
thread compiles, the rest wait on the in-flight build and share its
result — a cold cache under a request storm still compiles each plan
exactly once.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.backend.plan import PartitionPlan
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition

__all__ = [
    "CACHE_KEYINGS",
    "CachedPlan",
    "FusionSettings",
    "PlanCache",
    "inputs_signature",
    "inputs_structure",
    "plan_key",
]

#: The two plan-cache keying modes: ``"shape"`` keys on exact input
#: shapes + dtypes (every entry is shape-specialized), ``"structure"``
#: keys on dtypes only — shapes are passed at call time to a
#: shape-polymorphic native plan, so mixed-resolution traffic over one
#: pipeline structure shares a single entry.
CACHE_KEYINGS = ("shape", "structure")


@dataclass(frozen=True)
class FusionSettings:
    """The fusion half of a plan-cache key.

    ``version`` selects the fusion engine (``baseline`` / ``basic`` /
    ``optimized`` / ...), ``gpu`` the hardware model feeding the benefit
    estimate, and the three floats are the :class:`~repro.model.benefit.
    BenefitConfig` constants.  Together they determine the partition a
    graph fuses into, so they are part of plan identity.
    """

    version: str = "optimized"
    gpu_name: str = "GTX680"
    c_mshared: float = 2.0
    epsilon: float = 1e-3
    gamma: float = 0.0
    is_units: str = "images"
    naive_borders: bool = False

    def key(self) -> tuple:
        return (
            self.version,
            self.gpu_name,
            self.c_mshared,
            self.epsilon,
            self.gamma,
            self.is_units,
            self.naive_borders,
        )


def inputs_signature(inputs: Dict[str, np.ndarray]) -> tuple:
    """Canonical (name, shape, dtype) triples of a request's arrays."""
    return tuple(
        (name, tuple(np.shape(inputs[name])), np.asarray(inputs[name]).dtype.str)
        for name in sorted(inputs)
    )


def inputs_structure(inputs: Dict[str, np.ndarray]) -> tuple:
    """Shape-agnostic (name, dtype) pairs — the structure-keyed flavour
    of :func:`inputs_signature` (shapes are carried by the request and
    bound at call time by the shape-polymorphic plan)."""
    return tuple(
        (name, np.asarray(inputs[name]).dtype.str)
        for name in sorted(inputs)
    )


def plan_key(
    graph_signature: str,
    inputs: Dict[str, np.ndarray],
    engine: str,
    fusion: FusionSettings,
    keying: str = "shape",
) -> tuple:
    """The full cache key of one (pipeline, request, config).

    ``keying="shape"`` (the default) keys on exact input shapes;
    ``keying="structure"`` elides them, so every resolution of one
    pipeline structure maps to the same entry.
    """
    if keying not in CACHE_KEYINGS:
        raise ValueError(
            f"unknown cache keying {keying!r}; expected one of "
            f"{CACHE_KEYINGS}"
        )
    signature = (
        inputs_structure(inputs)
        if keying == "structure"
        else inputs_signature(inputs)
    )
    return (graph_signature, signature, engine, fusion.key())


def _structure_of(key: tuple, structure_key: Optional[str]) -> tuple:
    """The shape-agnostic projection of a cache key.

    Used to split miss accounting: a missing key whose projection was
    seen before is a *shape* miss (same pipeline structure, new
    geometry) — exactly the misses structure keying eliminates.  The
    input triples drop their shape element; ``structure_key`` (the
    graph's :meth:`~repro.graph.dag.KernelGraph.structure_signature`)
    replaces the graph half when the caller provides it — a shape-keyed
    key's own graph signature bakes in the geometry, so it cannot
    identify the structure by itself.  Keys that are not the
    :func:`plan_key` 4-tuple (the cache accepts arbitrary hashable
    keys) project to themselves: each distinct key is its own
    structure, so every miss on them is a structure miss.
    """
    if not (isinstance(key, tuple) and len(key) == 4):
        return (structure_key,) if structure_key is not None else (key,)
    graph_signature, signature, engine, fusion = key
    shapeless = tuple(
        (entry[0], entry[-1]) if len(entry) == 3 else entry
        for entry in signature
    )
    return (structure_key or graph_signature, shapeless, engine, fusion)


@dataclass
class CachedPlan:
    """One cache entry: the fused partition plus its compiled plan.

    ``plan`` is ``None`` only for ``engine="recursive"`` entries — the
    bottom rung of the degradation ladder deliberately skips tape
    compilation (its failure domain must not include the tape
    compiler) and executes the recursive walk from ``graph`` +
    ``partition`` instead.
    """

    key: tuple
    graph: KernelGraph
    partition: Partition
    plan: Optional[PartitionPlan]
    #: Per-stage compile-time breakdown in milliseconds:
    #: ``fuse`` (benefit estimate + partitioning) and ``plan`` (tape
    #: compilation), the costs the cache amortizes across requests.
    timings_ms: Dict[str, float] = field(default_factory=dict)
    created_at: float = field(default_factory=time.time)
    serves: int = 0
    #: True when the static plan verifier (:mod:`repro.analysis.verifier`)
    #: checked this entry at insert time (``REPRO_VALIDATE=strict``).
    verified: bool = False
    #: Compiled-native execution plan
    #: (:class:`repro.backend.native_exec.NativePartitionPlan`) carried
    #: alongside the tape plan when the runtime serves
    #: ``engine="native"``; ``None`` otherwise.  Because the native
    #: plan holds the loaded ``.so`` artifact, a cache hit on this
    #: entry skips fusion, tape planning *and* the C compile.
    native_plan: Optional[object] = None
    #: The execution engine this entry was built for (``tape`` /
    #: ``native`` / ``recursive``) — also the third key component.
    engine: str = "tape"
    #: What serves a request on this entry — ``native_plan``, else
    #: ``plan``, else the recursive engine's walk; all three share
    #: ``.execute(inputs, params, workers=...)``.
    executor: Optional[object] = None


class _InFlight:
    """A build in progress; waiters block on ``event``."""

    def __init__(self) -> None:
        self.event = threading.Event()
        self.entry: Optional[CachedPlan] = None
        self.error: Optional[BaseException] = None


class PlanCache:
    """LRU cache of :class:`CachedPlan` entries with hit/miss stats."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, CachedPlan]" = OrderedDict()
        self._building: Dict[tuple, _InFlight] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: Misses split by cause: ``miss_structure`` counts first
        #: sightings of a (pipeline structure, dtypes, engine, fusion)
        #: combination — unavoidable compiles — while ``miss_shape``
        #: counts misses whose structure was already seen (a new
        #: geometry of a known pipeline, or an evicted/quarantined
        #: entry).  Structure-keyed caching turns shape misses into
        #: hits; the split makes that gain directly observable.
        self.miss_structure = 0
        self.miss_shape = 0
        self._seen_structures: set = set()
        self.coalesced = 0
        self.evictions = 0
        self.quarantined = 0

    def _note_miss(self, key: tuple, structure_key: Optional[str]) -> None:
        """Classify one miss (lock held)."""
        self.misses += 1
        structure = _structure_of(key, structure_key)
        if structure in self._seen_structures:
            self.miss_shape += 1
        else:
            self.miss_structure += 1
            self._seen_structures.add(structure)

    def get(
        self, key: tuple, structure_key: Optional[str] = None
    ) -> Optional[CachedPlan]:
        """The cached entry for ``key``, or ``None`` (counts a hit/miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._note_miss(key, structure_key)
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            entry.serves += 1
            return entry

    def get_or_build(
        self,
        key: tuple,
        builder: Callable[[], CachedPlan],
        structure_key: Optional[str] = None,
    ) -> Tuple[CachedPlan, bool]:
        """The entry for ``key``, building it at most once per process.

        Returns ``(entry, hit)`` where ``hit`` is False only for the
        thread that actually ran ``builder``.  Threads that arrive while
        a build is in flight wait for it and count as ``coalesced``
        hits — they paid latency, but no compile.  ``structure_key``
        (when given) feeds the miss_structure/miss_shape split.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    entry.serves += 1
                    return entry, True
                pending = self._building.get(key)
                if pending is None:
                    pending = _InFlight()
                    self._building[key] = pending
                    self._note_miss(key, structure_key)
                    building = True
                else:
                    building = False
            if not building:
                pending.event.wait()
                if pending.error is not None:
                    raise pending.error
                if pending.entry is not None:
                    with self._lock:
                        self.hits += 1
                        self.coalesced += 1
                        pending.entry.serves += 1
                    return pending.entry, True
                continue  # builder failed silently? retry from scratch
            try:
                entry = builder()
            except BaseException as err:
                with self._lock:
                    self._building.pop(key, None)
                pending.error = err
                pending.event.set()
                raise
            entry.serves += 1
            with self._lock:
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                self._building.pop(key, None)
            pending.entry = entry
            pending.event.set()
            return entry, False

    def quarantine(self, key: tuple) -> bool:
        """Evict a plan that failed at verify or execute time.

        A poisoned or miscompiled entry must never be served again: the
        resilience layer calls this before rebuilding, so the next
        lookup misses and recompiles from scratch.  Returns whether an
        entry was actually present (idempotent under racing callers).
        """
        with self._lock:
            removed = self._entries.pop(key, None)
            if removed is not None:
                self.quarantined += 1
            return removed is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits (including coalesced waits) over all lookups."""
        total = self.hits + self.misses
        return (self.hits / total) if total else 0.0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "miss_structure": self.miss_structure,
                "miss_shape": self.miss_shape,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "hit_rate": (
                    self.hits / (self.hits + self.misses)
                    if (self.hits + self.misses)
                    else 0.0
                ),
            }
