"""The compiled-plan cache and the one function that fills it.

The whole point of the paper's compile-time analysis is that its result
is **reusable** — the fused partition and the compiled instruction
tapes depend only on the pipeline's structure, the input
geometry/dtype, the execution engine, the fusion configuration and the
native lowering knobs.  :func:`plan_key` lists exactly those inputs,
:func:`build_plan` is the one place the sequence fuse → tape plan →
native compile → sanitize → verify is written, and :class:`PlanCache`
holds the resulting :class:`CachedPlan` under LRU eviction.  Both doors
use all three: :func:`repro.api.run` on the process-wide
:data:`PROCESS_CACHE`, each :class:`~repro.serve.runtime.ServingRuntime`
on a cache of its own.  Two *separately built* but structurally
identical pipelines hash to the same entry (see
:mod:`repro.ir.signature`); changing a mask constant, an image shape,
or any fusion knob misses.

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
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.backend import engines, native_exec
from repro.backend.numpy_exec import ExecutionError
from repro.backend.plan import PartitionPlan, plan_for_partition
from repro.envknobs import validate_mode
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition
from repro.model.benefit import BenefitConfig
from repro.model.hardware import KNOWN_GPUS, GpuSpec

__all__ = [
    "CACHE_KEYINGS",
    "CachedPlan",
    "FusionSettings",
    "PROCESS_CACHE",
    "PlanCache",
    "build_plan",
    "inputs_signature",
    "inputs_structure",
    "plan_key",
    "validate_plan",
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
        # Every field, in declaration order (``astuple`` deep-copies,
        # and this sits on the per-request path).
        return tuple(vars(self).values())

    @property
    def benefit_config(self) -> BenefitConfig:
        return BenefitConfig(
            c_mshared=self.c_mshared,
            epsilon=self.epsilon,
            gamma=self.gamma,
            is_units=self.is_units,
        )

    @property
    def gpu(self) -> GpuSpec:
        return KNOWN_GPUS[self.gpu_name]


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
    partition: Partition | None = None,
) -> tuple:
    """The full cache key of one (pipeline, request, config): every
    input of :func:`build_plan`.

    ``keying="shape"`` (the default) keys on exact input shapes;
    ``keying="structure"`` elides them, so every resolution of one
    pipeline structure maps to the same entry.  An explicit
    ``partition`` replaces the fusion configuration — its block
    structure is the plan identity, only ``naive_borders`` still
    matters.  The native lowering knobs ride along on every key
    (:func:`repro.backend.native_exec.lowering_knobs`): a key is
    computed before the engine that will serve it is known to build.
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
    decision = (
        fusion.key()
        if partition is None
        else ("explicit", partition.signature(), fusion.naive_borders)
    )
    return (
        graph_signature,
        signature,
        engine,
        decision,
        native_exec.lowering_knobs(),
    )


def _structure_of(key: tuple, structure_key: Optional[str]) -> tuple:
    """The shape-agnostic projection of a cache key.

    Used to split miss accounting: a missing key whose projection was
    seen before is a *shape* miss (same pipeline structure, new
    geometry) — exactly the misses structure keying eliminates.  The
    input triples drop their shape element; ``structure_key`` (the
    graph's :meth:`~repro.graph.dag.KernelGraph.structure_signature`)
    replaces the graph half when the caller provides it — a shape-keyed
    key's own graph signature bakes in the geometry, so it cannot
    identify the structure by itself.  Keys that are not a
    :func:`plan_key` tuple (the cache accepts arbitrary hashable keys)
    project to themselves: each distinct key is its own structure, so
    every miss on them is a structure miss.
    """
    if not (isinstance(key, tuple) and len(key) == 5):
        return (structure_key,) if structure_key is not None else (key,)
    graph_signature, signature = key[:2]
    shapeless = tuple(
        (entry[0], entry[-1]) if len(entry) == 3 else entry
        for entry in signature
    )
    return (structure_key or graph_signature, shapeless) + key[2:]


@dataclass
class CachedPlan:
    """One cache entry: the fused partition plus its compiled plan.

    ``plan`` is ``None`` only for ``engine="recursive"`` entries — the
    bottom rung of the degradation ladder deliberately skips tape
    compilation (its failure domain must not include the tape
    compiler) and executes the recursive walk from ``graph`` +
    ``partition`` instead.
    """

    #: The key this entry is cached under (set by :class:`PlanCache`).
    key: Any
    graph: KernelGraph
    partition: Partition
    plan: Optional[PartitionPlan]
    #: Per-stage build-time breakdown in milliseconds — ``fuse_ms``,
    #: ``plan_ms``, ``native_compile_ms`` and, under strict,
    #: ``native_verify_ms`` / ``verify_ms`` — the costs the cache
    #: amortizes across requests.
    timings_ms: Dict[str, float] = field(default_factory=dict)
    serves: int = 0
    #: Compiled-native execution plan
    #: (:class:`repro.backend.native_exec.NativePartitionPlan`) carried
    #: alongside the tape plan for ``engine="native"``; ``None``
    #: otherwise.  Because the native plan holds the loaded ``.so``
    #: artifact, a cache hit on this entry skips fusion, tape planning
    #: *and* the C compile.
    native_plan: Optional[native_exec.NativePartitionPlan] = None
    #: The execution engine this entry was built for (``tape`` /
    #: ``native`` / ``recursive``) — also the third key component.
    engine: str = "tape"
    #: What serves a request on this entry — ``native_plan``, else
    #: ``plan``, else the recursive engine's walk; all three share
    #: ``.execute(inputs, params, workers=...)``.
    executor: Optional[object] = None

    @property
    def verified(self) -> bool:
        """Whether the static plan verifier
        (:mod:`repro.analysis.verifier`) passed this entry's tape plan."""
        return self.plan is not None and self.plan.verified


#: Runs one named build stage: ``stage(name, fn)`` returns ``fn()``.
Stage = Callable[[str, Callable[[], Any]], Any]


def call_stage(name: str, fn: Callable[[], Any]) -> Any:
    """The direct door's stage runner: a plain call, so callers see the
    original exception types."""
    return fn()


def build_plan(
    graph: KernelGraph,
    *,
    partition: Partition | None = None,
    fusion: FusionSettings,
    engine: str,
    polymorphic: bool = False,
    stage: Stage = call_stage,
) -> CachedPlan:
    """Build what one request executes — the only place in ``src/``
    that runs fuse → tape plan → native compile → sanitize → verify.

    ``partition=None`` fuses under ``fusion``; an explicit partition is
    served as given (``fusion`` then only contributes
    ``naive_borders``).  ``engine`` is a name from the engine table:
    ``recursive`` deliberately skips tape compilation — its failure
    domain must not include the tape compiler — and ``native`` compiles
    on top of the tape plan (``polymorphic`` selects runtime-geometry
    kernels, which a structure-keyed entry needs).  Everything the two
    doors differ in is ``stage(name, fn)``, called once per stage that
    runs with ``name`` in ``fuse`` / ``plan`` / ``compile`` /
    ``sanitize`` / ``verify``: latency budgets, fault sites and
    :class:`~repro.serve.errors.PlanBuildError` wrapping for serving, a
    plain call for direct execution.
    """
    timings: Dict[str, float] = {}
    naive_borders = fusion.naive_borders

    def timed(name: str, label: str, fn: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        result = stage(name, fn)
        timings[label] = (time.perf_counter() - started) * 1e3
        return result

    if partition is None:

        def fuse() -> Partition:
            # Imported here: repro.eval.runner imports repro.api, which
            # imports this module.
            from repro.eval.runner import partition_for

            return partition_for(
                graph, fusion.gpu, fusion.version, fusion.benefit_config
            )

        partition = timed("fuse", "fuse_ms", fuse)
    plan = native_plan = None
    if engine != "recursive":
        plan = timed(
            "plan",
            "plan_ms",
            lambda: plan_for_partition(graph, partition, naive_borders),
        )
    if engine == "native":

        def compile_native() -> native_exec.NativePartitionPlan:
            built = native_exec.native_plan_for_partition(
                graph, partition, naive_borders, polymorphic=polymorphic
            )
            if polymorphic and built.fallback_block_count:
                # A structure-keyed entry serves every geometry through
                # its polymorphic native blocks; a tape-fallback block
                # is shape-specialized and would poison foreign-
                # geometry requests.  Refuse the build — the resilience
                # ladder serves the request through a shape-keyed tape
                # plan instead.
                raise ExecutionError(
                    "structure-keyed caching needs a fully native plan; "
                    f"fallback blocks: {built.fallback_reasons}"
                )
            return built

        native_plan = timed("compile", "native_compile_ms", compile_native)
    executor = native_plan if native_plan is not None else plan
    if executor is None:
        # No build stage above: the engine's plan is the walk itself.
        executor = engines.ladder_from(engine)[0].plan_partition(
            graph, partition, naive_borders
        )
    entry = CachedPlan(
        key=None,
        graph=graph,
        partition=partition,
        plan=plan,
        timings_ms=timings,
        native_plan=native_plan,
        engine=engine,
        executor=executor,
    )
    validate_plan(entry, stage)
    return entry


def validate_plan(entry: CachedPlan, stage: Stage = call_stage) -> None:
    """Strict mode's one rule, at both doors: a plan is sanitized
    (native loop nests) and verified (tapes) before its first use, once.

    Runs only what is not yet marked on the plans themselves, so the
    builders' own strict checks on a miss are not repeated, and a plan
    built earlier under a weaker validation mode is caught up here —
    :func:`build_plan` calls this on a miss, the doors on a hit.
    """
    if validate_mode() != "strict":
        return
    native_plan, plan = entry.native_plan, entry.plan
    if native_plan is not None:
        if not native_plan.sanitized:
            stage("sanitize", native_plan.ensure_sanitized)
        entry.timings_ms["native_verify_ms"] = native_plan.verify_ms
    if plan is not None:
        if not plan.verified:
            stage("verify", plan.ensure_verified)
        entry.timings_ms["verify_ms"] = plan.verify_ms


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
            entry.key = key
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
                "hit_rate": self.hit_rate,
            }


#: The process-wide cache behind :func:`repro.api.run`.  It sits on top
#: of the per-graph tape and native plan caches, whose resets
#: (:func:`repro.backend.plan.clear_plan_caches`,
#: :func:`repro.backend.native_exec.clear_native_caches`) empty it too.
PROCESS_CACHE = PlanCache()
