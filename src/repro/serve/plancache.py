"""The compiled-plan cache and the one function that fills it.

The whole point of the paper's compile-time analysis is that its result
is **reusable** — the fused partition and the compiled instruction
tapes depend only on the pipeline's structure, the input
geometry/dtype, the execution engine, the fusion configuration
(:class:`FusionSettings`) and the native lowering triple.  :func:`plan_key`
lists exactly those inputs,
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

What a build decided and proved **outlives the process**: beside the
``.so`` in the compile cache directory, :func:`build_plan` keeps one
small JSON *plan record* per key (:class:`_PlanRecord`) — the
partition, strict mode's three verdicts (plan verifier, native
sanitizer, first-run differential), each bound to the digest it was
proved on, and how to call the library.  The verifier's verdict is
bound to the *tape identity* — the key, the graph's structural
signature, the partition and ``naive_borders`` — which names the tape
without compiling it: a tape is a function of those and of the code,
and the code is in the record's name.  The tapes' own digest rides
along, and tapes a build does compile are held to it.  A miss after a
restart whose identity, toolchain and library bytes check out
therefore runs no min-cut, no proof, no C lowering and no tape
compile: the sanitized library is bound from the manifest and the
schedule (:attr:`CachedPlan.restored`), and a tape compiles only when
something needs it — a runtime fallback, a differential the record
does not hold, a ladder step.  "Verified and sanitized before first use, once"
therefore means once per *artifact*, not once per process; anything
about the record that does not check out
(:attr:`CachedPlan.record_rejected`) costs exactly the work it would
have saved, and ``cpu_exec.clear_compile_cache()`` or a fresh
``REPRO_CC_CACHE`` forces every proof to be made again.

A plan that is best to compile first is not the one that is best to run
for long, so a hot native entry **re-fuses** (:meth:`CachedPlan.execute`):
once the wall time of its executes reaches its compile price — the
wall time of the native build that ran ``cc``, kept in the plan
record — the one background builder (:func:`hot_builder`) rebuilds it
through :func:`build_plan` on the maximal legal partition
(:func:`repro.fusion.distribution.maximal_partition`), the next
:data:`PROMOTION_TRIALS` live requests run both plans, and the hot plan
is published only if its outputs are bit-identical and its median
execute is faster.

A plan that is best to run is not always best to wait for, so a cold
**direct** native miss may be answered on the tape
(:func:`native_strategy`): when ``cc`` would run and the tape is
predicted to answer first, the entry serves its tape plan while the
tier builder (:func:`tier_builder`) compiles the native plan in the
request's cache directory and publishes it into the entry
(:meth:`PlanCache.build_native`).  Serving builds block.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.backend import cpu_exec, engines, native_exec
from repro.backend.numpy_exec import ExecutionError
from repro.backend.plan import PartitionPlan, forget_plans, plan_for_partition
from repro.envknobs import NativeLowering, native_lowering, validate_mode
from repro.fusion import VERSIONS, partition_for
from repro.fusion.distribution import maximal_partition
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.ir.signature import canonical_digest
from repro.model.benefit import BenefitConfig
from repro.model.hardware import KNOWN_GPUS, GpuSpec

__all__ = [
    "CachedPlan",
    "FusionSettings",
    "PROCESS_CACHE",
    "PROMOTION_TRIALS",
    "PlanCache",
    "RECORD_FORMAT",
    "build_plan",
    "code_fingerprint",
    "hot_builder",
    "inputs_signature",
    "native_strategy",
    "plan_key",
    "tier_builder",
    "validate_plan",
]

@dataclass(frozen=True)
class FusionSettings:
    """The fusion decision, spelled once — what both doors take
    (``ExecutionOptions(fusion=...)``, ``ServingRuntime(fusion=...)``)
    and the fusion half of a plan-cache key.

    ``version`` selects the fusion engine (``baseline`` / ``basic`` /
    ``optimized`` / ...), ``gpu_name`` the known GPU model
    (:data:`~repro.model.hardware.KNOWN_GPUS`) feeding the benefit
    estimate, ``benefit`` the benefit-model constants, and
    ``naive_borders`` reproduces the border-incorrect single-stage
    composition (Fig. 4b).  Together they determine the partition a
    graph fuses into and its tapes, so they are part of plan identity.
    An unknown version or GPU name raises :class:`ExecutionError` naming
    the known ones, here rather than in a build.
    """

    version: str = "optimized"
    gpu_name: str = "GTX680"
    benefit: BenefitConfig = BenefitConfig()
    naive_borders: bool = False

    def __post_init__(self) -> None:
        for what, name, known in (
            ("fusion version", self.version, VERSIONS),
            ("GPU", self.gpu_name, KNOWN_GPUS),
        ):
            if name not in known:
                raise ExecutionError(
                    f"unknown {what} {name!r}; known: {', '.join(sorted(known))}"
                )

    def key(self) -> tuple:
        # Plain values only: the key is hashed on every request and
        # digested into the plan record's tape identity.
        return (
            self.version,
            self.gpu_name,
            tuple(vars(self.benefit).values()),
            self.naive_borders,
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


def plan_key(
    graph_signature: str,
    inputs: Dict[str, np.ndarray],
    engine: str,
    fusion: FusionSettings,
    partition: Partition | None = None,
    lowering: NativeLowering | None = None,
) -> tuple:
    """The full cache key of one (pipeline, request, config): every
    input of :func:`build_plan`, exact input shapes included: a native
    plan is compiled at one geometry.  An explicit ``partition``
    replaces the fusion configuration — its block structure is the plan
    identity, only ``naive_borders`` still matters.  ``lowering`` is the
    native lowering triple ``(tile2d, f32, cflags)`` the request resolved
    at its door (default: :func:`repro.envknobs.native_lowering`, read
    now); it rides on every key, because a key is computed before the
    engine that will serve it is known to build, and :func:`build_plan`
    lowers with the key's value.
    """
    decision = (
        fusion.key()
        if partition is None
        else ("explicit", partition.signature(), fusion.naive_borders)
    )
    return (
        graph_signature,
        inputs_signature(inputs),
        engine,
        decision,
        native_lowering() if lowering is None else lowering,
    )


def _structure_of(key: tuple, structure_key: Optional[str]) -> tuple:
    """The shape-agnostic projection of a cache key.

    Used to split miss accounting: a missing key whose projection was
    seen before is a *shape* miss (a known pipeline at a new geometry,
    which compiles a plan of its own).  The input triples drop their
    shape element; ``structure_key`` (the graph's
    :meth:`~repro.graph.dag.KernelGraph.structure_signature`) replaces
    the graph half when the caller provides it — a key's own graph
    signature bakes in the geometry, so it cannot identify the
    structure by itself.  Keys that are not a
    :func:`plan_key` tuple (the cache accepts arbitrary hashable keys)
    project to themselves: each distinct key is its own structure, so
    every miss on them is a structure miss.
    """
    if not (isinstance(key, tuple) and len(key) == 5):
        return (structure_key,) if structure_key is not None else (key,)
    graph_signature, signature = key[:2]
    shapeless = tuple((name, dtype) for name, _shape, dtype in signature)
    return (structure_key or graph_signature, shapeless) + key[2:]


#: How many live requests run both plans before a hot plan is published.
PROMOTION_TRIALS = 3


@dataclass(eq=False)
class CachedPlan:
    """One cache entry: the fused partition plus its compiled plan.

    ``plan`` is ``None`` only for ``engine="recursive"`` entries — the
    bottom rung of the degradation ladder deliberately skips tape
    compilation (its failure domain must not include the tape
    compiler) and executes the recursive walk from ``graph`` +
    ``partition`` instead.

    Both doors run a request through :meth:`execute`, which also does
    the tier-up accounting of a native entry whose partition the fusion
    model chose: its :attr:`tier` goes ``cold`` → ``building`` (its
    executes have paid :attr:`price_ms`; the maximal partition is
    building, then on trial) → ``hot`` (published), ``kept_cold``
    (unequal, or the build failed) or ``same`` (the maximal partition
    is the cold one).  A hot plan measured slower sends the entry back
    to ``cold`` at twice the price, to be tried again.

    A native entry the direct door answered on the tape
    (:func:`native_strategy` said ``"tiered"``) serves its tape
    :attr:`plan` until the background build publishes the native plan
    (:meth:`publish_native`); until then :attr:`native_plan` and
    :attr:`price_ms` are ``None``.
    """

    #: The key this entry is cached under (set by :class:`PlanCache`).
    key: Any
    graph: KernelGraph
    partition: Partition
    plan: Optional[PartitionPlan]
    #: Per-stage build-time breakdown in milliseconds — ``fuse_ms``,
    #: ``plan_ms``, ``native_compile_ms``, ``record_ms`` (the plan
    #: record: read + digests + write) and, under strict,
    #: ``native_verify_ms`` / ``verify_ms`` — the costs the cache
    #: amortizes across requests.  A stage the plan record supplied
    #: reads 0.0.  A native entry adds ``native_ready_ms``: from its miss
    #: until the native plan serves it (the build's end, or the
    #: background publish of a tiered entry).
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
    #: ``.execute(inputs, params, workers=...)``.  Publishing a hot
    #: plan is the one assignment to it after the build.
    executor: Optional[object] = None
    #: The persisted plan record of :attr:`key` (``None`` for an entry
    #: built without a key).
    record: Optional["_PlanRecord"] = field(default=None, repr=False)
    #: The fusion settings whose model chose :attr:`partition`; ``None``
    #: when the caller gave it (``partition=``, ``fuse=False``).  A
    #: model-fused request returns its inputs and the graph's external
    #: outputs only, whichever plan served it.
    fusion: Optional[FusionSettings] = None
    #: What the executes must add up to before the entry re-fuses: the
    #: ``native_compile_ms`` of the build that ran ``cc`` (this one, or
    #: the one the plan record names); ``None`` where it never re-fuses.
    price_ms: Optional[float] = None
    #: ``cold`` / ``building`` / ``hot`` / ``kept_cold`` / ``same``.
    tier: str = "cold"
    #: Wall-clock ms of this entry's cold executes.
    executed_ms: float = 0.0
    #: The maximal-partition build while on trial, and once published.
    hot: Optional["CachedPlan"] = field(default=None, repr=False)
    #: The cache holding this entry: it counts the tier-up events and
    #: owns the entry's hot build.
    cache: Optional["PlanCache"] = field(default=None, repr=False)
    #: The C a tiered entry's background build compiles (lowered once,
    #: at the miss); ``None`` otherwise, and once that build is queued.
    deferred: Optional[native_exec.LoweredPartition] = field(
        default=None, repr=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _live: bool = field(default=True, repr=False)
    _claimed: int = field(default=0, repr=False)
    _trials: List[Tuple[bool, float, float]] = field(
        default_factory=list, repr=False
    )

    @property
    def restored(self) -> Tuple[str, ...]:
        """What the plan record supplied to this build — a subset of
        ``("partition", "verified", "sanitized", "differential",
        "library")``, empty on a full build."""
        return tuple(self.record.restored) if self.record else ()

    @property
    def record_rejected(self) -> Optional[str]:
        """Why (part of) the plan record found was not used:
        ``"unreadable"``, ``"fingerprint"``, ``"partition"``, ``"tape
        digest"``, ``"toolchain"``, ``"source digest"``, ``"library
        bytes"`` or ``"bindings"`` — ``None`` when there was none or all
        of it applied."""
        return self.record.rejected if self.record else None

    @property
    def verified(self) -> bool:
        """Whether the static plan verifier
        (:mod:`repro.analysis.verifier`) passed this entry's tape plan."""
        return self.plan is not None and self.plan.verified

    def execute(
        self,
        inputs: Dict[str, np.ndarray],
        params: Optional[Dict[str, Any]] = None,
        workers: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Serve one request on this entry — both doors' only call.

        Reads :attr:`executor` once, so a request runs on one complete
        plan however a publish races it.  A cold entry adds the wall
        time to :attr:`executed_ms` and, once that reaches
        :attr:`price_ms`, hands the re-fuse to :func:`hot_builder`; the
        next :data:`PROMOTION_TRIALS` requests after the build run both
        plans on their own inputs and return the cold result.
        """
        executor = self.executor
        hot = self.hot
        if hot is not None and self.tier == "building" and self._claim():
            env = self._trial(executor, hot, inputs, params, workers)
        else:
            started = time.perf_counter()
            env = executor.execute(inputs, params, workers)
            if hot is not None and executor is hot.executor:
                self.cache.note("served_hot")
            elif self.price_ms is not None and self.tier == "cold":
                self._account((time.perf_counter() - started) * 1e3)
            elif self.engine == "native" and executor is self.plan:
                native_exec.COSTS.observe_tape(
                    executor, (time.perf_counter() - started) * 1e3
                )
        if self.fusion is None:
            return env
        keep = self.graph.external_outputs
        return {
            name: array
            for name, array in env.items()
            if name in keep or name in inputs
        }

    def _account(self, ms: float) -> None:
        """Add one cold execute; the one that pays the price enqueues
        the re-fuse."""
        with self._lock:
            self.executed_ms += ms
            if (
                self.tier != "cold"
                or not self._live
                or self.cache is None
                or self.executed_ms < self.price_ms
            ):
                return
            self.tier = "building"
            if self.hot is not None:
                return  # a hot plan measured slower goes on trial again
        self.cache.build_hot(self)

    def build_hot(self) -> None:
        """The builder's job: the maximal partition through the same
        :func:`build_plan` (sanitized and verified as a cold plan is),
        put on trial unless the entry left its cache meanwhile."""
        if not self._live:
            return
        fusion = self.fusion
        try:
            partition = maximal_partition(self.graph, fusion.gpu, fusion.benefit)
            if partition.signature() == self.partition.signature():
                self.tier = "same"
                return
            hot = build_plan(
                self.graph,
                partition=partition,
                fusion=fusion,
                engine=self.engine,
                lowering=self.key[4],
            )
        except Exception:
            self.tier = "kept_cold"
            return
        with self._lock:
            live = self._live
            if live:
                self.hot = hot
        if not live:
            _forget_partition(self.graph, partition)

    def _claim(self) -> bool:
        """Take one of the :data:`PROMOTION_TRIALS` trial slots."""
        with self._lock:
            if self.tier != "building" or self._claimed >= PROMOTION_TRIALS:
                return False
            self._claimed += 1
            return True

    def _trial(self, cold, hot, inputs, params, workers):
        """Run both plans on one live request; the caller gets the cold
        result.  The hot plan runs first, on inputs the cold one has not
        just pulled into the caches, so a tie goes to the cold plan.  A
        hot plan that raises is unequal."""
        started = time.perf_counter()
        try:
            hot_env = hot.executor.execute(inputs, params, workers)
        except Exception:
            hot_env = None
        hot_ms = (time.perf_counter() - started) * 1e3
        started = time.perf_counter()
        try:
            env = cold.execute(inputs, params, workers)
        except BaseException:
            with self._lock:
                self._claimed -= 1  # the slot is retried
            raise
        cold_ms = (time.perf_counter() - started) * 1e3
        equal = hot_env is not None and all(
            np.array_equal(env[name], hot_env[name])
            for name in self.graph.external_outputs
        )
        self._settle(hot, (equal, cold_ms, hot_ms))
        return env

    def _settle(self, hot: "CachedPlan", trial: Tuple[bool, float, float]) -> None:
        """Book one trial; the last of a round publishes or decides
        against.

        Unequal bits are final.  Slower is not — on shared cores three
        trials can read a few per cent either way — so the entry goes
        back to ``cold`` with the hot plan kept and twice the price: it
        is tried again once its executes have paid that, and a plan that
        stays slower costs O(log n) trials over n requests.  Each round
        decides on the medians of every trial so far, so the evidence
        grows with the rounds instead of each round being a fresh coin."""
        with self._lock:
            if self.hot is not hot or not self._live:
                return
            self._trials.append(trial)
            if len(self._trials) % PROMOTION_TRIALS:
                return
            trials = self._trials
            self._claimed = 0
            if not all(equal for equal, _, _ in trials):
                verdict = "hot_unequal"
                self.tier, self.hot = "kept_cold", None
            elif statistics.median(t[2] for t in trials) >= statistics.median(
                t[1] for t in trials
            ):
                verdict = "hot_slower"
                self.tier, self.executed_ms = "cold", 0.0
                self.price_ms *= 2
            else:
                verdict = "hot_published"
                self.executor = hot.executor
                self.tier = "hot"
            if verdict != "hot_slower":
                self._trials = []
        self.cache.note(verdict)
        if verdict == "hot_unequal":
            _forget_partition(self.graph, hot.partition)

    def publish_native(self, built: "CachedPlan", missed_at: float) -> bool:
        """The tiered build's last step: from the next request on, this
        entry serves ``built``'s native plan — unless the entry left its
        cache (returns ``False``).  The plan, its record and its re-fuse
        price are in place before the one assignment to
        :attr:`executor` that publishes it; the differential strict owes
        runs on the first request it serves."""
        record = built.record
        with self._lock:
            if not self._live:
                return False
            self.native_plan = built.native_plan
            self.record = record
            if self.fusion is not None and not self.fusion.naive_borders:
                self.price_ms = record.compile_ms
            self.timings_ms["native_compile_ms"] = built.timings_ms[
                "native_compile_ms"
            ]
            self.timings_ms["native_ready_ms"] = (
                time.perf_counter() - missed_at
            ) * 1e3
            self.executor = built.native_plan
        _sync_record_on_differential(self)
        return True

    def retire(self) -> None:
        """The entry left its cache: it publishes and builds nothing
        from now on."""
        with self._lock:
            self._live = False


def _forget_partition(graph: KernelGraph, partition: Partition) -> None:
    """Drop the tape and native plans ``graph`` memoizes for
    ``partition`` (its grid store and other partitions stay)."""
    blocks = partition.signature()
    forget_plans(
        lambda memo: memo[0] in ("tape", "native") and memo[1] == blocks, graph
    )


#: The niceness of the builder thread, and so of every ``cc`` it forks
#: (a background build compiles on its own thread): a re-fuse is worth
#: having, not worth slowing the requests for.
BUILDER_NICE = 19

#: The background builders by thread name: one thread each, created on
#: first use, and again in a forked child (the parent's threads are not
#: there).
_builders: Dict[str, ThreadPoolExecutor] = {}
_builders_guard = threading.Lock()


def _builder(name: str, initializer: Callable[[], None]) -> ThreadPoolExecutor:
    with _builders_guard:
        pool = _builders.get(name)
        if pool is None:
            pool = _builders[name] = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=name, initializer=initializer
            )
        return pool


def hot_builder() -> ThreadPoolExecutor:
    """The one background thread per process that builds hot plans
    (:meth:`CachedPlan.build_hot`), one job at a time, at the lowest CPU
    priority (:data:`BUILDER_NICE`, on Linux).  At exit the running job
    finishes and the queued ones do nothing."""
    return _builder("repro-hot-builder", _lower_priority)


def tier_builder() -> ThreadPoolExecutor:
    """The one background thread per process that builds the native
    plans of tiered entries (:func:`native_strategy`), one job at a
    time, at the process's own priority: requests are waiting on the
    tape for it.  Never the hot builder, whose niceness every ``cc`` it
    starts would inherit.  Its jobs compile on the compile pool, as a
    request's build does: compiling in order on this thread instead
    left the requests one more core but priced and published every
    tiered plan later (EXPERIMENTS.md).  At exit the running job
    finishes and the queued ones do nothing."""
    return _builder("repro-tier-builder", _process_priority)


def _lower_priority() -> None:
    if sys.platform.startswith("linux"):  # per thread there
        with contextlib.suppress(OSError):
            os.setpriority(
                os.PRIO_PROCESS, threading.get_native_id(), BUILDER_NICE
            )


def _process_priority() -> None:
    # A thread starts at its creator's niceness; take the main thread's.
    if sys.platform.startswith("linux"):
        with contextlib.suppress(OSError):
            os.setpriority(
                os.PRIO_PROCESS,
                threading.get_native_id(),
                os.getpriority(os.PRIO_PROCESS, os.getpid()),
            )


def _after_fork_in_child() -> None:
    _builders.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _background(job: Callable[[], None]) -> None:
    """Run one builder job, in a copy of its request's context (the
    validation level and the cache directory resolved at the door).  A
    job that starts once the interpreter is exiting, or whose cache
    directory is gone, does nothing."""
    if not threading.main_thread().is_alive() or not cpu_exec._cache_dir().is_dir():
        return
    job()


def _hot_job(entry: CachedPlan) -> None:
    """The hot builder's job, as a
    :data:`~repro.backend.cpu_exec.BACKGROUND_BUILD`: it compiles on its
    own niced thread."""
    cpu_exec.BACKGROUND_BUILD.set(True)
    entry.build_hot()


#: The tiered builds queued or running, by (plan key, cache directory).
_tier_jobs: Dict[tuple, Future] = {}
_tier_guard = threading.Lock()


#: Layout version of a plan record's JSON; any other is ignored.
RECORD_FORMAT = 2


@lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """SHA-256 over the bytes of every ``.py`` of the installed
    ``repro`` package plus the NumPy version, the Python minor version
    and the machine type — everything a recorded verdict silently
    depends on besides the digests it is bound to.  Part of every
    record's file name, so an edited emitter, verifier or benefit model
    never meets an old verdict.  Computed once per process."""
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    digest.update(
        f"numpy {np.__version__} python {sys.version_info[0]}."
        f"{sys.version_info[1]} {platform.machine()}".encode()
    )
    return digest.hexdigest()


def tape_identity(
    key: tuple, graph: KernelGraph, partition: Partition, naive_borders: bool
) -> str:
    """The name of the tapes a build of ``key`` runs, computed without
    compiling them: the canonical digest of the key, the graph's
    structural signature (every kernel and image shape), the
    partition and ``naive_borders`` — what
    :meth:`PartitionPlan.tape_digest` is a function of, besides the code
    a plan record's name carries."""
    return canonical_digest(
        (key, graph.structural_signature(), partition.signature(), naive_borders)
    )


class _PlanRecord:
    """One key's persisted plan record, through the life of its entry.

    ``plan-<sha256(key, code fingerprint)[:24]>.json`` in the compile
    cache directory holds the partition, up to three verdicts, each
    bound to the digest it was proved on, and how to call the library::

        {"format": 2, "fingerprint": "<code_fingerprint()>",
         "partition": [["k1", "k2"], ["k3"]],
         "tape": "<tape_identity()>" | null,
         "tape_digest": "<PartitionPlan.tape_digest()>" | null,
         "library": "pipeline-<source digest>" | null,
         "library_sha256": "<sha256 of the .so bytes>" | null,
         "toolchain": "<native_exec.toolchain_digest(cflags)>" | null,
         "bindings": [<NativePartitionPlan.bindings() entry>, ...] | null,
         "compile_ms": <the native_compile_ms of the build that ran cc> | null,
         "verified": bool, "sanitized": bool, "differential": bool}

    :func:`build_plan` reads it once, applies a verdict (and the
    manifest) only where the digests this build has equal the recorded
    ones, and writes the file back when the entry holds more.  The
    cache directory and the toolchain digest are resolved once per
    record, that is once per build, the latter with the key's ``cflags``.
    """

    def __init__(self, key: tuple) -> None:
        fingerprint = code_fingerprint()
        name = hashlib.sha256(
            f"{key!r}\0{fingerprint}".encode()
        ).hexdigest()[:24]
        self.key = key
        self.name = f"plan-{name}.json"
        self.directory = cpu_exec._cache_dir()
        #: This build's tape identity (:meth:`identify`).
        self.tape: Optional[str] = None
        #: The accepted file content ({} when absent or rejected), and
        #: what this process knows the file to hold now.
        self.offered: Dict[str, Any] = {}
        self.saved: Optional[Dict[str, Any]] = None
        #: Why (part of) the file was not used — the first cause.
        self.rejected: Optional[str] = None
        self.restored: List[str] = []
        self.library_sha256: Optional[str] = None
        #: The re-fuse price (:attr:`CachedPlan.price_ms`) this record
        #: holds or will hold.
        self.compile_ms: Optional[float] = None
        self.writes = 0
        #: Called after each successful write (serving's counter).
        self.on_write: Optional[Callable[[], None]] = None
        self.ms = 0.0
        started = time.perf_counter()
        self._read(fingerprint)
        self.ms += (time.perf_counter() - started) * 1e3

    def _read(self, fingerprint: str) -> None:
        raw = cpu_exec.read_cache_bytes(self.name, self.directory)
        if raw is None:
            return  # no record: a full build, nothing rejected
        try:
            data = json.loads(raw)
            if not isinstance(data, dict):
                raise ValueError("not an object")
        except ValueError:
            self.rejected = "unreadable"
            return
        if (
            data.get("format") != RECORD_FORMAT
            or data.get("fingerprint") != fingerprint
        ):
            self.rejected = "fingerprint"
            return
        self.offered = self.saved = data

    def reject(self, reason: str) -> None:
        if self.rejected is None:
            self.rejected = reason

    def partition(self, graph: KernelGraph) -> Optional[Partition]:
        """The recorded partition over ``graph``, or ``None``."""
        blocks = self.offered.get("partition")
        if blocks is None:
            return None
        try:
            partition = Partition(
                graph, [PartitionBlock(graph, names) for names in blocks]
            )
        except (ValueError, TypeError):  # GraphError is a ValueError
            self.reject("partition")
            return None
        self.restored.append("partition")
        return partition

    def identify(
        self, graph: KernelGraph, partition: Partition, naive_borders: bool
    ) -> None:
        """Name the tape this build runs without compiling it
        (:func:`tape_identity`)."""
        started = time.perf_counter()
        self.tape = tape_identity(self.key, graph, partition, naive_borders)
        self.ms += (time.perf_counter() - started) * 1e3

    @property
    def same_tape(self) -> bool:
        """Whether the record is bound to this build's tape identity."""
        return self.tape is not None and self.offered.get("tape") == self.tape

    def proved(self, verdict: str, bound_to: str) -> Optional[str]:
        """The digest the record binds ``verdict`` to, if it holds it."""
        return self.offered.get(bound_to) if self.offered.get(verdict) else None

    @cached_property
    def toolchain(self) -> Optional[str]:
        """:func:`native_exec.toolchain_digest`, once per build."""
        return native_exec.toolchain_digest(self.key[4].cflags)

    def library(self) -> Optional[native_exec.RecordedLibrary]:
        """The library the record holds ``sanitized`` for, with its
        manifest when the record is bound to this build's tape identity
        and its toolchain is this host's."""
        offered, stem = self.offered, self.proved("sanitized", "library")
        if not stem:
            return None
        bindings = offered.get("bindings")
        if not self.same_tape:
            bindings = None
        elif offered.get("toolchain") != self.toolchain:
            self.reject("toolchain")
            bindings = None
        return native_exec.RecordedLibrary(
            stem, offered.get("library_sha256"), bindings, self.directory
        )

    def settle(self, entry: "CachedPlan") -> None:
        """After the build stages: note which verdicts this build's
        digests let the record supply, and settle the differential."""
        started = time.perf_counter()
        offered, plan, native = self.offered, entry.plan, entry.native_plan
        library = native.library_path if native is not None else None
        self.library_sha256 = library and native.library_sha256
        # The identity, and the digest of any tapes this build compiled.
        same_tape = (
            plan is not None
            and self.same_tape
            and plan.known_digest() == offered.get("tape_digest")
        )
        same_source = (
            library is not None and offered.get("library") == library.stem
        )
        same_bytes = (
            same_source
            and offered.get("library_sha256") == self.library_sha256
        )
        if offered and plan is not None and not same_tape:
            self.reject("tape digest")
        if offered.get("library") and not same_source:
            self.reject("source digest")
        elif same_source and not same_bytes:
            self.reject("library bytes")
        if native is not None and native.unbound:
            # Last: a library missing under another name is the digest's fault.
            self.reject(native.unbound)
        if same_source:
            self.compile_ms = _price(offered.get("compile_ms"))
        if offered.get("verified") and same_tape:
            self.restored.append("verified")
        if offered.get("sanitized") and same_source:
            self.restored.append("sanitized")
        if offered.get("differential") and same_tape and same_bytes:
            native.settle_differential()
            self.restored.append("differential")
        if native is not None and native.from_record:
            self.restored.append("library")
        self.ms += (time.perf_counter() - started) * 1e3

    def sync(self, entry: "CachedPlan") -> None:
        """Write the record if ``entry`` holds what the file lacks."""
        started = time.perf_counter()
        plan, native = entry.plan, entry.native_plan
        library = native.library_path if native is not None else None
        current = {
            "format": RECORD_FORMAT,
            "fingerprint": code_fingerprint(),
            "partition": [list(block) for block in entry.partition.signature()],
            "tape": self.tape if plan is not None else None,
            "tape_digest": plan.known_digest() if plan is not None else None,
            "library": library.stem if library is not None else None,
            "library_sha256": self.library_sha256,
            "toolchain": library and self.toolchain,
            "bindings": library and native.bindings(),
            "compile_ms": self.compile_ms,
            "verified": plan is not None and plan.verified,
            "sanitized": library is not None and native.sanitized,
            "differential": (
                library is not None
                and self.library_sha256 is not None
                and not native.differential_pending
            ),
        }
        if current != self.saved and cpu_exec.write_cache_text(
            self.name, json.dumps(current), self.directory
        ):
            self.saved = current
            self.writes += 1
            if self.on_write is not None:
                self.on_write()
        self.ms += (time.perf_counter() - started) * 1e3


def _price(value: Any) -> Optional[float]:
    """A recorded ``compile_ms`` as a price: a finite, non-negative
    number, else ``None`` (never re-fuse) — the record is not trusted to
    hold one."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if math.isfinite(value) and value >= 0:
            return float(value)
    return None


def native_strategy(
    plan: PartitionPlan, lowered: native_exec.LoweredPartition
) -> str:
    """How a direct-door native miss gets its first answer, decided once
    per miss: ``"blocking"`` — compile, then execute natively, as every
    other build does — or ``"tiered"`` — answer on the tape ``plan`` the
    build holds anyway, and compile ``lowered`` in the background
    (:meth:`PlanCache.build_native`).

    The build asks only when its plan record bound no library and the
    partition is lowered.  Tiered needs two more things: ``cc -c`` would
    run (an object of ``lowered`` is not in the cache), and the tape is
    predicted to answer first — always under strict, whose first native
    execute runs the whole tape as its differential anyway; otherwise
    when :data:`~repro.backend.native_exec.COSTS` predicts the tape
    execute below the compile."""
    objects = lowered.objects_to_compile()
    if not objects:
        return "blocking"
    costs = native_exec.COSTS
    if validate_mode() == "strict" or costs.tape_ms(plan) < costs.compile_ms(objects):
        return "tiered"
    return "blocking"


def _sync_record_on_differential(entry: CachedPlan) -> None:
    """Write ``entry``'s plan record again once its native plan's first
    strict execute has passed the differential."""
    record, native_plan = entry.record, entry.native_plan
    if record is None or native_plan is None or not native_plan.differential_pending:
        return
    # Weakly: the plan must not keep its entry (and through it itself)
    # alive in a cycle only the collector can free.
    entry_ref = weakref.ref(entry)

    def record_differential() -> None:
        live = entry_ref()
        if live is not None:
            record.sync(live)

    native_plan.on_differential_pass(record_differential)


#: Runs one named build stage: ``stage(name, fn)`` returns ``fn()``.
Stage = Callable[[str, Callable[[], Any]], Any]


def call_stage(name: str, fn: Callable[[], Any]) -> Any:
    """The direct door's stage runner: a plain call, so callers see the
    original exception types."""
    return fn()


def build_plan(
    graph: KernelGraph,
    *,
    key: tuple | None = None,
    partition: Partition | None = None,
    fusion: FusionSettings,
    engine: str,
    stage: Stage = call_stage,
    lowering: NativeLowering | None = None,
    tiering: bool = False,
    lowered: native_exec.LoweredPartition | None = None,
) -> CachedPlan:
    """Build what one request executes — the only place in ``src/``
    that runs fuse → tape plan → native compile → sanitize → verify.

    ``partition=None`` fuses under ``fusion``; an explicit partition is
    served as given (``fusion`` then only contributes
    ``naive_borders``).  ``engine`` is a name from the engine table:
    ``recursive`` deliberately skips tape compilation — its failure
    domain must not include the tape compiler — and ``native`` compiles
    on top of the tape plan.  Everything the two doors differ in is
    ``stage(name, fn)``, called once per stage that runs with ``name``
    in ``fuse`` / ``plan`` / ``compile`` / ``sanitize`` / ``verify``:
    latency budgets, fault sites and
    :class:`~repro.serve.errors.PlanBuildError` wrapping for serving, a
    plain call for direct execution.

    The native stages lower and compile with the key's lowering (what
    :func:`plan_key` resolved at the door), so the plan is the one the
    key names; a build without a key (the hot re-fuse) is given its
    cold entry's as ``lowering``.

    ``key`` (the entry's :func:`plan_key`) names the persisted plan
    record consulted inside those stages — this function is its only
    reader and writer.  The record replaces the ``fuse`` stage with its
    partition; a recorded verdict is taken over only where the digest
    it is bound to is this build's — the tape identity
    (:func:`tape_identity`, computed from the key and the graph, no tape
    needed) and the digest of any tapes this build compiles, the
    library's source digest, its bytes.  Where the
    identity, toolchain and bytes check out, a library is bound from
    the manifest and the schedule instead of lowered to C, and with
    ``verified`` taken over no tape is compiled in any stage: it
    compiles when a fallback, a pending differential or a ladder step
    first needs it.  Every other build compiles its tapes in the
    ``plan`` stage.  No record, or one that is unreadable, from other
    code, or bound to other digests: that part of the build runs as if
    there were none, and the record is rewritten.

    An entry whose partition the fusion model chose keeps ``fusion``;
    a native one also gets its re-fuse price (:attr:`CachedPlan.price_ms`)
    unless it reproduces Fig. 4b (``naive_borders``), whose bits depend
    on the partition: the wall time of the build that ran ``cc`` for the
    native plan (:attr:`~repro.backend.native_exec.NativePartitionPlan.price_ms`,
    kept on the memoized plan, so an evicted entry rebuilt on it pays
    the same), else the one the record holds for this library.

    ``tiering`` (the direct door's, with a key) lets :func:`native_strategy`
    decide a native miss: a ``"tiered"`` entry executes on its tape plan
    and carries the lowered C (:attr:`CachedPlan.deferred`) for the
    background build its cache queues; that build passes it back as
    ``lowered``, so nothing is lowered twice.
    """
    started = time.perf_counter()
    timings: Dict[str, float] = {}
    chosen = partition is None
    naive_borders = fusion.naive_borders
    if key is not None:
        lowering = key[4]
    record = _PlanRecord(key) if key is not None else None

    def timed(name: str, label: str, fn: Callable[[], Any]) -> Any:
        started = time.perf_counter()
        result = stage(name, fn)
        timings[label] = (time.perf_counter() - started) * 1e3
        return result

    if partition is None and record is not None:
        partition = record.partition(graph)
        if partition is not None:
            timings["fuse_ms"] = 0.0
    if partition is None:

        partition = timed(
            "fuse",
            "fuse_ms",
            lambda: partition_for(graph, fusion.gpu, fusion.version, fusion.benefit),
        )
    plan = native_plan = None
    if engine != "recursive":
        if record is not None:
            record.identify(graph, partition, naive_borders)
        plan = timed(
            "plan",
            "plan_ms",
            lambda: plan_for_partition(
                graph,
                partition,
                naive_borders,
                proved_digest=record.proved("verified", "tape_digest")
                if record is not None and record.same_tape
                else None,
            ),
        )
    deferred = None
    if engine == "native":

        def defer(plan: PartitionPlan, lowered: native_exec.LoweredPartition) -> bool:
            nonlocal deferred
            if native_strategy(plan, lowered) == "tiered":
                deferred = lowered
            return deferred is not None

        native_plan = timed(
            "compile",
            "native_compile_ms",
            lambda: native_exec.native_plan_for_partition(
                graph,
                partition,
                naive_borders,
                recorded=record and record.library(),
                lowering=lowering,
                lowered=lowered,
                defer=defer if tiering and record is not None else None,
            ),
        )
        if native_plan is not None:
            timings["native_ready_ms"] = (time.perf_counter() - started) * 1e3
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
        record=record,
        fusion=fusion if chosen else None,
        deferred=deferred,
    )
    if record is not None:
        record.settle(entry)
    price = record.compile_ms if record is not None else None
    if native_plan is not None and native_plan.library_path is not None:
        if native_plan.price_ms is not None:
            price = native_plan.price_ms
        if chosen and not naive_borders:
            entry.price_ms = price
    if record is not None:
        record.compile_ms = price
    validate_plan(entry, stage)
    if record is not None:
        record.sync(entry)
        _sync_record_on_differential(entry)
        timings["record_ms"] = record.ms
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
    caught_up = False
    if native_plan is not None:
        if not native_plan.sanitized:
            stage("sanitize", native_plan.ensure_sanitized)
            caught_up = True
        entry.timings_ms["native_verify_ms"] = native_plan.verify_ms
    if plan is not None:
        if not plan.verified:
            stage("verify", lambda: plan.ensure_verified(entry.graph))
            caught_up = True
        entry.timings_ms["verify_ms"] = plan.verify_ms
    if caught_up and entry.record is not None:
        entry.record.sync(entry)
    hot = entry.hot
    if hot is not None:
        validate_plan(hot, stage)


class _InFlight:
    """A build in progress; waiters block on ``event``."""

    def __init__(self) -> None:
        self.event = threading.Event()
        self.entry: Optional[CachedPlan] = None
        self.error: Optional[BaseException] = None


#: How many entries a :class:`PlanCache` holds unless told otherwise —
#: also the cap of a registry entry's per-geometry graph memo.
DEFAULT_CAPACITY = 64


class PlanCache:
    """LRU cache of :class:`CachedPlan` entries with hit/miss stats."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
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
        #: entry).
        self.miss_structure = 0
        self.miss_shape = 0
        self._seen_structures: set = set()
        self.coalesced = 0
        self.evictions = 0
        self.quarantined = 0
        #: Tier-up counters (:meth:`note`): hot plans published, hot
        #: plans kept out as unequal / as slower, requests served hot.
        self.hot_published = 0
        self.hot_unequal = 0
        self.hot_slower = 0
        self.served_hot = 0
        #: Tiering counters: native misses answered on the tape, native
        #: plans their background builds published, and builds that
        #: failed (the entry stays on the tape for its life here).
        self.tape_first = 0
        self.native_published = 0
        self.native_failed = 0
        #: This cache's jobs on :func:`hot_builder`, queued or running.
        self._hot_jobs: set = set()

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
            missed_at = time.perf_counter()
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
            entry.cache = self
            with self._lock:
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)[1].retire()
                    self.evictions += 1
                self._building.pop(key, None)
            pending.entry = entry
            pending.event.set()
            if entry.deferred is not None:
                self.build_native(entry, missed_at)
            return entry, False

    def quarantine(self, key: tuple) -> bool:
        """Evict a plan that failed at verify or execute time.

        A poisoned or miscompiled entry must never be served again: the
        resilience layer calls this before rebuilding, so the next
        lookup misses and recompiles from scratch — the entry's graph
        also forgets the tape and native plans of the entry's partition
        (its grid store and other partitions stay), so the rebuild
        constructs new plan objects and loads the ``.so`` again; so does
        the hot plan's partition, and a hot build still in flight
        publishes nothing into it.  The
        doors do not tell a bad plan from a bad request: an execute that
        failed on an unbound parameter costs the same tape compile,
        lowering and ``dlopen``.  Returns whether an entry was actually
        present (idempotent under racing callers).
        """
        with self._lock:
            removed = self._entries.pop(key, None)
            if removed is None:
                return False
            self.quarantined += 1
        # Before reading ``hot``: a build finishing later sees the entry
        # retired and forgets its own plans.
        removed.retire()
        # Outside the cache lock: this waits for the graph's own lock,
        # which a build in flight on that graph holds.
        _forget_partition(removed.graph, removed.partition)
        hot = removed.hot
        if hot is not None:
            _forget_partition(removed.graph, hot.partition)
        return True

    def clear(self) -> None:
        """Empty the cache.  No entry it held re-fuses any more: their
        hot plans are forgotten, and a hot build still in flight
        publishes nothing and forgets its own."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            entry.retire()
            hot = entry.hot
            if hot is not None:
                _forget_partition(entry.graph, hot.partition)

    def close(self) -> None:
        """Stop re-fusing for good (the entries stay): no entry builds
        or publishes a hot plan any more, and when this returns the
        build in flight, if it is this cache's, has finished — nothing
        of it is left half-written in the compile cache."""
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            entry.retire()
        with self._lock:
            jobs = list(self._hot_jobs)
        # A queued job is dropped; the one running is waited for.
        wait([job for job in jobs if not job.cancel()])

    def note(self, counter: str) -> None:
        """Count one tier-up event (a counter name of :meth:`stats`)."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def build_hot(self, entry: CachedPlan) -> None:
        """Queue ``entry``'s re-fuse on :func:`hot_builder`, in a copy of
        the calling request's context."""
        context = contextvars.copy_context()
        try:
            job = hot_builder().submit(
                context.run, _background, lambda: _hot_job(entry)
            )
        except RuntimeError:  # the interpreter is exiting
            entry.tier = "kept_cold"
            return
        with self._lock:
            self._hot_jobs.add(job)
        job.add_done_callback(self._job_done)

    def _job_done(self, job: Future) -> None:
        with self._lock:
            self._hot_jobs.discard(job)

    def build_native(self, entry: CachedPlan, missed_at: float) -> None:
        """Queue a tiered entry's native build on :func:`tier_builder`,
        in a copy of the calling request's context — unless one is
        already queued or running for its key in the request's cache
        directory (that build's record and library are what the next
        miss binds).  The build runs to completion even if the entry
        leaves the cache, and publishes only into its own live entry."""
        lowered, entry.deferred = entry.deferred, None
        self.note("tape_first")
        slot = (entry.key, cpu_exec._cache_dir())
        context = contextvars.copy_context()
        with _tier_guard:
            if slot in _tier_jobs:
                return
            try:
                job = tier_builder().submit(
                    context.run,
                    _background,
                    lambda: self._build_native(entry, lowered, missed_at),
                )
            except RuntimeError:  # the interpreter is exiting
                return
            _tier_jobs[slot] = job

        def done(_job: Future) -> None:
            with _tier_guard:
                _tier_jobs.pop(slot, None)

        job.add_done_callback(done)

    def _build_native(
        self,
        entry: CachedPlan,
        lowered: native_exec.LoweredPartition,
        missed_at: float,
    ) -> None:
        """The tiered build: :func:`build_plan` on the entry's key and
        partition, which reads the record the tape build wrote (no
        re-fuse, no re-verify) and compiles ``lowered``."""
        try:
            built = build_plan(
                entry.graph,
                key=entry.key,
                partition=entry.partition,
                fusion=entry.fusion or FusionSettings(
                    naive_borders=entry.plan.naive_borders
                ),
                engine="native",
                lowered=lowered,
            )
        except Exception:
            # A cache directory removed under the build is not its fault.
            if cpu_exec._cache_dir().is_dir():
                self.note("native_failed")
            return
        if entry.publish_native(built, missed_at):
            self.note("native_published")

    def native_threads(self) -> int:
        """The widest OpenMP team a native plan of this cache ran on
        its most recent execute — 1 when none ran one."""
        with self._lock:
            executors = [entry.executor for entry in self._entries.values()]
        return max(
            (
                executor.threads
                for executor in executors
                if isinstance(executor, native_exec.NativePartitionPlan)
            ),
            default=1,
        )

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
                "hot_published": self.hot_published,
                "hot_unequal": self.hot_unequal,
                "hot_slower": self.hot_slower,
                "served_hot": self.served_hot,
                "tape_first": self.tape_first,
                "native_published": self.native_published,
                "native_failed": self.native_failed,
            }


#: The process-wide cache behind :func:`repro.api.run`.  Its entries
#: hold the plans memoized on their graphs, whose resets
#: (:func:`repro.backend.plan.clear_plan_caches`,
#: :func:`repro.backend.native_exec.clear_native_caches`) empty it too.
PROCESS_CACHE = PlanCache()
