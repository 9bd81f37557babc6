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
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.backend import cpu_exec, engines, native_exec
from repro.backend.numpy_exec import ExecutionError
from repro.backend.plan import PartitionPlan, forget_plans, plan_for_partition
from repro.envknobs import validate_mode
from repro.fusion import partition_for
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.ir.signature import canonical_digest
from repro.model.benefit import BenefitConfig
from repro.model.hardware import KNOWN_GPUS, GpuSpec

__all__ = [
    "CACHE_KEYINGS",
    "CachedPlan",
    "FusionSettings",
    "PROCESS_CACHE",
    "PlanCache",
    "RECORD_FORMAT",
    "build_plan",
    "code_fingerprint",
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
    #: ``plan_ms``, ``native_compile_ms``, ``record_ms`` (the plan
    #: record: read + digests + write) and, under strict,
    #: ``native_verify_ms`` / ``verify_ms`` — the costs the cache
    #: amortizes across requests.  A stage the plan record supplied
    #: reads 0.0.
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
    #: The persisted plan record of :attr:`key` (``None`` for an entry
    #: built without a key).
    record: Optional["_PlanRecord"] = field(default=None, repr=False)

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
    structural signature (every kernel and image shape, so a
    structure-keyed key at another geometry names other tapes), the
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
         "toolchain": "<native_exec.toolchain_digest()>" | null,
         "bindings": [<NativePartitionPlan.bindings() entry>, ...] | null,
         "verified": bool, "sanitized": bool, "differential": bool}

    :func:`build_plan` reads it once, applies a verdict (and the
    manifest) only where the digests this build has equal the recorded
    ones, and writes the file back when the entry holds more.  The
    cache directory and the toolchain digest are resolved once per
    record, that is once per build.
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
        return native_exec.toolchain_digest()

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
    """
    timings: Dict[str, float] = {}
    naive_borders = fusion.naive_borders
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
            lambda: partition_for(
                graph, fusion.gpu, fusion.version, fusion.benefit_config
            ),
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
    if engine == "native":

        def compile_native() -> native_exec.NativePartitionPlan:
            built = native_exec.native_plan_for_partition(
                graph,
                partition,
                naive_borders,
                polymorphic=polymorphic,
                recorded=record and record.library(),
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
        record=record,
    )
    if record is not None:
        record.settle(entry)
    validate_plan(entry, stage)
    if record is not None:
        record.sync(entry)
        if native_plan is not None and native_plan.differential_pending:
            # Weakly: the plan must not keep its entry (and through it
            # itself) alive in a cycle only the collector can free.
            entry_ref = weakref.ref(entry)

            def record_differential() -> None:
                live = entry_ref()
                if live is not None:
                    record.sync(live)

            native_plan.on_differential_pass(record_differential)
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
        lookup misses and recompiles from scratch — the entry's graph
        also forgets the tape and native plans of the entry's partition
        (its grid store and other partitions stay), so the rebuild
        constructs new plan objects and loads the ``.so`` again.  The
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
        # Outside the cache lock: this waits for the graph's own lock,
        # which a build in flight on that graph holds.
        blocks = removed.partition.signature()
        forget_plans(
            lambda memo: memo[0] in ("tape", "native") and memo[1] == blocks,
            removed.graph,
        )
        return True

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


#: The process-wide cache behind :func:`repro.api.run`.  Its entries
#: hold the plans memoized on their graphs, whose resets
#: (:func:`repro.backend.plan.clear_plan_caches`,
#: :func:`repro.backend.native_exec.clear_native_caches`) empty it too.
PROCESS_CACHE = PlanCache()
