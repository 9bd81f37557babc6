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

An entry's executor is not final: it holds at most one **candidate**
(:class:`Candidate`), a plan that may take over, and one promotion path
builds, tests and publishes it whatever its kind.  A cold **direct**
native miss may be answered on the tape (:func:`native_strategy`) while
its native plan builds: that candidate changes the engine, and strict's
first-run differential is its proof, so it is published as soon as it
is built.  A native entry whose executes have paid its compile price
builds the maximal legal partition
(:func:`repro.fusion.distribution.maximal_partition`): that candidate
keeps the engine, and it is published only after a paired test on live
requests (:meth:`CachedPlan.execute`).  The displaced plan is then the
candidate, under the same test.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import math
import os
import platform
import sys
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
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
    "Candidate",
    "FusionSettings",
    "PROCESS_CACHE",
    "PROMOTION_TRIALS",
    "PlanCache",
    "RECORD_FORMAT",
    "build_plan",
    "builder",
    "code_fingerprint",
    "inputs_signature",
    "native_strategy",
    "plan_key",
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


#: The paired test a trial candidate passes to take over: each trial
#: runs both plans on one live request and steps the candidate's walk
#: +1 when it was faster, -1 otherwise (a tie goes to the plan serving).
#: The walk publishes at ``+PROMOTION_TRIALS``, never falls below
#: ``-PROMOTION_TRIALS`` and is kept between rounds; a round runs at most
#: ``PROMOTION_TRIALS`` trials, and ends at the floor.
PROMOTION_TRIALS = 8

#: The clock trials and prices are measured on, in seconds.
clock = time.perf_counter


@dataclass(eq=False)
class Candidate:
    """A plan that may take over its entry's executor, and its proof.

    ``"differential"``: the native plan of an entry answered on the tape,
    published once built; strict's first execute of it runs the tape as
    its differential.  ``"trial"``: the maximal partition on the same
    engine, published once it wins the paired test; then the plan it
    displaced is on trial, in a new :class:`Candidate` with the same
    :attr:`plan`.  ``build`` makes :attr:`plan` on a builder thread
    (``None``: nothing to try).
    """

    kind: str
    build: Optional[Callable[[], Optional["CachedPlan"]]] = field(default=None, repr=False)
    #: The built plan (``None`` while it builds).
    plan: Optional["CachedPlan"] = field(default=None, repr=False)
    walk: int = 0
    #: Trial slots taken and trials booked in the round: no slot is
    #: left once ``claimed`` reaches PROMOTION_TRIALS, and the round is
    #: over once ``booked`` does.
    claimed: int = 0
    booked: int = 0


@dataclass(eq=False)
class CachedPlan:
    """One cache entry: the fused partition plus its compiled plan.

    ``plan`` is ``None`` only for ``engine="recursive"`` entries — the
    bottom rung of the degradation ladder deliberately skips tape
    compilation (its failure domain must not include the tape
    compiler) and executes the recursive walk from ``graph`` +
    ``partition`` instead.

    Both doors run a request through :meth:`execute`, which also runs
    the promotion of a native entry: a :attr:`candidate` built, tested
    and published (:meth:`_publish`) into :attr:`executor`.  A native
    entry the direct door answered on the tape (:func:`native_strategy`
    said ``"tiered"``) serves its tape :attr:`plan` until its
    differential candidate is published; until then :attr:`native_plan`
    and :attr:`price_ms` are ``None``.
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
    #: ``plan``, else the recursive engine's walk, or a published
    #: candidate's plan; all share ``.execute(inputs, params,
    #: workers=...)``.  A publish is the one assignment to it after the
    #: build.
    executor: Optional[object] = None
    #: The persisted plan record of :attr:`key` (``None`` for an entry
    #: built without a key).
    record: Optional["_PlanRecord"] = field(default=None, repr=False)
    #: The fusion settings whose model chose :attr:`partition`; ``None``
    #: when the caller gave it (``partition=``, ``fuse=False``).  A
    #: model-fused request returns its inputs and the graph's external
    #: outputs only, whichever plan served it.
    fusion: Optional[FusionSettings] = None
    #: What the executes must add up to before the next round of trials
    #: (the first one builds the maximal partition): the
    #: ``native_compile_ms`` of the build that ran ``cc`` (this one, or
    #: the one the plan record names), doubled after every round;
    #: ``None`` where it never re-fuses.
    price_ms: Optional[float] = None
    #: Wall-clock ms of this entry's executes since its last round.
    executed_ms: float = 0.0
    #: The plan that may take over :attr:`executor`.
    candidate: Optional[Candidate] = field(default=None, repr=False)
    #: The cache holding this entry: it counts the promotion events and
    #: owns the entry's candidate builds.
    cache: Optional["PlanCache"] = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _live: bool = field(default=True, repr=False)

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
        plan however a publish races it.  While a trial candidate's
        round is open, a request takes one of its slots: it runs both
        plans and returns the serving plan's result.  Any other request
        adds its wall time to :attr:`executed_ms`; the one that reaches
        :attr:`price_ms` queues the maximal partition's build, or opens
        the next round.
        """
        candidate = self.candidate
        trial = self._claim(candidate) if candidate is not None else None
        if trial is not None:
            env = self._trial(candidate, *trial, inputs, params, workers)
        else:
            executor = self.executor
            started = clock()
            env = executor.execute(inputs, params, workers)
            ms = (clock() - started) * 1e3
            if self.price_ms is not None:
                self._account(ms)
            if self.engine == "native" and executor is self.plan:
                native_exec.COSTS.observe_tape(executor, ms)
            elif candidate is not None and executor is getattr(candidate.plan, "executor", None):
                self.cache.note("served_hot")
        if self.fusion is None:
            return env
        keep = self.graph.external_outputs
        return {
            name: array
            for name, array in env.items()
            if name in keep or name in inputs
        }

    def _account(self, ms: float) -> None:
        """Add one execute; the one that pays the price queues the
        maximal partition's build, or opens the next round of trials."""
        with self._lock:
            self.executed_ms += ms
            candidate = self.candidate
            if (
                not self._live
                or self.cache is None
                or self.price_ms is None
                or self.executed_ms < self.price_ms
            ):
                return
            if candidate is not None:
                if candidate.booked >= PROMOTION_TRIALS:  # the last round is over
                    candidate.claimed = candidate.booked = 0
                return
            self.candidate = candidate = Candidate("trial", self._build_maximal)
        self.cache.submit(self, candidate)

    def _build_maximal(self) -> Optional["CachedPlan"]:
        """A trial candidate's build: the maximal partition through the
        same :func:`build_plan` (sanitized and verified as a cold plan
        is) — ``None`` when it is the model's own partition."""
        fusion = self.fusion
        partition = maximal_partition(self.graph, fusion.gpu, fusion.benefit)
        if partition.signature() == self.partition.signature():
            return None
        return build_plan(
            self.graph,
            partition=partition,
            fusion=fusion,
            engine=self.engine,
            lowering=self.key[4],
        )

    def _on_trial(self, candidate: Candidate) -> object:
        """The executor ``candidate`` puts on trial: its plan's, or the
        one its plan displaced."""
        maximal = candidate.plan.executor
        return self.native_plan if self.executor is maximal else maximal

    def _claim(self, candidate: Candidate) -> Optional[tuple]:
        """Take a slot of a built trial candidate's open round: ``(slot,
        serving executor, executor on trial)``, or ``None``."""
        with self._lock:
            if (
                self.candidate is not candidate
                or candidate.plan is None
                or candidate.claimed >= PROMOTION_TRIALS
            ):
                return None
            candidate.claimed += 1
            return candidate.claimed - 1, self.executor, self._on_trial(candidate)

    def _trial(self, candidate, slot, serving, on_trial, inputs, params, workers):
        """Run both plans on one live request and book the pair; the
        caller gets the serving plan's result.  The plan on trial runs
        first in even slots.  One that raises is unequal; one that runs
        its strict differential is not timed."""
        pending = getattr(on_trial, "differential_pending", False)
        timed = not (pending and validate_mode() == "strict")  # it runs the tape too
        theirs = None
        for executor in (on_trial, serving) if slot % 2 == 0 else (serving, on_trial):
            started = clock()
            if executor is on_trial:
                with contextlib.suppress(Exception):
                    theirs = on_trial.execute(inputs, params, workers)
                their_s = clock() - started
                continue
            try:
                env = serving.execute(inputs, params, workers)
            except BaseException:
                self._book(candidate, True, None)  # the slot is retried
                raise
            our_s = clock() - started
        equal = theirs is not None and all(
            np.array_equal(env[name], theirs[name])
            for name in self.graph.external_outputs
        )
        self._book(candidate, equal, their_s < our_s if timed else None)
        return env

    def _book(self, candidate: Candidate, equal: bool, faster: Optional[bool]) -> None:
        """Book one trial (``faster`` ``None``: untimed, its slot is
        given back).  Unequal bits drop the candidate for good, and the
        walk reaching :data:`PROMOTION_TRIALS` publishes it.  A round is
        over after that many trials, or once the walk is at its floor,
        where a loss adds nothing; the next round costs twice the
        price."""
        with self._lock:
            if (
                self.candidate is not candidate
                or not self._live
                or candidate.booked >= PROMOTION_TRIALS
            ):
                return  # the entry moved on, or the round ended under this trial
            on_trial = self._on_trial(candidate)
            if not equal:
                verdict = "unequal"
                self.candidate = self.price_ms = None
            elif faster is None:
                candidate.claimed -= 1
                return
            else:
                candidate.walk = max(candidate.walk + (1 if faster else -1), -PROMOTION_TRIALS)
                candidate.booked += 1
                if candidate.walk >= PROMOTION_TRIALS:
                    verdict = "published"
                    self._publish(candidate, on_trial)
                elif candidate.booked < PROMOTION_TRIALS and candidate.walk > -PROMOTION_TRIALS:
                    return
                else:
                    verdict = "slower"
                    candidate.claimed = candidate.booked = PROMOTION_TRIALS
                self.price_ms *= 2
                self.executed_ms = 0.0
        self.cache.note(verdict)
        if verdict == "unequal" and on_trial is not self.native_plan:
            _forget_partition(self.graph, candidate.plan.partition)

    def _publish(self, candidate: Candidate, executor: object) -> None:
        """The one publish (lock held): from the next request on,
        ``executor`` serves this entry.  A differential candidate's
        native plan, record, price and timings are in place before the
        one assignment to :attr:`executor`; a trial candidate leaves the
        plan it displaced on trial, in a round that opens once paid."""
        if candidate.kind == "differential":
            built = candidate.plan
            self.native_plan, self.record = built.native_plan, built.record
            if self.fusion is not None and not self.fusion.naive_borders:
                self.price_ms = built.record.compile_ms
            for name in ("native_compile_ms", "native_ready_ms"):
                self.timings_ms[name] = built.timings_ms[name]
            self.candidate = None
        else:
            closed = PROMOTION_TRIALS
            self.candidate = Candidate("trial", plan=candidate.plan, claimed=closed, booked=closed)
        self.executor = executor

    def arrive(self, candidate: Candidate, built: Optional["CachedPlan"]) -> None:
        """A builder job's end: publish a differential candidate, open a
        trial candidate's first round, or — nothing built — drop it, and
        with it the entry's promotion.  An entry that left its cache
        gets nothing, and the graph forgets a trial build's plans."""
        with self._lock:
            live = self._live and self.candidate is candidate
            if live and built is None:
                self.candidate = self.price_ms = None
            elif live:
                candidate.plan = built
                if candidate.kind == "differential":
                    self._publish(candidate, built.native_plan)
        if built is not None and not live and candidate.kind == "trial":
            _forget_partition(self.graph, built.partition)
        elif built is not None and live and candidate.kind == "differential":
            self.cache.note("published")
            _sync_record_on_differential(self)

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


#: The niceness of the trial builder's thread, and so of every ``cc``
#: it forks: a re-fuse is worth having, not worth slowing the requests
#: for.
BUILDER_NICE = 19

#: The background builders by candidate kind: one thread each, created
#: on first use, and again in a forked child (the parent's threads are
#: not there).
_builders: Dict[str, ThreadPoolExecutor] = {}
_builders_guard = threading.Lock()


def builder(kind: str) -> ThreadPoolExecutor:
    """The one background thread per process that builds the candidates
    of ``kind``, one job at a time; at exit the running job finishes and
    the queued ones do nothing.

    A ``"trial"`` builder runs at the lowest CPU priority
    (:data:`BUILDER_NICE`, on Linux) and its jobs compile in order on
    it, so every ``cc`` inherits that.  Requests wait on the tape for a
    ``"differential"`` candidate: its builder runs at the process's own
    priority and compiles on the compile pool, as a request's build
    does (in order on the thread left the requests one more core but
    published every native plan later, EXPERIMENTS.md).  Two threads,
    because one that lowered its priority cannot raise it again without
    ``CAP_SYS_NICE``."""
    with _builders_guard:
        pool = _builders.get(kind)
        if pool is None:
            pool = _builders[kind] = ThreadPoolExecutor(
                max_workers=1,
                thread_name_prefix=f"repro-{kind}-builder",
                initializer=partial(_set_priority, kind == "trial"),
            )
        return pool


def _set_priority(lowest: bool) -> None:
    # Per thread on Linux.  A thread starts at its creator's niceness,
    # so the differential builder takes the main thread's.
    if sys.platform.startswith("linux"):
        with contextlib.suppress(OSError):
            os.setpriority(
                os.PRIO_PROCESS,
                threading.get_native_id(),
                BUILDER_NICE
                if lowest
                else os.getpriority(os.PRIO_PROCESS, os.getpid()),
            )


def _after_fork_in_child() -> None:
    _builders.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _background(job: Callable[..., None], *args: Any) -> None:
    """Run one builder job, in a copy of its request's context (the
    validation level and the cache directory resolved at the door).  A
    job that starts once the interpreter is exiting, or whose cache
    directory is gone, does nothing."""
    if not threading.main_thread().is_alive() or not cpu_exec._cache_dir().is_dir():
        return
    job(*args)


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
    plan: PartitionPlan, lowered: Optional[native_exec.LoweredPartition]
) -> str:
    """How a direct-door native miss gets its first answer, decided once
    per miss: ``"blocking"`` — compile, then execute natively, as every
    other build does — or ``"tiered"`` — answer on the tape ``plan`` the
    build holds anyway, and lower and compile in the background as the
    entry's differential :class:`Candidate`.

    The build asks only when its plan record bound no library: first
    before it lowers anything (``lowered`` is ``None``), then, unless
    that answer was ``"tiered"``, with the partition lowered.  Under
    strict the answer is ``"tiered"`` without reading ``lowered``: a
    strict first native execute runs the whole tape as its differential,
    so a blocking first request can never answer before the tape alone,
    whether or not ``cc -c`` would run.  Otherwise tiered needs the
    lowered partition (``"blocking"`` until it is there) and two things
    of it: ``cc -c`` would run (an object of ``lowered`` is not in the
    cache), and :data:`~repro.backend.native_exec.COSTS` predicts the
    tape execute below the compile."""
    if validate_mode() == "strict":
        return "tiered"
    objects = lowered.objects_to_compile() if lowered is not None else 0
    if not objects:
        return "blocking"
    costs = native_exec.COSTS
    if costs.tape_ms(plan) < costs.compile_ms(objects):
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
    decide a native miss: a ``"tiered"`` entry executes on its tape plan,
    and its differential :class:`Candidate` — queued by its cache — is
    this function on the same key and partition.  Under strict the miss
    tiers before anything is lowered, and the candidate lowers the C
    itself; otherwise the miss lowered to decide, and the candidate is
    passed that C as ``lowered``, so nothing is lowered twice.
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
    tiered = False
    deferred = None
    if engine == "native":

        def defer(
            plan: PartitionPlan, lowered: Optional[native_exec.LoweredPartition]
        ) -> bool:
            nonlocal tiered, deferred
            if native_strategy(plan, lowered) == "tiered":
                tiered, deferred = True, lowered
            return tiered

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
    )
    if tiered:

        def build_native() -> CachedPlan:
            built = build_plan(
                graph,
                key=key,
                partition=partition,
                fusion=fusion,
                engine="native",
                lowered=deferred,
            )
            ready_ms = (time.perf_counter() - started) * 1e3
            built.timings_ms["native_ready_ms"] = ready_ms
            return built

        entry.candidate = Candidate("differential", build_native)
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
    candidate = entry.candidate
    if candidate is not None and candidate.plan is not None:
        validate_plan(candidate.plan, stage)


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
        #: Promotion counters (:meth:`note`), both candidate kinds:
        #: native misses answered on the tape while their native plan
        #: builds, candidates published (a demotion is one too), builds
        #: that failed, trial candidates dropped as unequal, rounds of
        #: trials that ended without a publish, and requests the maximal
        #: partition's plan served.
        self.tape_first = self.published = self.failed = 0
        self.unequal = self.slower = self.served_hot = 0
        #: The one job table: each entry's candidate build, queued or
        #: running.
        self._jobs: Dict[CachedPlan, Future] = {}

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
            if entry.candidate is not None:
                self.submit(entry, entry.candidate)
            return entry, False

    def quarantine(self, key: tuple) -> bool:
        """Evict a plan that failed at verify or execute time.

        A poisoned or miscompiled entry must never be served again: the
        resilience layer calls this before rebuilding, so the next
        lookup misses and recompiles from scratch — the entry's graph
        also forgets the tape and native plans of the entry's partition
        (its grid store and other partitions stay), so the rebuild
        constructs new plan objects and loads the ``.so`` again; so does
        its candidate's partition, and a candidate build queued or in
        flight publishes nothing into it (:meth:`_drop`).  The
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
        self._drop(removed)
        _forget_partition(removed.graph, removed.partition)
        return True

    def clear(self) -> None:
        """Empty the cache, dropping each entry (:meth:`_drop`)."""
        with self._lock:
            entries = list(self._entries.values())
            self._entries.clear()
        for entry in entries:
            self._drop(entry)

    def _drop(self, entry: CachedPlan) -> None:
        """``entry`` left the cache: it publishes nothing from now on,
        its queued candidate build is dropped (one in flight finishes and
        forgets its own plans), and the graph forgets its candidate's."""
        # Before reading the candidate: a build finishing later sees the
        # entry retired.
        entry.retire()
        with self._lock:
            job = self._jobs.get(entry)
        if job is not None:
            job.cancel()
        candidate = entry.candidate
        if candidate is not None and candidate.plan is not None:
            # Outside the cache lock: this waits for the graph's own
            # lock, which a build in flight on that graph holds.
            _forget_partition(entry.graph, candidate.plan.partition)

    def close(self) -> None:
        """Stop promoting for good (the entries stay): no entry builds
        or publishes a candidate any more, and when this returns the
        builds in flight, if they are this cache's, have finished —
        nothing of them is left half-written in the compile cache."""
        with self._lock:
            entries = list(self._entries.values())
            jobs = list(self._jobs.values())
        for entry in entries:
            entry.retire()
        # A queued job is dropped; the one running is waited for.
        wait([job for job in jobs if not job.cancel()])

    def note(self, counter: str) -> None:
        """Count one promotion event (a counter name of :meth:`stats`)."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def submit(self, entry: CachedPlan, candidate: Candidate) -> None:
        """Queue ``candidate``'s build — both kinds' one submit path: on
        the :func:`builder` of its kind, in a copy of the calling
        request's context, in this cache's job table."""
        if candidate.kind == "differential":
            self.note("tape_first")
        context = contextvars.copy_context()
        try:
            job = builder(candidate.kind).submit(
                context.run, _background, self._build, entry, candidate
            )
        except RuntimeError:  # the interpreter is exiting
            return
        with self._lock:
            self._jobs[entry] = job

        def done(_job: Future) -> None:
            with self._lock:
                if self._jobs.get(entry) is job:
                    del self._jobs[entry]

        job.add_done_callback(done)

    def _build(self, entry: CachedPlan, candidate: Candidate) -> None:
        """A builder job: ``candidate``'s build, handed to its entry
        (:meth:`CachedPlan.arrive`) unless the entry left the cache.  A
        build that raises counts as ``failed`` — unless its cache
        directory was removed under it, which is not its fault."""
        cpu_exec.BUILDER_JOB.set(True)
        cpu_exec.BACKGROUND_BUILD.set(candidate.kind == "trial")
        if not entry._live:
            return
        try:
            built = candidate.build()
        except Exception:
            if cpu_exec._cache_dir().is_dir():
                self.note("failed")
            built = None
        entry.arrive(candidate, built)

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
                "tape_first": self.tape_first,
                "published": self.published,
                "failed": self.failed,
                "unequal": self.unequal,
                "slower": self.slower,
                "served_hot": self.served_hot,
            }


#: The process-wide cache behind :func:`repro.api.run`.  Its entries
#: hold the plans memoized on their graphs, whose resets
#: (:func:`repro.backend.plan.clear_plan_caches`,
#: :func:`repro.backend.native_exec.clear_native_caches`) empty it too.
PROCESS_CACHE = PlanCache()
