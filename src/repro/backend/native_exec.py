"""Native execution engine: block tapes lowered to compiled C kernels.

The tape interpreter (:mod:`repro.backend.plan`) still *interprets* each
SSA instruction as a separate NumPy op: every intermediate slot is a
full ``(h, w)`` array that round-trips through memory — exactly the
"global memory" traffic Eq. 3–4 credits kernel fusion for removing.
The native engine finishes the journey from loop fusion to kernel
fusion on the CPU: each :class:`~repro.backend.plan.BlockPlan` tape is
lowered to **one C function**, compiled as a translation unit of its
own through :mod:`repro.backend.cpu_exec`'s content-hash cache (one
object per block, one linked library per partition) and driven via
:mod:`ctypes` on zero-copy ``float64`` NumPy buffers.

**Three modules, imports pointing one way.**
:mod:`repro.backend.native_lower` writes the kernels (tape → loop-nest
IR → C text: one tile driver over a block's stages, hoisting; no
compiler needed);
:mod:`repro.backend.native_bind` calls them (:class:`NativeBlock`, the
thread budget, channels as a stride); this module owns the plan object
(:class:`NativePartitionPlan` — one block alone is a one-block
partition, :func:`repro.api.run_block`), its build and memo getter and
the tolerance policy, and re-exports the others' public names.

**One lowering per request.**  ``REPRO_NATIVE_TILE2D`` / ``_F32`` /
``_CFLAGS`` are read once per request, at its door
(:func:`repro.envknobs.native_lowering`); the build takes that value.

**One schedule.**  A plan runs its blocks one after another in the tape
plan's schedule order, each compiled call on the caller's whole share
of the cores (:func:`resolve_native_threads`).  The locality the paper
fuses for lives *inside* a kernel, and that is where the engine
parallelises (OpenMP teams over row bands and overlapped 2D tiles, on
planes large enough for a team: ``native_lower.parallel_plane``);
overlapping whole blocks too competed for the same cores and measured
slower (EXPERIMENTS.md), so ``workers`` is accepted and ignored.

**Numerical contract.**  Sources compile with ``-ffp-contract=off`` so
the compiler cannot fuse multiply-adds (``-fno-math-errno`` only lets it
vectorize around ``sqrt``); every ALU op (`+ - * /`, the
NumPy-exact ``repro_mod`` / ``repro_min`` / ``repro_max`` helpers),
comparisons, selects, ``sqrt`` and ``rsqrt`` (``1/sqrt``; both
IEEE-correctly rounded) are then **bit-identical** to the tape
interpreter.  Remaining libm calls (``exp``, ``tan``, ``pow``, …) may
differ from NumPy by a couple of ulp — they run through glibc's libmvec
where :func:`~repro.backend.cpu_exec.libmvec_variants` finds it, one
implementation per call (:data:`VECTOR_CALLS`), so the bits do not
depend on tiling, hoisting or threads — so plans whose tapes use them
carry an explicit tolerance instead — :func:`tolerance_for` pins the
policy (:data:`F32_RTOL`/:data:`F32_ATOL` under ``REPRO_NATIVE_F32``),
and ``REPRO_VALIDATE=strict`` differentially verifies a plan's first
execution against the float64 tape interpreter.

**Fallbacks.**  The engine degrades block by block to the tape
interpreter: no C compiler on PATH, a block without a lowering (global
reductions, exotic casts), or — at call time — bound arrays that do not
fit the compiled kernel (another geometry, another dtype).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import re
import threading
import time
from collections import ChainMap
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.envknobs import (
    NATIVE_F32_ENV,
    NATIVE_TILE2D_ENV,
    NativeLowering,
    native_lowering,
    validate_mode,
)

from repro.backend.cpu_exec import (
    LibraryBuild,
    _find_compiler,
    available_cores,
    compiler_available,
    libmvec_variants,
    load_kernel_library,
    objects_to_compile,
    openmp_available,
    read_cache_bytes,
)
from repro.backend.loopnest import Schedule
from repro.backend.native_bind import (
    NATIVE_THREADS_ENV,
    NativeBlock,
    _prefer_passive_omp_wait,
    as_bindable,
    resolve_native_threads,
    sharing_cores,
)
from repro.backend.native_lower import (
    EXACT_CALLS,
    LIBMVEC_ROUTINES,
    VECTOR_CALLS,
    NativeLoweringError,
    _BlockSpec,
    _PREAMBLE,
    _Signature,
    _block_fn_name,
    _lower_block,
    _lower_partition,
    libmvec_support,
    parallel_plane,
    tile2d_report,  # unused here: benchmarks/ledger imports it from this module
)
from repro.backend.numpy_exec import Arrays, ExecutionError, Params, fault_check
from repro.backend.plan import (
    BlockPlan,
    PartitionPlan,
    forget_plans,
    memo,
    plan_for_partition,
)
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.model.hardware import detect_cpu_caches

__all__ = [
    "COSTS",
    "CompileCosts",
    "F32_ATOL",
    "F32_RTOL",
    "LoweredPartition",
    "NATIVE_F32_ENV",
    "NATIVE_THREADS_ENV",
    "NATIVE_TILE2D_ENV",
    "NativeBlock",
    "NativeLoweringError",
    "NativePartitionPlan",
    "NativeVerificationError",
    "RecordedLibrary",
    "assert_native_equiv",
    "available_cores",
    "clear_native_caches",
    "lower_block_source",
    "lower_native",
    "lower_partition_source",
    "native_available",
    "native_plan_for_partition",
    "resolve_native_threads",
    "sharing_cores",
    "tolerance_for",
    "toolchain_digest",
]


def native_available() -> bool:
    """Whether the native engine can compile (a C compiler is on PATH)."""
    return compiler_available()


class NativeVerificationError(ExecutionError):
    """Strict-mode differential verification against the tape failed."""


# ---------------------------------------------------------------------------
# Tolerance policy
# ---------------------------------------------------------------------------

#: Relative/absolute tolerance for plans that use non-exact libm calls.
#: Measured libm-vs-NumPy divergence is <= ~4e-16 relative per call;
#: 1e-12 leaves four orders of magnitude of headroom for compounding
#: across fused chains while still catching any real lowering bug.
LIBM_RTOL = 1e-12
LIBM_ATOL = 1e-12

#: Pinned tolerance of the opt-in float32 fast path
#: (``REPRO_NATIVE_F32``): plane I/O stays float64 but every per-pixel
#: operation rounds to single precision, so the divergence budget is
#: ~n_ops × 2^-24 relative.  1e-4 relative / 1e-5 absolute covers the
#: deepest fused chains in the suite (hundreds of f32 roundings) with
#: two orders of magnitude to spare while still catching any use of the
#: wrong precision in the lowering.
F32_RTOL = 1e-4
F32_ATOL = 1e-5


def tolerance_for(
    plans: Sequence[BlockPlan], f32: Optional[bool] = None
) -> Optional[Tuple[float, float]]:
    """The pinned comparison policy for native output vs the tape.

    Returns ``None`` when the tapes only use bit-exact operations
    (ALU ops, comparisons, selects, ``sqrt``/``rsqrt``) — outputs must
    then be **bit-identical** — or ``(rtol, atol)`` when any other libm
    call is present.  Under the float32 fast path (``f32=None`` reads
    ``REPRO_NATIVE_F32``) nothing is bit-exact and the pinned policy is
    ``(F32_RTOL, F32_ATOL)``.
    """
    if f32 is None:
        f32 = native_lowering().f32
    if f32:
        return (F32_RTOL, F32_ATOL)
    calls = set()
    for plan in plans:
        calls.update(
            instr.aux[0] for instr in plan.tape if instr.op == "call"
        )
    if calls <= EXACT_CALLS:
        return None
    return (LIBM_RTOL, LIBM_ATOL)


def assert_native_equiv(
    expected: np.ndarray,
    actual: np.ndarray,
    tolerance: Optional[Tuple[float, float]],
    context: str = "output",
) -> None:
    """Compare native output against the tape under the pinned policy.

    Bit-identical (``tolerance=None``) or ``allclose`` within
    ``(rtol, atol)``; raises :class:`NativeVerificationError` with the
    NumPy diff report on mismatch.
    """
    try:
        if tolerance is None:
            np.testing.assert_array_equal(actual, expected)
        else:
            rtol, atol = tolerance
            np.testing.assert_allclose(
                actual, expected, rtol=rtol, atol=atol
            )
    except AssertionError as err:
        raise NativeVerificationError(
            f"native output diverges from the tape interpreter for "
            f"{context!r}:\n{err}"
        ) from None


class _VerifyOnce:
    """First-execution differential verification state (strict mode)."""

    def __init__(self) -> None:
        self.pending = True
        self.lock = threading.Lock()
        #: Called once, after the check passed (the plan record's
        #: writer); a check that raises leaves the state pending.
        self.on_pass: Optional[Callable[[], None]] = None

    def run(self, check):
        """On a plan's first strict-mode execution, ``check()`` under
        the lock and return its result; ``None`` on every other call."""
        if not self.pending or validate_mode() != "strict":
            return None
        with self.lock:
            if not self.pending:
                return None
            result = check()
            self.pending = False
            if self.on_pass is not None:
                self.on_pass()
            return result


class NativePartitionPlan:
    """A partition compiled to native code, block by block.

    Wraps the cached tape :class:`~repro.backend.plan.PartitionPlan`:
    lowerable blocks run their compiled loop nests, the rest (global
    reductions, unsupported tapes, or — when no compiler is available —
    every block) run the tape interpreter.  Under
    ``REPRO_VALIDATE=strict`` the first execution is differentially
    verified against the tape under the pinned tolerance policy
    (:func:`tolerance_for`).  Like the tape plan it holds, it never
    refers to the graph whose memo holds it.
    """

    def __init__(
        self,
        plan: PartitionPlan,
        natives: List[Optional[NativeBlock]],
        compile_ms: float,
        build: Optional[LibraryBuild],
        fallback_reasons: Dict[str, str],
        source: str | None,
        f32: bool,
    ):
        self.plan = plan
        #: Whether the blocks compute in float32 (the lowering's ``f32``).
        self.f32 = f32
        #: One entry per block of ``plan.schedule``: its compiled
        #: function, or ``None`` where the block runs on the tape.
        self.natives = natives
        #: Wall-clock spent lowering + compiling (0 when fully cached).
        self.compile_ms = compile_ms
        #: Wall-clock of the whole build when it ran ``cc`` for the
        #: library (``None`` when the library came from the cache) —
        #: set once on the memoized plan, so a cache entry rebuilt on it
        #: is priced by the compile that was paid, not by the memo hit.
        self.price_ms: Optional[float] = None
        #: Wall-clock the static native-codegen sanitizer spent proving
        #: index bounds and the alias contract (0 until it has run).
        self.verify_ms = 0.0
        #: Whether the sanitizer passed every compiled block's loop nest
        #: (see :meth:`ensure_sanitized`).
        self.sanitized = False
        #: Whether the partition library came from the content-hash
        #: cache (``False`` when nothing was compiled at all).
        self.from_cache = build is not None and build.from_cache
        #: The loaded ``pipeline-<digest>.so`` (``None`` when nothing
        #: was compiled) — its stem is the library's source digest.
        self.library_path = build.path if build is not None else None
        #: Whether the library was bound from a plan record's manifest
        #: instead of lowered, and why one offered to the build was not.
        self.from_record = False
        self.unbound: Optional[str] = None
        #: Kernel objects the build ran ``cc -c`` for / found in the
        #: object cache — 0 / 0 when the library itself was a hit.
        self.objects_compiled = build.objects_compiled if build else 0
        self.objects_reused = build.objects_reused if build else 0
        #: Per-output reasons for blocks that fell back to the tape.
        self.fallback_reasons = fallback_reasons
        #: Per-output window-invariant hoisting decisions of the tile2d
        #: lowering, read off each block's schedule: one dict per stage
        #: split out of a member kernel (``stage``, ``kernel``, ``image``,
        #: ``taps``) or per group it left in place (``kernel``, ``image``,
        #: ``declined``).
        self.hoisted: Dict[str, Tuple[dict, ...]] = {
            native.output_name: native.spec.schedule.hoisted
            for native in natives
            if native is not None and native.spec.schedule.hoisted
        }
        #: The images compiled kernels bind.
        self._bound_images = frozenset().union(
            *(native.spec.images for native in natives if native)
        )
        #: The generated C source (``None`` when nothing was lowered).
        self.source = source
        self._verify = _VerifyOnce()

    @property
    def blocks(self) -> List[Tuple[BlockPlan, Optional[NativeBlock]]]:
        """Each block's tape beside its compiled function (``None`` where
        it runs on the tape) — the tapes compile if nothing has yet.

        The package reads :attr:`natives`; this view stays for the
        benchmark ledger and the tests, which inspect tape and function
        side by side."""
        return list(zip(self.plan.plans, self.natives))

    @functools.cached_property
    def tolerance(self) -> Optional[Tuple[float, float]]:
        """:func:`tolerance_for` this plan's tapes — read by the
        differential only, so a restored plan compiles no tape for it."""
        return tolerance_for(self.plan.plans, self.f32)

    @property
    def native_block_count(self) -> int:
        """Blocks running compiled code (the rest use the tape)."""
        return sum(1 for native in self.natives if native is not None)

    @property
    def fallback_block_count(self) -> int:
        """Blocks executing through the tape interpreter."""
        return sum(1 for native in self.natives if native is None)

    @functools.cached_property
    def library_sha256(self) -> Optional[str]:
        """SHA-256 of the library's bytes, read once (``None`` when they
        cannot be read)."""
        with contextlib.suppress(OSError):
            return hashlib.sha256(self.library_path.read_bytes()).hexdigest()

    def bindings(self) -> Optional[list]:
        """The manifest a plan record keeps: one entry per block, ``None``
        while a block runs on the tape."""
        if self.fallback_block_count:
            return None
        return [native.spec.manifest for native in self.natives]

    @property
    def threads(self) -> int:
        """The widest OpenMP team the most recent execution ran — the
        *effective* count: 1 when the toolchain has no OpenMP or no
        block's plane can split (:attr:`NativeBlock.parallel`), whatever
        was asked for."""
        return max(
            (native.threads for native in self.natives if native), default=1
        )

    def execute(
        self,
        inputs: Arrays,
        params: Params | None = None,
        workers: int | None = None,
        threads: int | None = None,
    ) -> Arrays:
        """Run every block; returns the surviving-image environment.

        ``workers`` is the engine table's block-overlap argument, which
        only tape plans act on (see the module docstring).  ``threads``
        is the OpenMP team of each compiled call; ``None`` is
        :func:`resolve_native_threads`' default — the environment knob,
        else this caller's share of the cores.
        """
        params = params or {}
        result = self._verify.run(
            lambda: self._verified_first_pass(inputs, params, threads)
        )
        if result is not None:
            return result
        return self._execute_blocks(inputs, params, threads)

    @property
    def differential_pending(self) -> bool:
        """Whether the first strict execution has yet to be compared
        with the tape."""
        return self._verify.pending

    def settle_differential(self) -> None:
        """Mark the first-run differential as passed: a persisted plan
        record proved it on this tape and these library bytes."""
        self._verify.pending = False

    def on_differential_pass(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` once the differential has passed."""
        self._verify.on_pass = callback

    def ensure_sanitized(self) -> None:
        """Run the native-codegen sanitizer over the compiled blocks
        unless this plan already passed it — strict mode's "sanitized
        before first use", paid once per artifact.  Raises
        :class:`repro.analysis.verifier.PlanVerificationError` on any
        NAT diagnostic."""
        if self.sanitized:
            return
        self.verify_ms = _sanitize_natives(
            [native for native in self.natives if native is not None]
        )
        self.sanitized = True

    def _execute_blocks(
        self, inputs: Arrays, params: Params, threads: int | None = None
    ) -> Arrays:
        """Every block in turn — ``self.natives`` is aligned with
        ``self.plan.schedule``, a valid serial schedule of ``plan.deps``."""
        env = dict(inputs)
        # Kernels index the caller's arrays in place.  An input they
        # cannot is made contiguous here, once for every block that
        # reads it; the tape and the caller keep the array passed in.
        bound = ChainMap({}, env)
        for name in self._bound_images.intersection(inputs):
            array = as_bindable(inputs[name])
            if array is not inputs[name]:
                bound[name] = array
        for index, native in enumerate(self.natives):
            if native is None:
                tape = self.plan.plans[index]
                env[tape.output_name] = tape.execute(env, params)
            else:
                env[native.output_name] = native.execute(bound, params, threads)
        return env

    def _verified_first_pass(
        self, inputs: Arrays, params: Params, threads: int | None = None
    ) -> Arrays:
        """One pass, differentially verified against the tape plan
        under :attr:`tolerance`."""
        result = self._execute_blocks(inputs, params, threads)
        expected = self.plan.execute(dict(inputs), params)
        for native in self.natives:
            if native is None:
                continue  # the tape verified against itself is vacuous
            name = native.output_name
            assert_native_equiv(
                expected[name], result[name], self.tolerance, context=name
            )
        return result


# ---------------------------------------------------------------------------
# Plan construction + caches
# ---------------------------------------------------------------------------


def _native_flags(cc: str, cflags: Tuple[str, ...]) -> Tuple[str, ...]:
    # -fno-math-errno: a ``sqrt`` that may set errno is control flow the
    # vectorizer gives up on; sqrtpd is correctly rounded like the call.
    # (The libmvec wrappers are declared ``const``: they vectorize
    # without it.)
    flags = ["-ffp-contract=off", "-fno-math-errno"]
    if openmp_available(cc):
        flags.append("-fopenmp")
    # The lowering's extra deployment/CI flags (e.g.
    # -fsanitize=address,undefined); they join the content-hash key and
    # the plan-cache keys, so toggling them recompiles.
    flags.extend(cflags)
    return tuple(flags)


def _sanitize_natives(natives: Sequence[NativeBlock]) -> float:
    """Run the native-codegen sanitizer
    (:mod:`repro.analysis.native_check`) over compiled blocks; raises
    :class:`repro.analysis.verifier.PlanVerificationError` on any NAT
    diagnostic.  Returns the wall-clock it took in ms."""
    from repro.analysis.native_check import verify_native_blocks
    from repro.analysis.verifier import enforce

    started = time.perf_counter()
    enforce(
        verify_native_blocks(natives), context="native codegen sanitizer"
    )
    return (time.perf_counter() - started) * 1e3


_ROUTINES = tuple(LIBMVEC_ROUTINES.values())


def _libmvec(cc: Optional[str]) -> FrozenSet[str]:
    """The libm names of :data:`LIBMVEC_ROUTINES` whose libmvec routine
    links and loads with ``cc`` (:func:`libmvec_variants`)."""
    return _libm_names(libmvec_variants(_ROUTINES, cc) if cc else frozenset())


@functools.lru_cache(maxsize=None)
def _libm_names(found: FrozenSet[str]) -> FrozenSet[str]:
    # Cached: the plan-record check reads the probe on every request.
    return frozenset(
        name for name, routine in LIBMVEC_ROUTINES.items() if routine in found
    )


def _vector_for(plans: Sequence[BlockPlan], cc: Optional[str]) -> FrozenSet[str]:
    """What the lowering of ``plans`` may vectorize: :func:`_libmvec`,
    probed only when a tape calls one of :data:`VECTOR_CALLS`."""
    calls = {i.aux[0] for plan in plans for i in plan.tape if i.op == "call"}
    return _libmvec(cc) if calls & VECTOR_CALLS.keys() else frozenset()


def _support_unit(
    specs: Sequence[Optional[_BlockSpec]], vector: FrozenSet[str]
) -> Optional[str]:
    """The libmvec support unit, when a lowered block calls a wrapper."""
    if any(spec is not None and spec.wrapped for spec in specs):
        return libmvec_support(vector)
    return None


class LoweredPartition(NamedTuple):
    """A partition lowered to C, not yet compiled: one spec per block in
    schedule order (``None`` where the block stays on the tape) and the
    reasons, plus — when a block lowered and a compiler exists — the
    library's ``source`` (every unit as one translation unit: it names
    the library), its ``kernels`` (one translation unit per block, and
    the libmvec support unit when a block calls a wrapper), the compiler
    and its flags.  A build that defers its compile hands this to the
    one that compiles."""

    specs: List[Optional[_BlockSpec]]
    reasons: Dict[str, str]
    source: Optional[str] = None
    kernels: Tuple[str, ...] = ()
    cc: Optional[str] = None
    flags: Tuple[str, ...] = ()

    def objects_to_compile(self) -> int:
        """How many ``cc -c`` compiling it would run now: 0 when there
        is nothing to compile or every object is in the cache."""
        if self.source is None:
            return 0
        return objects_to_compile(self.source, self.kernels, self.cc, self.flags)


def lower_native(
    graph: KernelGraph,
    partition: Partition,
    plan: PartitionPlan,
    lowering: NativeLowering,
) -> LoweredPartition:
    """Lower every block of ``plan`` to C under ``lowering``.  No
    compiler runs, beside the toolchain probes (once per process)."""
    cc = _find_compiler()
    vector = _vector_for(plan.plans, cc)
    specs, reasons = _lower_partition(graph, partition, plan, vector, lowering=lowering)
    lowered = [spec for spec in specs if spec is not None]
    if not lowered or cc is None:
        return LoweredPartition(specs, reasons)
    source = _PREAMBLE + "\n" + "\n".join(spec.source for spec in lowered)
    kernels = [_PREAMBLE + "\n" + spec.source for spec in lowered]
    support = _support_unit(lowered, vector)
    if support is not None:
        source += "\n" + support
        kernels.append(support)
    flags = _native_flags(cc, lowering.cflags)
    return LoweredPartition(specs, reasons, source, tuple(kernels), cc, flags)


def _build_native_partition(
    plan: PartitionPlan, lowered: LoweredPartition, f32: bool
) -> NativePartitionPlan:
    """Compile (or fetch) and load the library of ``lowered`` and bind
    its blocks; a block without a library runs on the tape."""
    started = time.perf_counter()
    library = build = None
    if lowered.source is not None:
        _prefer_passive_omp_wait()
        library, build = load_kernel_library(
            lowered.source, lowered.kernels, lowered.cc, lowered.flags
        )
    openmp = "-fopenmp" in lowered.flags
    reasons = dict(lowered.reasons)
    natives: List[Optional[NativeBlock]] = []
    for index, spec in enumerate(lowered.specs):
        if spec is None or library is None:
            if spec is not None:
                reasons.setdefault(
                    plan.schedule[index].output_name, "no C compiler on PATH"
                )
            natives.append(None)
            continue
        fn = getattr(library, spec.fn_name)
        natives.append(NativeBlock(plan, index, spec, fn, openmp))
    compile_ms = (time.perf_counter() - started) * 1e3
    return NativePartitionPlan(
        plan, natives, compile_ms, build, reasons, lowered.source, f32
    )


def lower_block_source(
    plan: BlockPlan,
    fn_name: str = "repro_block",
    graph: Optional[KernelGraph] = None,
    block: Optional[PartitionBlock] = None,
) -> str:
    """The C translation unit of one lowered block, as the build compiles
    it (inspection/tests; no library is built).

    Passing the owning ``graph`` and ``block`` lets the block materialize
    its stages (that needs the member kernels, not just the fused tape);
    without them it is the row band over the fused tape.  It lowers
    under the environment's :func:`repro.envknobs.native_lowering`.
    """
    vector = _vector_for([plan], _find_compiler())
    spec = _lower_block(plan, fn_name, graph, block, vector, lowering=native_lowering())
    return _PREAMBLE + "\n" + spec.source


def lower_partition_source(
    graph: KernelGraph, partition: Partition, naive_borders: bool = False
) -> str:
    """The C the native engine runs for ``partition`` as one translation
    unit: one function per block in schedule order under one preamble,
    then the libmvec support unit when a block calls a wrapper — the
    library's ``source`` (no library is built).

    A block the engine leaves to the tape (no lowering, e.g. a global
    reduction) appears as a one-line comment carrying the reason.  It
    lowers under the environment's :func:`repro.envknobs.native_lowering`.
    """
    plan = plan_for_partition(graph, partition, naive_borders)
    vector = _vector_for(plan.plans, _find_compiler())
    specs, reasons = _lower_partition(graph, partition, plan, vector, lowering=native_lowering())
    parts = [_PREAMBLE]
    for index, (block_plan, spec) in enumerate(zip(plan.plans, specs)):
        name = block_plan.output_name
        parts.append(
            spec.source
            if spec is not None
            else f"/* block {index} ({name}) runs on the tape engine: "
            f"{reasons[name]} */\n"
        )
    support = _support_unit(specs, vector)
    return "\n".join(parts + ([support] if support is not None else []))


def toolchain_digest(cflags: Tuple[str, ...]) -> Optional[str]:
    """SHA-256 over what the C text and the library name depend on
    beside the plan key and the code: compiler, flags (``-fopenmp`` and
    the lowering's ``cflags`` included), the host caches and the libmvec
    routines the probe found (``None`` without a compiler)."""
    cc = _find_compiler()
    payload = cc and repr(
        (cc, _native_flags(cc, cflags), detect_cpu_caches(), sorted(_libmvec(cc)))
    )
    return payload and hashlib.sha256(payload.encode()).hexdigest()


class RecordedLibrary(NamedTuple):
    """A library a plan record holds ``sanitized`` for, the cache
    directory it is in, and its manifest when the record's tape identity
    and toolchain are this build's."""

    stem: str
    sha256: Optional[str]
    bindings: Optional[list]
    directory: Path


class _Unbound(Exception):
    """Why a recorded library cannot be bound."""


_LIBRARY_STEM = re.compile(r"pipeline-[0-9a-f]{24}")


def _bind_recorded(
    plan: PartitionPlan, recorded: RecordedLibrary, f32: bool
) -> NativePartitionPlan:
    """``plan``'s blocks bound on the recorded library from the schedule
    and the manifest (blocks computing in float32 when ``f32``), without
    a tape or a lowering: raises
    :class:`_Unbound` unless the stem names a ``pipeline-<24 hex>``
    library of the cache directory whose bytes are the recorded ones,
    each entry names the block's own function and exactly the images
    and parameters its members read, and each symbol resolves."""
    started = time.perf_counter()
    path = recorded.directory / f"{recorded.stem}.so"
    data = _LIBRARY_STEM.fullmatch(str(recorded.stem)) and read_cache_bytes(
        path.name, recorded.directory
    )
    if not data or hashlib.sha256(data).hexdigest() != recorded.sha256:
        raise _Unbound("library bytes")
    _prefer_passive_omp_wait()
    openmp = openmp_available()
    natives: List[Optional[NativeBlock]] = []
    try:
        library = ctypes.CDLL(str(path))
        if len(recorded.bindings) != len(plan.schedule):
            raise ValueError("one entry per block")
        for index, (facts, entry) in enumerate(
            zip(plan.schedule, recorded.bindings)
        ):
            # Exactly what the block reads, in the order a lowered block
            # takes them — never the manifest's own lists: a function
            # bound with fewer arguments than it was compiled with would
            # read shifted planes and params.
            images = tuple(sorted(facts.inputs))
            params = tuple(sorted(facts.params))
            space = facts.space
            schedule = Schedule.from_manifest(entry["schedule"])
            # The geometry only: a bound block prints nothing, so its
            # signature names no identifiers.
            spec = _BlockSpec(
                _block_fn_name(index, facts.output_name), (), images, params,
                _Signature((), (), space.width, space.height, f32, space.channels),
                schedule,
            )
            if spec.manifest != entry or schedule.parallel != (
                parallel_plane(space.width * space.height)
            ):
                raise ValueError("the manifest does not fit the block")
            fn = getattr(library, spec.fn_name)
            natives.append(NativeBlock(plan, index, spec, fn, openmp))
    except OSError:  # the dlopen
        raise _Unbound("library bytes") from None
    except (AttributeError, KeyError, TypeError, ValueError):
        raise _Unbound("bindings") from None
    native_plan = NativePartitionPlan(
        plan, natives, (time.perf_counter() - started) * 1e3,
        LibraryBuild(path, True), {}, None, f32,
    )
    native_plan.library_sha256 = recorded.sha256  # read once, above
    native_plan.sanitized = native_plan.from_record = True
    return native_plan


class CompileCosts:
    """What this process has measured of the two waits a native miss
    chooses between: one tape execute, at the tape's ms per
    instruction-pixel (tape length × plane elements, summed over the
    blocks), and one build that runs ``cc``, at a fixed ms per build
    (spawning the compilers, the link, the ``dlopen``) plus ms per
    object compiled.  The per-pixel and per-object costs are moving
    averages of what the process observed; all three are seeded with a
    reading of the six paper apps on the reference container (2 shared
    vCPUs, gcc 12.2): 2–4 ns per instruction-pixel at 96×64 and 1024²,
    and first builds of 190 ms for one object and 300–370 ms for six."""

    #: Weight of the newest observation.
    ALPHA = 0.25

    def __init__(
        self, tape_ms_per_ipx: float, build_ms: float, object_ms: float
    ):
        self.tape_ms_per_ipx = tape_ms_per_ipx
        self.build_ms = build_ms
        self.object_ms = object_ms

    @staticmethod
    def instruction_pixels(plan: PartitionPlan) -> int:
        """Tape instructions × plane elements, summed over the blocks:
        what one tape execute of ``plan`` works through."""
        return sum(
            len(block.tape) * facts.space.size
            for block, facts in zip(plan.plans, plan.schedule)
        )

    def tape_ms(self, plan: PartitionPlan) -> float:
        """The predicted wall time of one execute of ``plan``."""
        return self.instruction_pixels(plan) * self.tape_ms_per_ipx

    def compile_ms(self, objects: int) -> float:
        """The predicted wall time of a build compiling ``objects``."""
        return self.build_ms + objects * self.object_ms

    def observe_tape(self, plan: PartitionPlan, ms: float) -> None:
        """Book one tape execute of ``plan`` that took ``ms``."""
        pixels = self.instruction_pixels(plan)
        if pixels:
            self.tape_ms_per_ipx += self.ALPHA * (ms / pixels - self.tape_ms_per_ipx)

    def observe_compile(self, objects: int, ms: float) -> None:
        """Book one build that compiled ``objects`` in ``ms``."""
        if objects:
            per_object = max(0.0, ms - self.build_ms) / objects
            self.object_ms += self.ALPHA * (per_object - self.object_ms)


#: The process's measurements (a race between two updates loses one
#: observation, nothing else).
COSTS = CompileCosts(tape_ms_per_ipx=3.5e-6, build_ms=150.0, object_ms=30.0)


def native_plan_for_partition(
    graph: KernelGraph,
    partition: Partition,
    naive_borders: bool = False,
    *,
    recorded: Optional[RecordedLibrary] = None,
    lowering: Optional[NativeLowering] = None,
    lowered: Optional[LoweredPartition] = None,
    defer: Optional[Callable[[PartitionPlan, Optional[LoweredPartition]], bool]] = None,
) -> Optional[NativePartitionPlan]:
    """The (cached) native plan of a partition, lowered and compiled
    under ``lowering`` — the request's ``(tile2d, f32, cflags)``, by
    default :func:`repro.envknobs.native_lowering`.

    Memoized on the graph beside its tape plan, under the lowering too.
    The underlying ``.so`` additionally lives in the cross-process
    content-hash cache, so a cache *miss* here usually still skips the C
    compiler.
    ``recorded`` is the library a plan record says the sanitizer
    already passed: bound from its manifest without lowering when it
    checks out (``from_record``, else ``unbound`` says why), else taken
    as sanitized when the lowered source reproduces its stem.
    ``lowered`` is this partition's :func:`lower_native` under
    ``lowering``, when a build that deferred made it; without it the
    build lowers.  ``defer`` is asked whether to stop before the
    compile: first before anything is lowered (``defer(plan, None)``),
    and only when it declines once more with the lowered partition.
    When it says so, the result is ``None`` and nothing is memoized.
    """
    if lowering is None:
        lowering = native_lowering()

    def build() -> Optional[NativePartitionPlan]:
        started = time.perf_counter()
        fault_check("native.compile")
        plan = plan_for_partition(graph, partition, naive_borders)
        unbound = None
        if recorded is not None and recorded.bindings is not None:
            try:
                return _bind_recorded(plan, recorded, lowering.f32)
            except _Unbound as err:
                unbound = str(err)
        if defer is not None and defer(plan, None):
            return None
        source = lowered or lower_native(graph, partition, plan, lowering)
        if defer is not None and defer(plan, source):
            return None
        native_plan = _build_native_partition(plan, source, lowering.f32)
        native_plan.unbound = unbound
        library = native_plan.library_path
        if recorded is not None and library is not None:
            native_plan.sanitized = library.stem == recorded.stem
        if validate_mode() == "strict":
            native_plan.ensure_sanitized()
        if library is not None and not native_plan.from_cache:
            native_plan.price_ms = (time.perf_counter() - started) * 1e3
            COSTS.observe_compile(native_plan.objects_compiled, native_plan.price_ms)
        return native_plan

    return memo(
        graph,
        ("native", partition.signature(), bool(naive_borders)) + tuple(lowering),
        build,
    )


def clear_native_caches() -> None:
    """Drop every memoized native plan (tests, knob changes) and empty
    the process-wide plan cache; tape plans and grid stores stay."""
    forget_plans(lambda key: key[0] == "native")
