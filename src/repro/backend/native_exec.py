"""Native execution engine: block tapes lowered to compiled C kernels.

The tape interpreter (:mod:`repro.backend.plan`) already removes the
recursive engine's Python-dispatch tax, but it still *interprets* each
SSA instruction as a separate NumPy op: every intermediate slot is a
full ``(h, w)`` array that round-trips through memory — exactly the
"global memory" traffic Eq. 3–4 credits kernel fusion for removing.
This module finishes the journey from loop fusion to kernel fusion on
the CPU: each :class:`~repro.backend.plan.BlockPlan` tape is lowered to
**one C function** — a single row-tiled loop nest whose per-pixel SSA
slots become ``const double`` register temporaries (the degenerate,
tightest form of per-tile scratch), compiled as a translation unit of
its own through :mod:`repro.backend.cpu_exec`'s content-hash cache (one
object per block, one linked library per partition) and driven via
:mod:`ctypes` on zero-copy ``float64`` NumPy buffers.

**Tape → loop nest → C.**  The lowerings here are *builders* of the
small structured IR in :mod:`repro.backend.loopnest`; its printer turns
the tree into the C text that is compiled, and the sanitizer
(:mod:`repro.analysis.native_check`) proves the same tree — the nest is
written once, never printed and parsed back.  ``_BlockSpec`` carries
both forms (``ir`` and ``source``).

The loop nest follows the paper's region analysis (Section IV-B): an
**interior** body where every boundary resolver is
provably the identity (direct loads, no branches), and a **halo** body
that replays the tape's index exchange exactly — ``idx_clamp`` /
``idx_mirror`` / ``idx_repeat`` resolvers and CONSTANT-mode masks are
bit-compatible with :func:`repro.dsl.boundary.resolve_array`.  Rows are
processed in tiles (:data:`TILE_ROWS` rows each) and tiles are the
OpenMP work units (compiled in only when the toolchain supports
``-fopenmp``).  Every innermost x-loop carries ``#pragma omp simd`` so
the compiler vectorizes without reassociating (per-lane IEEE semantics
keep the bit-identity contract).

**One core budget.**  :func:`resolve_native_threads` sizes every OpenMP
team: an explicit ``threads`` argument or ``REPRO_NATIVE_THREADS=n``
means exactly ``n``; otherwise a call takes the caller's share of the
cores — the process's affinity mask divided by the native executions
running side by side (block-level ``workers``, a serving runtime's
scheduler workers times its sibling shards, scoped by
:func:`sharing_cores`) — and small planes stay serial.  Tiles are
independent and nothing is reduced, so the count never changes a bit.
The effective count (1 without OpenMP) is reported on
:attr:`NativePartitionPlan.threads`.

**2D overlapped tiling** (``REPRO_NATIVE_TILE2D``, default ``auto``).
The fused tape recomputes every producer per consumer pixel — a
depth-3 chain of 3×3 stencils evaluates the first stage ~49 times per
output pixel.  For eligible fused local chains the lowering instead
partitions the plane into (tile_h × tile_w) tiles and computes each
non-destination stage **once** per pixel of its halo-extended tile
region into a small stack scratch buffer (the CPU analogue of the
paper's shared-memory overlapped tiling, Section IV): redundant work
shrinks from a product of stencil areas to a ~1.1–1.3× halo fraction
while every intermediate stays cache-resident.  The tile shape comes
from the geometry-free cost model in :mod:`repro.model.tiling`
(working set vs the detected cache hierarchy, plus the halo recompute
term) or from an explicit ``HxW`` knob value; ineligible chains
(single kernels, reductions, MIRROR/REPEAT internal edges, margins
past the cap) silently keep the classic row-tiled form.  Stage values
are computed by the same ``-ffp-contract=off`` expression sequences
the fused tape inlines, so tile2d output is **bit-identical** to both
the classic lowering and the tape interpreter.

**Window-invariant hoisting.**  The same redundancy hides inside one
kernel: ``exp(sum9(log(in(dx, dy) + 1)) / 9) - 1`` calls ``log`` nine
times per output pixel.  Before staging, a lowering-private rewrite
(:func:`_hoist_window_invariants`) splits a member kernel that applies
one pure single-read subexpression with a libm call or a division at
two or more taps of an image into a point stage plus the remainder, so
tile2d computes it once per halo-extended tile pixel.  The graph, the
partition and the tape are untouched; the result is bit-identical to
the unsplit kernel; decisions are on :attr:`NativePartitionPlan.hoisted`.

**Channels.**  Multi-channel images run plane by plane on a
request-private planar ``(C, H, W)`` twin: an input is deinterleaved
once per request (not once per channel per block), consumer blocks bind
the producer's planes zero-copy, and the caller still receives
C-contiguous ``(H, W, C)`` arrays.

**Float32 fast path** (``REPRO_NATIVE_F32=on``, default off).  Plane
I/O stays float64, but per-pixel slots, literals and libm calls run in
single precision (roughly double SIMD lanes per vector).  The pinned
tolerance policy becomes :data:`F32_RTOL`/:data:`F32_ATOL` and strict
mode still differentially verifies against the float64 tape.

**Strided views.**  Shape-polymorphic kernels take one leading-stride
``const int`` per input plane, so row-strided ``float64`` views (crops,
row subsampling) bind zero-copy instead of paying an
``ascontiguousarray`` copy; :func:`noncontiguous_zero_copy_count`
tallies the avoided copies.

**Numerical contract.**  Sources compile with ``-ffp-contract=off`` so
the compiler cannot fuse multiply-adds; every ALU op (`+ - * /`, the
NumPy-exact ``repro_mod`` / ``repro_min`` / ``repro_max`` helpers),
comparisons, selects, ``sqrt`` and ``rsqrt`` (``1/sqrt``; both
IEEE-correctly rounded) are then **bit-identical** to the tape
interpreter.  Remaining libm calls (``exp``, ``tan``, ``pow``, …) may
differ from NumPy by a couple of ulp, so plans whose tapes use them
carry an explicit tolerance instead — :func:`tolerance_for` pins the
policy, and ``REPRO_VALIDATE=strict`` differentially verifies native
output against the tape interpreter on a plan's first execution.

**Fallbacks.**  The engine degrades gracefully, block by block, to the
tape interpreter: when no C compiler is on PATH, when a block cannot be
lowered (global reduction operators, casts to unsupported dtypes), or —
at call time — when the bound arrays are not plain ``float64`` planes
of the declared geometry (the tape resolves such cases dynamically;
baking their shapes would change semantics).

**Shape polymorphism.**  With ``polymorphic=True`` the lowering emits
``width`` / ``height`` as runtime ``const int`` parameters instead of
baked literals: every extent in the tape's grid keys is checked against
the block's iteration space and replaced by the matching symbol, the
interior bounds become static margins off the runtime extents, and the
tile count is computed at run time.  The generated C source is then
**byte-identical across resolutions** of the same block structure, so
the content-hash ``.so`` cache compiles each structure exactly once and
one loaded artifact serves every geometry (the actual ``(height,
width)`` is inferred from the bound arrays per call).  Blocks whose
tapes mix image geometries have no polymorphic lowering and fall back;
a polymorphic plan refuses to run tape fallbacks at a geometry other
than the one it was planned at (the tape is shape-specialized).
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
import re
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.envknobs import (
    NATIVE_F32_ENV,
    NATIVE_TILE2D_ENV,
    int_env,
    native_cflags_env,
    native_f32_enabled,
    native_tile2d_env,
    raw_env,
    validate_mode,
)

from repro.backend.loopnest import (
    For,
    Formal,
    Func,
    Guard,
    IntDecl,
    Load,
    Return,
    ScratchDecl,
    Slot,
    Store,
    add,
    binop,
    block_text,
    ident,
    max_of,
    min_of,
    mul,
    num,
    paren,
    sub,
)
from repro.backend.cpu_exec import (
    LibraryBuild,
    _find_compiler,
    available_cores,
    compiler_available,
    load_kernel_library,
    openmp_available,
)
from repro.backend.numpy_exec import (
    Arrays,
    ExecutionError,
    Params,
    _array_for,
    block_schedule,
    fault_check,
)
from repro.backend.plan import (
    BlockPlan,
    GridStore,
    PartitionPlan,
    _TapeCompiler,
    _iteration_grids,
    forget_plans,
    memo,
    plan_for_block,
    plan_for_partition,
    resolve_key,
    resolve_workers,
    run_block_dag,
)
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.image import Image
from repro.dsl.kernel import Accessor, Kernel
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.ir.expr import BinOp, Call, Expr, InputAt
from repro.ir.traversal import children, rebuild, shift_offsets, walk

__all__ = [
    "F32_ATOL",
    "F32_RTOL",
    "NATIVE_F32_ENV",
    "NATIVE_THREADS_ENV",
    "NATIVE_TILE2D_ENV",
    "NativeBlock",
    "NativeBlockPlan",
    "NativeLoweringError",
    "NativePartitionPlan",
    "NativeVerificationError",
    "assert_native_equiv",
    "available_cores",
    "clear_native_caches",
    "lower_block_source",
    "lower_partition_source",
    "lowering_knobs",
    "native_available",
    "native_plan_for_block",
    "native_plan_for_partition",
    "noncontiguous_zero_copy_count",
    "reset_noncontiguous_zero_copy",
    "resolve_native_threads",
    "sharing_cores",
    "tolerance_for",
]

#: Environment knob: OpenMP threads for the row-tiled loop nests.
NATIVE_THREADS_ENV = "REPRO_NATIVE_THREADS"

#: Rows per parallel tile of the classic lowering (the OpenMP work
#: unit) — large enough to amortize scheduling, small enough to
#: load-balance tall images across threads.
TILE_ROWS = 64


def native_available() -> bool:
    """Whether the native engine can compile (a C compiler is on PATH)."""
    return compiler_available()


#: Under the automatic thread share a plane gets one thread per this
#: many pixels: below it waking a team (~0.05 ms) costs more than the
#: rows it hands out (a 96x64 request is ~0.1 ms of work in total).
MIN_PIXELS_PER_THREAD = 1 << 16


#: How many native executions the surrounding caller runs side by side
#: (a contextvar, like ``envknobs._VALIDATE_OVERRIDE``: scheduler
#: threads see their own runtime's value).
_SIDE_BY_SIDE: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "repro_native_side_by_side", default=1
)


@contextmanager
def sharing_cores(callers: int) -> Iterator[None]:
    """Scope in which the caller runs ``callers`` native executions at
    once — a serving runtime's scheduler workers, times its sibling
    shard processes — so each takes ``1/callers`` of the cores instead
    of oversubscribing them.  Nested scopes compound."""
    token = _SIDE_BY_SIDE.set(_SIDE_BY_SIDE.get() * max(1, int(callers)))
    try:
        yield
    finally:
        _SIDE_BY_SIDE.reset(token)


def resolve_native_threads(
    threads: int | None = None,
    side_by_side: int | None = None,
    pixels: int | None = None,
) -> int:
    """The OpenMP thread count of one compiled call.

    An explicit argument, else ``REPRO_NATIVE_THREADS``, means exactly
    that many.  Otherwise it is the caller's share of the machine:
    :func:`available_cores` divided by the number of native executions
    running ``side_by_side`` (``None`` reads the :func:`sharing_cores`
    scope; block-level ``workers`` multiply in), and — given the plane
    size — at most one thread per :data:`MIN_PIXELS_PER_THREAD`.  Tiles
    are independent and nothing is reduced, so every count computes the
    same bits.
    """
    if threads is None and raw_env(NATIVE_THREADS_ENV) is not None:
        threads = int_env(NATIVE_THREADS_ENV, default=1)
    if threads is not None:
        return max(1, int(threads))
    if side_by_side is None:
        side_by_side = _SIDE_BY_SIDE.get()
    share = max(1, available_cores() // max(1, side_by_side))
    if pixels is not None:
        share = min(share, max(1, pixels // MIN_PIXELS_PER_THREAD))
    return share


# libgomp is not fork-safe: a child forked after its parent ran a
# multi-threaded region inherits a thread pool whose threads do not
# exist, and its first team of >1 hangs.  A team of one never touches
# the pool, so such a child runs every kernel serially.
_team_started = False
_serial_after_fork = False


def _after_fork_in_child() -> None:
    global _serial_after_fork
    _serial_after_fork = _team_started


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _prefer_passive_omp_wait() -> None:
    """Ask libgomp — it reads this once, when the first OpenMP library
    is loaded — to sleep at barriers instead of spinning, unless the
    deployment already chose (``OMP_WAIT_POLICY`` / ``GOMP_SPINCOUNT``).

    The default spins ~300k pause iterations before yielding.  On a
    host whose cores are shared (a container's vCPUs), whenever a team
    thread is not actually running the others burn that budget first:
    measured here, 8 ms per parallel region, which made 2 threads 2.3x
    *slower* than 1 for Harris@1024.  Sleeping costs ~0.05 ms per
    region and degrades to single-core speed instead.
    """
    if "GOMP_SPINCOUNT" not in os.environ:
        os.environ.setdefault("OMP_WAIT_POLICY", "passive")


# -- zero-copy metric for row-strided polymorphic inputs -------------------

_metrics_lock = threading.Lock()
_noncontiguous_zero_copy = 0


def _note_zero_copy() -> None:
    global _noncontiguous_zero_copy
    with _metrics_lock:
        _noncontiguous_zero_copy += 1


def noncontiguous_zero_copy_count() -> int:
    """How many non-contiguous input planes ran without a copy.

    Shape-polymorphic kernels take a per-plane leading stride, so any
    row-strided ``float64`` view (a crop, every other row, a
    sub-sampled plane) binds zero-copy; this process-wide counter
    tallies each such avoided ``ascontiguousarray`` copy.
    """
    with _metrics_lock:
        return _noncontiguous_zero_copy


def reset_noncontiguous_zero_copy() -> None:
    """Reset the zero-copy counter (tests, benchmark sections)."""
    global _noncontiguous_zero_copy
    with _metrics_lock:
        _noncontiguous_zero_copy = 0


class NativeLoweringError(ExecutionError):
    """A block tape has no native lowering (reduction, exotic cast).

    Raised by the lowering pass and caught by the plan builders, which
    fall back to the tape interpreter for the offending block.
    """


class NativeVerificationError(ExecutionError):
    """Strict-mode differential verification against the tape failed."""


class _RuntimeFallback(Exception):
    """Bound arrays do not fit the compiled geometry; use the tape."""


# ---------------------------------------------------------------------------
# Tolerance policy
# ---------------------------------------------------------------------------

#: Tape ``call`` functions whose C lowering is bit-identical to NumPy:
#: IEEE 754 requires correctly-rounded sqrt and division, so ``sqrt``
#: and ``rsqrt`` (``1.0 / sqrt``) carry no tolerance.  Every other libm
#: function (exp, log, trig, pow, atan2) is only guaranteed to within a
#: few ulp of NumPy's implementation.
EXACT_CALLS = frozenset({"sqrt", "rsqrt"})

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
        f32 = native_f32_enabled()
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


# ---------------------------------------------------------------------------
# C lowering
# ---------------------------------------------------------------------------

_PREAMBLE = """\
/* Generated by repro (kernel fusion reproduction of Qiao et al., CGO 2019).
 * Native tape backend: one row-tiled loop nest per fused block, SSA
 * slots in registers, interior/halo splitting, boundary resolvers
 * bit-compatible with repro.dsl.boundary.resolve_array.  Compile with
 * -ffp-contract=off: the numerical contract forbids FMA contraction. */
#include <math.h>

static inline int idx_clamp(int i, int n) {
    return i < 0 ? 0 : (i >= n ? n - 1 : i);
}
static inline int idx_mirror(int i, int n) {
    int p = 2 * n;
    int j = ((i % p) + p) % p;
    return j < n ? j : p - 1 - j;
}
static inline int idx_repeat(int i, int n) {
    return ((i % n) + n) % n;
}
/* np.mod: remainder with the divisor's sign (and np.mod's signed zero). */
static inline double repro_mod(double a, double b) {
    double r = fmod(a, b);
    if (r != 0.0) {
        if ((r < 0.0) != (b < 0.0)) r += b;
    } else {
        r = copysign(0.0, b);
    }
    return r;
}
/* np.minimum / np.maximum: NaN-propagating (unlike fmin/fmax). */
static inline double repro_min(double a, double b) {
    if (isnan(a)) return a;
    if (isnan(b)) return b;
    return a < b ? a : b;
}
static inline double repro_max(double a, double b) {
    if (isnan(a)) return a;
    if (isnan(b)) return b;
    return a > b ? a : b;
}
/* Single-precision twins for the REPRO_NATIVE_F32 fast path. */
static inline float repro_modf32(float a, float b) {
    float r = fmodf(a, b);
    if (r != 0.0f) {
        if ((r < 0.0f) != (b < 0.0f)) r += b;
    } else {
        r = copysignf(0.0f, b);
    }
    return r;
}
static inline float repro_minf32(float a, float b) {
    if (isnan(a)) return a;
    if (isnan(b)) return b;
    return a < b ? a : b;
}
static inline float repro_maxf32(float a, float b) {
    if (isnan(a)) return a;
    if (isnan(b)) return b;
    return a > b ? a : b;
}
"""

_BIN_C = {
    "add": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "div": "({} / {})",
    "mod": "repro_mod({}, {})",
    "min": "repro_min({}, {})",
    "max": "repro_max({}, {})",
}

_CMP_C = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}

_CALL_C = {
    "exp": "exp({})",
    "log": "log({})",
    "sqrt": "sqrt({})",
    "rsqrt": "(1.0 / sqrt({}))",
    "sin": "sin({})",
    "cos": "cos({})",
    "tan": "tan({})",
    "tanh": "tanh({})",
    "pow": "pow({}, {})",
    "atan2": "atan2({}, {})",
}

_BIN_C_F32 = {
    "add": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "div": "({} / {})",
    "mod": "repro_modf32({}, {})",
    "min": "repro_minf32({}, {})",
    "max": "repro_maxf32({}, {})",
}

_CALL_C_F32 = {
    "exp": "expf({})",
    "log": "logf({})",
    "sqrt": "sqrtf({})",
    "rsqrt": "(1.0f / sqrtf({}))",
    "sin": "sinf({})",
    "cos": "cosf({})",
    "tan": "tanf({})",
    "tanh": "tanhf({})",
    "pow": "powf({}, {})",
    "atan2": "atan2f({}, {})",
}

_RESOLVER_C = {
    "clamp": "idx_clamp",
    "undefined": "idx_clamp",
    "mirror": "idx_mirror",
    "repeat": "idx_repeat",
}


def _double_literal(value: float, f32: bool = False) -> str:
    """An exact C99 literal for a Python float (hex-float form).

    With ``f32`` the literal carries an ``f`` suffix, so the compiler
    rounds it to single precision exactly as ``np.float32(value)``
    would (NaN/infinity convert implicitly).
    """
    value = float(value)
    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "INFINITY" if value > 0 else "-INFINITY"
    return value.hex() + ("f" if f32 else "")


def _identifier(prefix: str, name: str, used: set) -> str:
    candidate = f"{prefix}_{re.sub(r'[^0-9A-Za-z_]', '_', name)}"
    while candidate in used:
        candidate += "_"
    used.add(candidate)
    return candidate


def _axis_of(key: tuple) -> str:
    while key[0] != "base":
        key = key[1]
    return key[1]


def _offsets(key: tuple) -> Tuple[int, int]:
    """Offset interval of a grid key relative to its base coordinate,
    under the interior assumption that every resolver is the identity."""
    tag = key[0]
    if tag == "base":
        return (0, 0)
    if tag == "shift":
        low, high = _offsets(key[1])
        return (low + key[2], high + key[2])
    if tag == "resolve":
        return _offsets(key[1])
    raise NativeLoweringError(f"grid key {key!r} has no native lowering")


def _interior_bounds(
    tape: Sequence, width: int, height: int
) -> Tuple[int, int, int, int]:
    """``(xlo, xhi, ylo, yhi)`` of the interior region (half-open).

    A pixel is interior when every boundary resolver and out-of-bounds
    mask in the tape — including the runtime resolution of external
    gathers against the baked ``(width, height)`` geometry — is provably
    the identity there, so the interior body can load directly.
    """
    x_cons: List[Tuple[int, int]] = []
    y_cons: List[Tuple[int, int]] = []

    def note(parent: tuple, n: int) -> None:
        low, high = _offsets(parent)
        cons = x_cons if _axis_of(parent) == "x" else y_cons
        cons.append((-low, n - high))

    def walk(key: tuple) -> None:
        if key[0] == "shift":
            walk(key[1])
        elif key[0] == "resolve":
            note(key[1], key[2])
            walk(key[1])

    for instr in tape:
        if instr.op == "gather":
            _, xi, yi, boundary = instr.aux
            walk(xi)
            walk(yi)
            for key, n in ((xi, width), (yi, height)):
                if resolve_key(key, n, boundary.mode) != key:
                    note(key, n)
                if boundary.mode is BoundaryMode.CONSTANT:
                    note(key, n)
        elif instr.op == "maskfill":
            mask_key = instr.aux[0]
            for _, parent, n in mask_key[1:]:
                note(parent, n)
                walk(parent)
    xlo = max([0] + [lo for lo, _ in x_cons])
    xhi = min([width] + [hi for _, hi in x_cons])
    ylo = max([0] + [lo for lo, _ in y_cons])
    yhi = min([height] + [hi for _, hi in y_cons])
    return (xlo, max(xlo, xhi), ylo, max(ylo, yhi))


def _tape_reads(
    tape: Sequence, produced: Dict[str, int]
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[int, ...]]:
    """What a tape reads, each sorted: the images it gathers from, its
    params, and — of the images a tile2d chain ``produced`` itself —
    the producer stage indices."""
    gathers = {i.aux[0] for i in tape if i.op == "gather"}
    return (
        tuple(sorted(gathers - produced.keys())),
        tuple(sorted({i.aux[0] for i in tape if i.op == "param"})),
        tuple(sorted(produced[name] for name in gathers & produced.keys())),
    )


_OUT = Formal("double *", "out", True)
_THREADS = Formal("const int", "threads")
_XY = (Formal("const int", "x"), Formal("const int", "y"))


class _Signature:
    """What every function of one lowered block agrees on: the plan
    geometry, its identifiers, and the order of its formals.

    The per-pixel bodies, the tile2d stage bodies and the driver all
    take the same families of arguments in the same order: input
    planes, params, scratch triplets, then (when polymorphic) the
    runtime geometry and one leading stride per plane.  Call sites pass
    the formals' own names.
    """

    def __init__(
        self,
        images: Sequence[str],
        params: Sequence[str],
        width: int,
        height: int,
        polymorphic: bool,
        f32: bool,
    ):
        used: set = set()
        self.width = width
        self.height = height
        self.polymorphic = polymorphic
        #: Float32 fast path: slots, literals and libm calls go single
        #: precision (loads/stores convert implicitly on assignment).
        self.f32 = f32
        self.ctype = "float" if f32 else "double"
        #: The plane extents as index expressions, chosen once per
        #: block: literals when the geometry is baked, the runtime
        #: formals otherwise.
        self.W = ident("width") if polymorphic else num(width)
        self.H = ident("height") if polymorphic else num(height)
        self.img_ids = {n: _identifier("in", n, used) for n in images}
        self.param_ids = {n: _identifier("p", n, used) for n in params}
        self.stride_ids = (
            {n: _identifier("st", n, used) for n in images}
            if polymorphic
            else {}
        )
        #: Per-image row pitch: the width, or — polymorphic — the
        #: plane's runtime leading-stride formal, so row-strided views
        #: bind zero-copy.
        self.pitches = {n: ident(s) for n, s in self.stride_ids.items()}

    def margin_hi(self, hi: int, axis: str) -> tuple:
        """An upper interior bound: a literal when the geometry is
        baked, a static margin off the runtime extent otherwise."""
        if not self.polymorphic:
            return num(hi)
        extent, sym = (
            (self.width, self.W) if axis == "x" else (self.height, self.H)
        )
        return sym if hi >= extent else paren(sub(sym, num(extent - hi)))

    def formals(
        self,
        images: Sequence[str],
        params: Sequence[str],
        producers: Sequence[int] = (),
    ) -> Tuple[Formal, ...]:
        out = [Formal("const double *", self.img_ids[n], True) for n in images]
        out += [Formal("const double", self.param_ids[n]) for n in params]
        for j in producers:
            out += [
                Formal(f"const {self.ctype} *", f"scr_{j}", True),
                Formal("const int", f"sx0_{j}"),
                Formal("const int", f"sy0_{j}"),
            ]
        if self.polymorphic:
            out += [Formal("const int", "width"), Formal("const int", "height")]
            out += [Formal("const int", self.stride_ids[n]) for n in images]
        return tuple(out)

    def pixel_fn(self, name: str, formals: tuple, body: tuple) -> Func:
        return Func(name, f"static inline {self.ctype}", formals + _XY, body)

    def driver_fn(self, name: str, formals: tuple, body: tuple) -> Func:
        return Func(
            name, "void", (_OUT,) + formals + (_THREADS,), body, ("threads",)
        )


def _row_major(y: tuple, pitch: tuple, x: tuple) -> tuple:
    """``(y) * pitch + (x)``."""
    return add(mul(paren(y), pitch), paren(x))


class _Body:
    """Builds one per-pixel body variant (interior or halo) from a tape.

    Coordinate and mask expressions are value-numbered per grid key, so
    shared resolve chains (the producer-result cache's grids) land in
    one ``const int`` temporary each.
    """

    def __init__(
        self,
        interior: bool,
        sig: _Signature,
        scratch: Optional[Dict[str, Tuple[str, str, str, int]]] = None,
    ):
        self.interior = interior
        self.sig = sig
        #: Overlapped-tiling scratch redirection: image name ->
        #: ``(buffer, sx0, sy0, pitch)`` for intermediates materialized
        #: per-tile.  Reads subtract the region origin and use the
        #: compile-time scratch pitch.
        self.scratch = scratch or {}
        self.lines: list = []
        self._coords: Dict[tuple, tuple] = {}
        self._oobs: Dict[tuple, str] = {}
        self._counter = 0

    def extent(self, axis: str, n: int) -> tuple:
        """The index expression for an extent baked into a grid/mask key.

        In polymorphic mode the key's extent must equal the block's
        iteration-space extent on that axis — that is what makes the
        substitution by the runtime ``width`` / ``height`` parameter
        sound for every uniform geometry.  Mixed-geometry tapes have no
        polymorphic lowering.
        """
        sig = self.sig
        if not sig.polymorphic:
            return num(n)
        expected = sig.width if axis == "x" else sig.height
        if n != expected:
            raise NativeLoweringError(
                f"{axis}-axis extent {n} differs from the iteration "
                f"space ({expected}); shape-polymorphic lowering needs "
                "a uniform geometry"
            )
        return sig.W if axis == "x" else sig.H

    def _temp(self, expr: tuple) -> tuple:
        name = f"c{self._counter}"
        self._counter += 1
        self.lines.append(IntDecl(name, expr))
        return ident(name)

    @staticmethod
    def _outside(raw: tuple, n: tuple) -> tuple:
        """``(raw < 0 || raw >= n)``."""
        return paren(
            ("log", "||", ("cmp", "<", raw, num(0)), ("cmp", ">=", raw, n))
        )

    def coord(self, key: tuple) -> tuple:
        cached = self._coords.get(key)
        if cached is not None:
            return cached
        tag = key[0]
        if tag == "base":
            out = ident("x" if key[1] == "x" else "y")
        elif tag == "shift":
            out = paren(add(self.coord(key[1]), paren(num(key[2]))))
        elif tag == "resolve":
            parent = self.coord(key[1])
            if self.interior:
                out = parent
            else:
                _, _, n, mode = key
                n_sym = self.extent(_axis_of(key), n)
                if mode == "constant":
                    raw = self._temp(parent)
                    out = self._temp(
                        ("tern", self._outside(raw, n_sym), num(0), raw)
                    )
                else:
                    resolver = _RESOLVER_C.get(mode)
                    if resolver is None:
                        raise NativeLoweringError(
                            f"boundary mode {mode!r} has no native lowering"
                        )
                    out = self._temp(("call", resolver, (parent, n_sym)))
        else:
            raise NativeLoweringError(
                f"grid key {key!r} has no native lowering"
            )
        self._coords[key] = out
        return out

    def oob(self, key: tuple) -> str:
        """The ``const int`` temp holding an out-of-bounds test."""
        cached = self._oobs.get(key)
        if cached is not None:
            return cached
        _, parent, n = key
        n_sym = self.extent(_axis_of(parent), n)
        raw = self._temp(self.coord(parent))
        out = self._temp(self._outside(raw, n_sym))[1]
        self._oobs[key] = out
        return out

    def mask(self, key: tuple) -> str:
        if self.interior:
            return "0"
        _, xmask, ymask = key
        return f"({self.oob(xmask)} || {self.oob(ymask)})"

    def read(self, image: str, xi: tuple, yi: tuple, boundary) -> tuple:
        """The :class:`Slot` parts of one gather."""
        sig = self.sig
        width, height = sig.width, sig.height
        # ``resolve_key``'s identity collapse (an un-shifted base grid
        # inside ``[0, n)``) is shape-relative at uniform geometry, so
        # deciding it against the plan geometry is valid for every
        # geometry a polymorphic block can run at.
        #
        # A per-tile materialized intermediate resolves every
        # non-interior read through ``idx_clamp``: for CLAMP/UNDEFINED
        # that is the two-stage index exchange verbatim, and for
        # CONSTANT the clamped index is a safe in-region dummy whose
        # value the out-of-bounds guard discards — the margin ledger
        # proves the clamped coordinate stays inside the producer's
        # scratch region, where the tape's 0-index dummy could step
        # outside the tile.
        staged = self.scratch.get(image)
        if self.interior:
            xr, yr = self.coord(xi), self.coord(yi)
        else:
            mode = BoundaryMode.CLAMP if staged else boundary.mode
            xr = self.coord(resolve_key(xi, width, mode))
            yr = self.coord(resolve_key(yi, height, mode))
        if staged:
            buffer, sx0, sy0, pitch = staged
            index = _row_major(
                sub(paren(yr), ident(sy0)),
                num(pitch),
                sub(paren(xr), ident(sx0)),
            )
        else:
            buffer = sig.img_ids[image]
            index = _row_major(yr, sig.pitches.get(image, sig.W), xr)
        load = Load(buffer, index)
        if not self.interior and boundary.mode is BoundaryMode.CONSTANT:
            oob = self.mask(
                ("ormask", ("oob", xi, width), ("oob", yi, height))
            )
            fill = _double_literal(boundary.constant, sig.f32)
            return (f"({oob} ? {fill} : ", load, ")")
        return (load,)


def _build_tape_body(
    tape: Sequence,
    root: int,
    interior: bool,
    sig: _Signature,
    scratch: Optional[Dict[str, Tuple[str, str, str, int]]] = None,
) -> tuple:
    """The statements of one per-pixel function: coordinate temps, one
    slot per tape instruction, the return."""
    body = _Body(interior, sig, scratch)
    f32, ctype, param_ids = sig.f32, sig.ctype, sig.param_ids
    one, zero = ("1.0f", "0.0f") if f32 else ("1.0", "0.0")
    bin_c = _BIN_C_F32 if f32 else _BIN_C
    call_c = _CALL_C_F32 if f32 else _CALL_C
    for index, instr in enumerate(tape):
        op, args, aux = instr.op, instr.args, instr.aux
        parts = None
        if op == "const":
            expr = _double_literal(aux[0], f32)
        elif op == "param":
            # Parameters arrive as double formals; in f32 mode the slot
            # assignment rounds them to single precision exactly once.
            expr = param_ids[aux[0]]
        elif op == "gather":
            parts = body.read(*aux)
        elif op == "bin":
            template = bin_c.get(aux[0])
            if template is None:
                raise NativeLoweringError(
                    f"binary op {aux[0]!r} has no native lowering"
                )
            expr = template.format(f"s{args[0]}", f"s{args[1]}")
        elif op == "un":
            fabs = "fabsf" if f32 else "fabs"
            expr = (
                f"(-s{args[0]})"
                if aux[0] == "neg"
                else f"{fabs}(s{args[0]})"
            )
        elif op == "cmp":
            operator = _CMP_C.get(aux[0])
            if operator is None:
                raise NativeLoweringError(
                    f"comparison {aux[0]!r} has no native lowering"
                )
            expr = f"((s{args[0]} {operator} s{args[1]}) ? {one} : {zero})"
        elif op == "select":
            expr = f"((s{args[0]} != {zero}) ? s{args[1]} : s{args[2]})"
        elif op == "call":
            template = call_c.get(aux[0])
            if template is None:
                raise NativeLoweringError(
                    f"call {aux[0]!r} has no native lowering"
                )
            expr = template.format(*(f"s{slot}" for slot in args))
        elif op == "cast":
            if aux[0] == "float64":
                expr = f"s{args[0]}"
            elif aux[0] == "float32":
                # In f32 mode every slot already holds a float.
                expr = (
                    f"s{args[0]}" if f32 else f"((double)(float)s{args[0]})"
                )
            else:
                raise NativeLoweringError(
                    f"cast to {aux[0]!r} has no native lowering"
                )
        elif op == "maskfill":
            mask = body.mask(aux[0])
            if mask == "0":
                expr = f"s{args[0]}"
            else:
                fill = _double_literal(aux[1], f32)
                expr = f"({mask} ? {fill} : s{args[0]})"
        else:
            raise NativeLoweringError(
                f"tape op {op!r} has no native lowering"
            )
        body.lines.append(Slot(index, ctype, parts or (expr,)))
    body.lines.append(Return(root))
    return tuple(body.lines)


class _BlockSpec:
    """The lowered form of one block: loop-nest IR, its C text, and the
    call signature."""

    def __init__(
        self,
        fn_name: str,
        ir: Tuple[Func, ...],
        images: Tuple[str, ...],
        params: Tuple[str, ...],
        sig: _Signature,
        channels: int,
        tile2d: Optional[Tuple[int, int]] = None,
        hoisted: Tuple[dict, ...] = (),
    ):
        self.fn_name = fn_name
        #: The block's functions as :mod:`repro.backend.loopnest` trees —
        #: what the sanitizer proves.
        self.ir = ir
        #: The C text of ``ir`` — what the compiler reads.
        self.source = block_text(ir)
        self.images = images
        self.params = params
        self.width = sig.width
        self.height = sig.height
        self.channels = channels
        self.polymorphic = sig.polymorphic
        #: The (tile_h, tile_w) of a 2D overlapped-tiling lowering, or
        #: ``None`` for the classic row-tiled form.
        self.tile2d = tile2d
        #: Window-invariant hoisting decisions of the tile2d lowering
        #: (see :func:`_hoist_window_invariants`); empty for classic.
        self.hoisted = hoisted
        #: Whether the per-pixel arithmetic runs in single precision
        #: (``REPRO_NATIVE_F32``); plane I/O stays float64 either way.
        self.f32 = sig.f32


def _pixel_fns(
    sig: _Signature,
    halo: str,
    inner: str,
    formals: Tuple[Formal, ...],
    tape: Sequence,
    root: int,
    scratch: Optional[dict] = None,
    full_plane_too: bool = True,
) -> Tuple[List[Func], Optional[Tuple[int, int, int, int]]]:
    """The per-pixel functions of one tape: the ``halo`` body that is
    right everywhere and, when the tape has an interior, the clamp-free
    ``inner`` body with its in-plane band ``(xlo, xhi, ylo, yhi)``.

    ``full_plane_too=False`` skips an interior spanning the whole plane
    (a stencil-free tile2d stage: both bodies would be the same code).
    """
    functions = [
        sig.pixel_fn(
            halo, formals, _build_tape_body(tape, root, False, sig, scratch)
        )
    ]
    xlo, xhi, ylo, yhi = band = _interior_bounds(tape, sig.width, sig.height)
    full_plane = band == (0, sig.width, 0, sig.height)
    if xlo < xhi and ylo < yhi and (full_plane_too or not full_plane):
        functions.append(
            sig.pixel_fn(
                inner, formals, _build_tape_body(tape, root, True, sig, scratch)
            )
        )
        return functions, band
    return functions, None


def _store_of(buffer: str, index: tuple, halo: str, inner: str, formals):
    """``store(interior)`` for one sweep: ``buffer[index]`` computed by
    the ``halo`` or the ``inner`` per-pixel function, which is passed
    its formals' own names and the pixel coordinate."""
    actuals = tuple(formal.name for formal in formals + _XY)
    return lambda interior: Store(
        buffer, index, inner if interior else halo, actuals
    )


def _row_sweep(
    store,
    full: Tuple[tuple, tuple],
    segments: Optional[Tuple[tuple, tuple, tuple]] = None,
    guard: Tuple[tuple, ...] = (),
    indent: int = 0,
) -> tuple:
    """The x-loops of one row of a sweep — the one three-segment split.

    ``store(interior)`` builds the per-pixel :class:`Store`.  Without
    ``segments`` the row is one halo loop over ``full``.  With them,
    rows inside ``guard`` split into halo / interior / halo loops over
    the three ``(lo, hi)`` segments and every other row takes the full
    halo loop.
    """

    def xloop(bounds, interior=False, shift=0):
        lo, hi = bounds
        return For("x", lo, hi, (store(interior),), "simd", shift)

    if segments is None:
        return (xloop(full, shift=indent),)
    left, middle, right = segments
    return (
        Guard(
            "y",
            guard[0],
            guard[1],
            (xloop(left), xloop(middle, True), xloop(right)),
            (xloop(full, shift=-indent),),
            indent,
        ),
    )


def _lower_block(
    plan: BlockPlan,
    fn_name: str,
    polymorphic: bool = False,
    graph: Optional[KernelGraph] = None,
    block: Optional[PartitionBlock] = None,
) -> _BlockSpec:
    """Lower one block tape to loop-nest IR (raises
    :class:`NativeLoweringError` when the tape has no lowering).

    With ``polymorphic=True`` the geometry becomes two runtime ``const
    int`` parameters and the emitted source carries no baked extents —
    byte-identical across resolutions of the same structure, so the
    content-hash ``.so`` cache dedupes the compile.  When the graph and
    partition block are known and ``REPRO_NATIVE_TILE2D`` is not
    ``off``, eligible fused chains take the 2D overlapped-tiling
    lowering instead; any ineligibility silently keeps the classic
    row-tiled form.
    """
    kernel = plan.destination
    if plan.apply_reduction and kernel.reduction is not None:
        raise NativeLoweringError(
            f"global operator {kernel.name!r} "
            f"({plan.destination.reduction.value}) has no native lowering"
        )
    f32 = native_f32_enabled()
    setting = native_tile2d_env()
    if setting != "off" and graph is not None and block is not None:
        try:
            return _lower_block_tile2d(
                plan, graph, block, fn_name, setting, polymorphic, f32
            )
        except NativeLoweringError:
            pass  # ineligible chain: classic row-tiled lowering below
    space = kernel.space
    width, height, channels = space.width, space.height, space.channels
    images, params, _ = _tape_reads(plan.tape, {})
    sig = _Signature(images, params, width, height, polymorphic, f32)
    W, H = sig.W, sig.H
    formals = sig.formals(images, params)
    names = (f"{fn_name}_halo", f"{fn_name}_interior")
    functions, band = _pixel_fns(sig, *names, formals, plan.tape, plan.root)
    xlo, xhi, ylo, yhi = band or (0, 0, 0, 0)

    # The interior margins are static (offset intervals of the grid
    # keys), so the upper bounds are expressible off the runtime
    # extents.  When the runtime image is smaller than the margins the
    # interior loop is simply empty and the flanking halo loops overlap
    # — both compute the (always-correct) halo body, so the overlap is
    # benign.
    xhi_sym = sig.margin_hi(xhi, "x")
    left_hi, right_lo = num(xlo), xhi_sym
    if polymorphic:
        # A runtime geometry smaller than the baked halo margins must
        # not let the flanking loops index past the plane: clamp the
        # left flank's bound to the runtime width, and the right
        # flank's start to zero.  At any geometry at least as wide as
        # the margins the clamps are identities, so behaviour (and the
        # differential check) is unchanged.
        if xlo > 0:
            left_hi = paren(min_of(num(xlo), W))
        if xhi < width:
            right_lo = paren(max_of(xhi_sym, num(0)))
    rows = _row_sweep(
        _store_of("out", add(mul(ident("y"), W), ident("x")), *names, formals),
        (num(0), W),
        ((num(0), left_hi), (num(xlo), xhi_sym), (right_lo, W))
        if band
        else None,
        (num(ylo), sig.margin_hi(yhi, "y")),
        indent=4,
    )
    tile = num(TILE_ROWS)
    tile_end = mul(paren(add(ident("t"), num(1))), tile)
    driver = (
        IntDecl(
            "n_tiles",
            paren(binop("/", paren(add(H, num(TILE_ROWS - 1))), tile))
            if polymorphic
            else num((height + TILE_ROWS - 1) // TILE_ROWS),
        ),
        For(
            "t",
            num(0),
            ident("n_tiles"),
            (
                IntDecl("y_end", min_of(tile_end, H)),
                For("y", mul(ident("t"), tile), ident("y_end"), rows),
            ),
            "parallel",
        ),
    )
    functions.append(sig.driver_fn(fn_name, formals, driver))
    return _BlockSpec(
        fn_name, tuple(functions), images, params, sig, channels
    )


#: Stage margins beyond this gain nothing from overlapped tiling — the
#: halo would dominate every candidate tile — so such chains keep the
#: classic row-tiled lowering.
_TILE2D_MAX_MARGIN = 32

#: Internal (producer→consumer) boundary modes whose per-tile scratch
#: reads resolve through ``idx_clamp`` with a margin-ledger containment
#: proof.  MIRROR/REPEAT on an internal edge would fold far-side values
#: into the halo ring, which a tile cannot see — classic fallback.
_TILE2D_INTERNAL_MODES = frozenset(
    {BoundaryMode.CLAMP, BoundaryMode.UNDEFINED, BoundaryMode.CONSTANT}
)


def _stage_tape(kernel) -> Tuple[list, int]:
    """Compile one member kernel standalone: every read (internal or
    external) lands as a plain ``gather`` with raw shifted coordinates,
    ready for scratch redirection at lowering."""
    compiler = _TapeCompiler(None, {}, False)
    gx, gy = _iteration_grids(kernel)
    root = compiler.expr(kernel.body, kernel, gx, gy, {})
    return compiler.tape, root


def _stage_margins(
    members: list, tapes: list, produced: Dict[str, int]
) -> List[List[int]]:
    """Per-stage halo margins ``[left, right, top, bottom]``.

    A consumer computed over its own margin reads each producer at the
    consumer's margin extended by the read's static offset interval;
    walking members in reverse topological order makes every consumer's
    ledger final before it propagates (producers always precede their
    consumers in ``ordered_vertices``).
    """
    margins: List[List[int]] = [[0, 0, 0, 0] for _ in members]
    for ci in range(len(members) - 1, -1, -1):
        cm = margins[ci]
        for instr in tapes[ci]:
            if instr.op != "gather":
                continue
            image, xi, yi, boundary = instr.aux
            pi = produced.get(image)
            if pi is None:
                continue
            if boundary.mode not in _TILE2D_INTERNAL_MODES:
                raise NativeLoweringError(
                    f"tile2d: internal boundary mode "
                    f"{boundary.mode.value!r} folds far-side values into "
                    "the halo; keeping the classic lowering"
                )
            xlo, xhi = _offsets(xi)
            ylo, yhi = _offsets(yi)
            pm = margins[pi]
            pm[0] = max(pm[0], cm[0] - xlo)
            pm[1] = max(pm[1], cm[1] + xhi)
            pm[2] = max(pm[2], cm[2] - ylo)
            pm[3] = max(pm[3], cm[3] + yhi)
    return margins


def _is_costly(node: Expr) -> bool:
    """A libm call or a division: what is worth computing once per
    pixel instead of once per window tap."""
    return isinstance(node, Call) or (
        isinstance(node, BinOp) and node.op == "div"
    )


def _single_reads(body: Expr) -> Dict[int, Tuple[object, bool]]:
    """Per subexpression of ``body``, by ``id``: the one
    :class:`InputAt` it reads (``None`` when it reads nothing, ``False``
    when it reads several) and whether it contains a costly operation.
    (Keyed by identity: hashing an expression walks its whole subtree.)"""
    facts: Dict[int, Tuple[object, bool]] = {}

    def visit(node: Expr) -> Tuple[object, bool]:
        fact = facts.get(id(node))
        if fact is None:
            if isinstance(node, InputAt):
                fact = (node, False)
            else:
                leaf, costly = None, _is_costly(node)
                for child in children(node):
                    child_leaf, child_costly = visit(child)
                    costly = costly or child_costly
                    if child_leaf is None:
                        continue
                    if leaf is None:
                        leaf = child_leaf
                    elif leaf != child_leaf:
                        leaf = False
                fact = (leaf, costly)
            facts[id(node)] = fact
        return fact

    visit(body)
    return facts


def _exact_value(stage: Kernel, image: str, constant: float) -> Optional[float]:
    """``stage``'s body at a pixel holding ``constant``, or ``None``
    unless C computes those very bits: no parameters, and a tape the
    pinned policy (:func:`tolerance_for`) already holds to bit-identity."""
    tape, root = _stage_tape(stage)
    compiled = BlockPlan(stage, tape, root, GridStore(), False, None)
    if tolerance_for([compiled]) is not None or any(
        instr.op == "param" for instr in tape
    ):
        return None
    plane = np.full((1, 1), constant, dtype=np.float64)
    return float(compiled.execute({image: plane})[0, 0])


def _split_member(kernel: Kernel, fresh_name) -> Tuple[List[Kernel], List[dict]]:
    """Split one member kernel into point stages plus its remainder.

    Returns the kernels that replace it, in order, and one note per
    group of taps: hoisted (``stage``) or left in place (``declined``).
    ``fresh_name(base)`` names a stage (its kernel and its image).
    """
    windowed = {
        image for image, offsets in kernel.reads().items() if len(offsets) > 1
    }
    if kernel.reduction is not None or not windowed:
        return [kernel], []
    facts = _single_reads(kernel.body)
    # A candidate, moved to the window centre, names its group: equal
    # keys are the same function of the same image at different taps.
    group_of: Dict[int, Tuple[str, Expr]] = {}
    taps: Dict[Tuple[str, Expr], set] = {}
    for node in walk(kernel.body):
        leaf, costly = facts[id(node)]
        if id(node) in group_of:
            continue  # a shared subtree, met again
        if costly and isinstance(leaf, InputAt) and leaf.image in windowed:
            key = (leaf.image, shift_offsets(node, -leaf.dx, -leaf.dy))
            group_of[id(node)] = key
            taps.setdefault(key, set()).add((leaf.dx, leaf.dy))
    if not group_of:
        return [kernel], []
    space = kernel.space
    stages: Dict[Tuple[str, Expr], Optional[Kernel]] = {}
    accessors = list(kernel.accessors)
    notes: List[dict] = []

    def stage_for(key: Tuple[str, Expr]) -> Optional[Kernel]:
        image, body = key
        accessor = kernel.accessor_for(image)
        mode, fill = accessor.boundary.mode, accessor.boundary.constant
        name = fresh_name(f"{kernel.name}_w{len(stages)}")
        stage = Kernel(
            name,
            [Accessor(accessor.image, accessor.boundary)],
            Image(name, space, kernel.output.bytes_per_pixel),
            body,
        )
        declined = None
        if accessor.image.space != space:
            declined = f"{image!r} has another geometry than the kernel"
        elif mode not in _TILE2D_INTERNAL_MODES:
            declined = (
                f"boundary mode {mode.value!r} folds far-side values "
                "into the halo, which a tile cannot see"
            )
        elif mode is BoundaryMode.CONSTANT:
            fill = _exact_value(stage, image, fill)
            if fill is None:
                declined = (
                    "the constant border would need f(constant) exactly "
                    "as C computes it"
                )
        note = {"kernel": kernel.name, "image": image, "taps": len(taps[key])}
        if declined is not None:
            notes.append({**note, "declined": declined})
            return None
        accessors.append(Accessor(stage.output, BoundarySpec(mode, fill)))
        notes.append({**note, "stage": name})
        return stage

    done: Dict[int, Expr] = {}

    def rewrite(node: Expr) -> Expr:
        """Top-down, so the largest hoistable subexpression wins."""
        out = done.get(id(node))
        if out is not None:
            return out
        key = group_of.get(id(node))
        stage = None
        if key is not None and len(taps[key]) >= 2:
            if key not in stages:
                stages[key] = stage_for(key)
            stage = stages[key]
        if stage is not None:
            leaf = facts[id(node)][0]
            out = InputAt(stage.output.name, leaf.dx, leaf.dy)
        else:
            kids = children(node)
            new_kids = tuple(rewrite(kid) for kid in kids)
            out = (
                node
                if all(a is b for a, b in zip(kids, new_kids))
                else rebuild(node, new_kids)
            )
        done[id(node)] = out
        return out

    body = rewrite(kernel.body)
    hoisted = [stage for stage in stages.values() if stage is not None]
    if not hoisted:
        return [kernel], notes
    remainder = Kernel(kernel.name, accessors, kernel.output, body)
    return hoisted + [remainder], notes


def _hoist_window_invariants(
    members: List[Kernel], graph: KernelGraph
) -> Tuple[List[Kernel], Tuple[dict, ...]]:
    """Window-invariant hoisting: the tile2d lowering's private view of
    a block's members, in which no libm value is computed twice.

    The paper prices fusing a point producer into a local consumer by
    the redundant computation it causes (phi, Eq. 10: the producer is
    re-evaluated once per window tap) and pays it down by staging in
    shared memory.  Tile2d stages what crosses a *kernel* edge; this
    rewrite finds the same redundancy *inside* one kernel.  A pure
    subexpression that reads a single pixel and contains a libm call or
    a division, applied at two or more taps of one image — ``log(in(dx,
    dy) + 1)`` under a 3x3 sum — becomes a point stage ``f(in(0, 0))``
    and the taps become reads of that stage through the kernel's own
    boundary mode for the image.  Index-exchange modes commute with a
    point function (``f(in[clamp(i)]) == f(in)[clamp(i)]``), so the
    values, and the order they are combined in, are those of the unsplit
    kernel — tile2d then computes ``f`` once per pixel of the stage's
    halo-extended tile (~1.13x at 32x32) instead of once per tap.

    The graph, the partition and the tape are not touched; the rewrite
    is geometry-free, so polymorphic sources stay byte-identical across
    resolutions.  Groups it must leave in place (MIRROR/REPEAT, a
    CONSTANT border whose ``f(constant)`` is not exact) are noted with
    the reason.
    """
    taken: set = set()

    def fresh_name(name: str) -> str:
        """``name``, suffixed until no kernel or image of the graph (or
        earlier stage) carries it."""
        if not taken:
            for kernel in map(graph.kernel, graph.kernel_names):
                taken.update((kernel.name, kernel.output.name))
                taken.update(kernel.input_names)
        while name in taken:
            name += "_"
        taken.add(name)
        return name

    out: List[Kernel] = []
    notes: List[dict] = []
    for member in members:
        kernels, member_notes = _split_member(member, fresh_name)
        out += kernels
        notes += member_notes
    return out, tuple(notes)


def _tile2d_stages(plan, graph, block, hoist: bool = True):
    """The eligibility front-half of the tile2d lowering.

    Returns the ordered chain members (after window-invariant hoisting,
    :func:`_hoist_window_invariants`), their per-stage tapes and roots,
    the halo-margin ledger, the produced-name index, the cost-model
    :class:`~repro.model.tiling.StageFootprint` list, and the hoisting
    notes.  Raises :class:`NativeLoweringError` for every ineligible
    block shape, so both the lowering and the ``repro tiling`` report
    agree on what keeps the classic form.
    """
    from repro.model.tiling import StageFootprint

    if plan.naive_borders:
        raise NativeLoweringError(
            "tile2d: naive-borders composition keeps the classic lowering"
        )
    members = [graph.kernel(name) for name in block.ordered_vertices()]
    hoisted: Tuple[dict, ...] = ()
    if hoist:
        members, hoisted = _hoist_window_invariants(members, graph)
    if len(members) < 2:
        declined = "; ".join(
            f"{note['image']}: {note['declined']}" for note in hoisted
        )
        raise NativeLoweringError(
            "tile2d: single-kernel blocks have no intermediates to tile"
            + (f" (hoisting declined for {declined})" if declined else "")
        )
    dest = plan.destination
    if members[-1].name != dest.name:
        raise NativeLoweringError(
            "tile2d: destination is not the chain's topological sink"
        )
    space = dest.space
    width, height, channels = space.width, space.height, space.channels
    for member in members:
        if member.reduction is not None:
            raise NativeLoweringError(
                f"tile2d: member {member.name!r} is a global operator"
            )
        for member_space in (member.space, member.output.space):
            shape = (
                member_space.width,
                member_space.height,
                member_space.channels,
            )
            if shape != (width, height, channels):
                raise NativeLoweringError(
                    "tile2d: member geometries are not uniform"
                )
    produced = {
        member.output.name: index
        for index, member in enumerate(members[:-1])
    }
    tapes: List[list] = []
    roots: List[int] = []
    for member in members:
        tape, root = _stage_tape(member)
        tapes.append(tape)
        roots.append(root)
    margins = _stage_margins(members, tapes, produced)
    if any(m > _TILE2D_MAX_MARGIN for per_stage in margins for m in per_stage):
        if any("stage" in note for note in hoisted):
            # The hoisted stage's wider halo tipped the chain over the
            # cap: the unsplit chain may still tile.
            return _tile2d_stages(plan, graph, block, hoist=False)
        raise NativeLoweringError(
            f"tile2d: stage margins exceed {_TILE2D_MAX_MARGIN}"
        )
    n = len(members)
    footprints = [
        StageFootprint(
            name=member.name,
            left=margins[index][0],
            right=margins[index][1],
            top=margins[index][2],
            bottom=margins[index][3],
            weight=float(len(tapes[index])),
            materialized=index < n - 1,
        )
        for index, member in enumerate(members)
    ]
    return members, tapes, roots, margins, produced, footprints, hoisted


def tile2d_report(
    graph: KernelGraph,
    partition: Partition,
    caches=None,
) -> List[dict]:
    """Per-block tile2d eligibility and model choices, without lowering.

    For each partition block: the block's output name, its member
    kernels, and either the cost model's :class:`TileChoice` (as a
    dict, with the ranked runner-up count) or the
    :class:`NativeLoweringError` reason the block keeps the classic
    row-tiled form.  A tiled block that window-invariant hoisting
    touched also lists its ``hoisted`` notes — each extra stage with
    its halo margin and recompute factor at the chosen tile, each
    declined group with the reason.  Used by ``repro tiling``; needs no
    C compiler.
    """
    from repro.model.tiling import sweep_tiles

    plan = plan_for_partition(graph, partition, naive_borders=False)
    schedule = block_schedule(graph, partition)
    report = []
    for block_plan, part_block in zip(plan.plans, schedule):
        entry = {
            "output": block_plan.output_name,
            "kernels": list(part_block.ordered_vertices()),
        }
        try:
            *_, footprints, hoisted = _tile2d_stages(
                block_plan, graph, part_block
            )
            ranked = sweep_tiles(footprints, caches=caches)
            if not ranked:
                raise NativeLoweringError(
                    "tile2d: no candidate tile shape fits the scratch caps"
                )
            best = ranked[0]
            entry["choice"] = {
                "tile": [best.height, best.width],
                "scratch_bytes": best.scratch_bytes,
                "recompute": best.recompute,
                "fits": best.fits,
                "cost": best.cost,
                "candidates": len(ranked),
            }
            if hoisted:
                stages = {stage.name: stage for stage in footprints}
                entry["hoisted"] = [
                    {
                        **note,
                        "margin": list(stages[note["stage"]].margin),
                        "recompute": stages[note["stage"]].recompute(
                            best.height, best.width
                        ),
                    }
                    if "stage" in note
                    else note
                    for note in hoisted
                ]
        except NativeLoweringError as err:
            entry["classic_reason"] = str(err)
        report.append(entry)
    return report


def _lower_block_tile2d(
    plan: BlockPlan,
    graph: KernelGraph,
    block: PartitionBlock,
    fn_name: str,
    setting: "str | Tuple[int, int]",
    polymorphic: bool,
    f32: bool,
) -> _BlockSpec:
    """Lower a fused local chain as 2D overlapped tiles.

    The plane is partitioned into (tile_h × tile_w) tiles; within each
    tile every non-destination stage is computed **once** per pixel of
    its halo-extended region into a small stack scratch buffer (instead
    of the fused tape's per-pixel producer recomputation), and the
    destination stage reads producers from scratch.  Stage values are
    pure functions of the (resolved) coordinate computed by the same
    ``-ffp-contract=off`` expression sequences the fused tape inlines,
    so the output is bit-identical to the classic lowering.

    Tile shape comes from :func:`repro.model.tiling.choose_tile`
    (``REPRO_NATIVE_TILE2D=auto``) or the knob's explicit ``HxW``; the
    model is geometry-free, so polymorphic sources stay byte-identical
    across resolutions.  Raises :class:`NativeLoweringError` for every
    ineligible shape — the caller falls back to the classic form.
    """
    from repro.model.tiling import (
        STACK_SCRATCH_CAP,
        choose_tile,
        scratch_bytes,
    )

    members, tapes, roots, margins, produced, footprints, hoisted = (
        _tile2d_stages(plan, graph, block)
    )
    space = plan.destination.space
    width, height, channels = space.width, space.height, space.channels

    # -- tile shape (model pick or the knob's explicit HxW) ---------------
    n = len(members)
    bpe = 4 if f32 else 8
    if setting == "auto":
        choice = choose_tile(footprints, bytes_per_element=bpe)
        if choice is None:
            raise NativeLoweringError(
                "tile2d: no candidate tile shape fits the scratch caps"
            )
        tile_h, tile_w = choice.height, choice.width
    else:
        tile_h, tile_w = setting
        need = scratch_bytes(footprints, tile_h, tile_w, bpe)
        if need > STACK_SCRATCH_CAP:
            raise NativeLoweringError(
                f"tile2d: explicit {tile_h}x{tile_w} tile needs {need} "
                f"bytes of stack scratch (cap {STACK_SCRATCH_CAP})"
            )
    pitch = [tile_w + m[0] + m[1] for m in margins[: n - 1]]
    rows = [tile_h + m[2] + m[3] for m in margins[: n - 1]]

    images, params, _ = _tape_reads(
        [i for tape in tapes for i in tape], produced
    )
    sig = _Signature(images, params, width, height, polymorphic, f32)
    W, H = sig.W, sig.H
    x, y, t, n_tx = ident("x"), ident("y"), ident("t"), ident("n_tx")
    x0, y0, x1, y1 = ident("x0"), ident("y0"), ident("x1"), ident("y1")

    def sweep(band, names, region, rows_of, store) -> list:
        """One stage's sweep of ``region`` x ``rows_of``.  A stage with
        an interior ``band`` is driven by the three-segment split: its
        four ``names`` decls clamp the band to the region, so the
        clamp-free body only runs where every resolver is the identity
        — bit-identical values, no per-read clamping in interior tiles.
        """
        lo, hi = region
        if band is None:
            return [For("y", *rows_of, _row_sweep(store, region))]
        a, l, ha, h = names
        rows = _row_sweep(
            store,
            region,
            ((lo, ident(l)), (ident(l), ident(h)), (ident(h), hi)),
            (num(band[2]), sig.margin_hi(band[3], "y")),
        )
        return [
            IntDecl(a, max_of(num(band[0]), lo)),
            IntDecl(l, min_of(ident(a), hi)),
            IntDecl(ha, min_of(sig.margin_hi(band[1], "x"), hi)),
            IntDecl(h, max_of(ident(ha), ident(l))),
            For("y", *rows_of, rows),
        ]

    # Per stage: its per-pixel functions, its scratch region (decls
    # first, for every stage), then its sweep (fills, then destination).
    functions: List[Func] = []
    regions: list = []
    sweeps: list = []
    for index in range(n):
        final = index == n - 1
        stage_images, stage_params, producers = _tape_reads(
            tapes[index], produced
        )
        formals = sig.formals(stage_images, stage_params, producers)
        scratch = {
            members[j].output.name: (
                f"scr_{j}", f"sx0_{j}", f"sy0_{j}", pitch[j]
            )
            for j in producers
        }
        names = (
            (f"{fn_name}_halo", f"{fn_name}_interior")
            if final
            else (f"{fn_name}_s{index}", f"{fn_name}_s{index}i")
        )
        stage_fns, band = _pixel_fns(
            sig,
            *names,
            formals,
            tapes[index],
            roots[index],
            scratch,
            full_plane_too=final,
        )
        functions += stage_fns
        if final:
            store = _store_of("out", add(mul(y, W), x), *names, formals)
            sweeps += sweep(
                band, ("ila", "il", "iha", "ih"), (x0, x1), (y0, y1), store
            )
            continue
        left, right, top, bottom = margins[index]
        sx0, sx1, sy0, sy1 = (
            ident(f"{name}_{index}") for name in ("sx0", "sx1", "sy0", "sy1")
        )
        regions += [
            ScratchDecl(f"scr_{index}", sig.ctype, rows[index] * pitch[index]),
            IntDecl(sx0[1], max_of(sub(x0, num(left)), num(0))),
            IntDecl(sx1[1], min_of(add(x1, num(right)), W)),
            IntDecl(sy0[1], max_of(sub(y0, num(top)), num(0))),
            IntDecl(sy1[1], min_of(add(y1, num(bottom)), H)),
        ]
        cell = add(
            mul(paren(sub(y, sy0)), num(pitch[index])), paren(sub(x, sx0))
        )
        sweeps += sweep(
            band,
            tuple(f"{name}_{index}" for name in ("fla", "fl", "fha", "fh")),
            (sx0, sx1),
            (sy0, sy1),
            _store_of(f"scr_{index}", cell, *names, formals),
        )

    # -- driver: tile grid, per-tile scratch regions, stage sweeps --------
    tile = [
        IntDecl("x0", mul(paren(binop("%", t, n_tx)), num(tile_w))),
        IntDecl("y0", mul(paren(binop("/", t, n_tx)), num(tile_h))),
        IntDecl("x1", min_of(add(x0, num(tile_w)), W)),
        IntDecl("y1", min_of(add(y0, num(tile_h)), H)),
        *regions,
        *sweeps,
    ]
    driver = (
        IntDecl("n_tx", binop("/", paren(add(W, num(tile_w - 1))), num(tile_w))),
        IntDecl("n_ty", binop("/", paren(add(H, num(tile_h - 1))), num(tile_h))),
        IntDecl("n_tiles", mul(n_tx, ident("n_ty"))),
        For("t", num(0), ident("n_tiles"), tuple(tile), "parallel"),
    )
    functions.append(sig.driver_fn(fn_name, sig.formals(images, params), driver))
    return _BlockSpec(
        fn_name,
        tuple(functions),
        images,
        params,
        sig,
        channels,
        tile2d=(tile_h, tile_w),
        hoisted=hoisted,
    )


def lower_block_source(
    plan: BlockPlan,
    fn_name: str = "repro_block",
    polymorphic: bool = False,
    graph: Optional[KernelGraph] = None,
    block: Optional[PartitionBlock] = None,
) -> str:
    """The standalone C source of one lowered block (inspection/tests).

    Passing the owning ``graph`` and ``block`` makes the 2D
    overlapped-tiling lowering reachable (it needs the member kernels,
    not just the fused tape).
    """
    spec = _lower_block(plan, fn_name, polymorphic, graph=graph, block=block)
    return _PREAMBLE + "\n" + spec.source


def _block_fn_name(index: int, plan: BlockPlan) -> str:
    return f"repro_block_{index}_" + re.sub(
        r"[^0-9A-Za-z_]", "_", plan.output_name
    )


def _lower_partition(
    graph: KernelGraph,
    partition: Partition,
    plan: PartitionPlan,
    polymorphic: bool = False,
) -> Tuple[List[Optional[_BlockSpec]], Dict[str, str]]:
    """Lower every block of ``plan``: one spec per block in schedule
    order (``None`` where the block has no lowering and stays on the
    tape), plus the reasons, keyed by block output name."""
    specs: List[Optional[_BlockSpec]] = []
    reasons: Dict[str, str] = {}
    # ``block_schedule`` orders partition blocks exactly as the tape
    # plan's ``plans`` — the member sets feed the tile2d lowering.
    for index, (block_plan, block) in enumerate(
        zip(plan.plans, block_schedule(graph, partition))
    ):
        try:
            specs.append(
                _lower_block(
                    block_plan,
                    _block_fn_name(index, block_plan),
                    polymorphic,
                    graph=graph,
                    block=block,
                )
            )
        except NativeLoweringError as err:
            specs.append(None)
            reasons[block_plan.output_name] = str(err)
    return specs, reasons


def lower_partition_source(
    graph: KernelGraph, partition: Partition, naive_borders: bool = False
) -> str:
    """The C the native engine runs for ``partition``: one function per
    block in schedule order, under one preamble — no compiler needed.

    A block the engine leaves to the tape (no lowering, e.g. a global
    reduction) appears as a one-line comment carrying the reason.
    """
    plan = plan_for_partition(graph, partition, naive_borders)
    specs, reasons = _lower_partition(graph, partition, plan)
    parts = [_PREAMBLE]
    for index, (block_plan, spec) in enumerate(zip(plan.plans, specs)):
        name = block_plan.output_name
        parts.append(
            spec.source
            if spec is not None
            else f"/* block {index} ({name}) runs on the tape engine: "
            f"{reasons[name]} */\n"
        )
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# ctypes wrappers
# ---------------------------------------------------------------------------

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


def _deinterleave(array: np.ndarray) -> np.ndarray:
    """An ``(H, W, C)`` image as contiguous ``(C, H, W)`` planes — one
    pass, whatever the source strides."""
    return np.ascontiguousarray(array.transpose(2, 0, 1))


def _interleave(planes: np.ndarray) -> np.ndarray:
    """Contiguous ``(C, H, W)`` planes as a contiguous ``(H, W, C)``
    image."""
    return np.ascontiguousarray(planes.transpose(1, 2, 0))


class NativeBlock:
    """One compiled block: the bound C function plus its tape fallback.

    ``execute`` drives the compiled loop nest on zero-copy ``float64``
    buffers (multi-channel images run channel plane by channel plane on
    a planar ``(C, H, W)`` twin); inputs that do not match the compiled
    geometry or dtype transparently fall back to the tape plan.
    """

    def __init__(
        self, plan: BlockPlan, spec: _BlockSpec, fn, openmp: bool = True
    ) -> None:
        self.plan = plan
        self.spec = spec
        self.output_name = plan.output_name
        #: Whether the library was compiled with ``-fopenmp``; without
        #: it the ``threads`` argument is dead and every call is serial.
        self.openmp = openmp
        #: The effective thread count of the most recent call.
        self.threads = 1
        self._fn = fn
        fn.restype = None
        fn.argtypes = (
            [_DOUBLE_P] * (1 + len(spec.images))
            + [ctypes.c_double] * len(spec.params)
            # width, height, one leading stride per plane, threads —
            # or just threads when the geometry is baked.
            + [ctypes.c_int]
            * ((3 + len(spec.images)) if spec.polymorphic else 1)
        )

    def execute(
        self,
        arrays: Arrays,
        params: Params | None = None,
        threads: int | None = None,
        side_by_side: int | None = None,
        planar: Optional[Dict[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Run the block; falls back to the tape plan when the bound
        arrays do not fit the compiled geometry/dtype.

        ``threads`` / ``side_by_side`` are
        :func:`resolve_native_threads`' arguments.  ``planar`` is the
        request's ``(C, H, W)`` twins by image name: a multi-channel
        block binds its inputs' twins (deinterleaving the ones that are
        missing) and leaves its output's twin there for its consumers.

        A shape-polymorphic block can only fall back at its *plan*
        geometry — the tape's grid keys are shape-specialized, so a
        fallback at a foreign geometry would compute the wrong image
        and raises instead.
        """
        try:
            return self._execute_native(
                arrays, params, threads, side_by_side, planar
            )
        except _RuntimeFallback as fallback:
            if self.spec.polymorphic and not self._fits_plan_geometry(
                arrays
            ):
                raise ExecutionError(
                    f"shape-polymorphic block {self.output_name!r} "
                    f"cannot fall back to the tape away from its plan "
                    f"geometry ({self.spec.height}x{self.spec.width}): "
                    f"{fallback.args[0]}"
                ) from None
            return self.plan.execute(arrays, params)

    def _fits_plan_geometry(self, arrays: Arrays) -> bool:
        spec = self.spec
        expected = (
            (spec.height, spec.width, spec.channels)
            if spec.channels > 1
            else (spec.height, spec.width)
        )
        return all(
            np.shape(_array_for(name, arrays)) == expected
            for name in spec.images
        )

    def _geometry(self, arrays: Arrays) -> Tuple[int, int]:
        """The runtime ``(height, width)`` of a polymorphic call.

        Inferred from the bound arrays, which must agree on one
        geometry (and carry the compiled channel count); an imageless
        block (pure generator) keeps its plan geometry.
        """
        spec = self.spec
        geometry: Optional[Tuple[int, int]] = None
        for name in spec.images:
            shape = np.shape(_array_for(name, arrays))
            if len(shape) not in (2, 3) or (
                len(shape) == 3 and shape[2] != spec.channels
            ):
                raise _RuntimeFallback(name)
            if geometry is None:
                geometry = shape[:2]
            elif shape[:2] != geometry:
                raise _RuntimeFallback(name)
        return geometry if geometry is not None else (
            spec.height,
            spec.width,
        )

    def _execute_native(
        self,
        arrays: Arrays,
        params: Params | None,
        threads: int | None,
        side_by_side: int | None,
        planar: Optional[Dict[str, np.ndarray]],
    ) -> np.ndarray:
        params = params or {}
        spec = self.spec
        channels = spec.channels
        if spec.polymorphic:
            height, width = self._geometry(arrays)
        else:
            height, width = spec.height, spec.width
        expected = (
            (height, width, channels) if channels > 1 else (height, width)
        )
        inputs = []
        for name in spec.images:
            array = _array_for(name, arrays)
            if array.dtype != np.float64 or array.shape != expected:
                raise _RuntimeFallback(name)
            inputs.append(array)
        values = []
        for name in spec.params:
            try:
                values.append(float(params[name]))
            except KeyError:
                raise ExecutionError(
                    f"unbound parameter {name!r}"
                ) from None
        thread_count = resolve_native_threads(
            threads, side_by_side, pixels=height * width
        )
        if channels == 1:
            out = np.empty((height, width), dtype=np.float64)
            self._call(out, inputs, values, thread_count, width, height)
            return out
        # Channels are bound once per request, not once per block: the
        # kernels read and write whole planes of the (C, H, W) twins.
        if planar is None:
            planar = {}
        twins = []
        for name, array in zip(spec.images, inputs):
            twin = planar.get(name)
            if twin is None:
                twin = planar[name] = _deinterleave(array)
            twins.append(twin)
        planes = np.empty((channels, height, width), dtype=np.float64)
        for c in range(channels):
            self._call(
                planes[c],
                [twin[c] for twin in twins],
                values,
                thread_count,
                width,
                height,
            )
        planar[self.output_name] = planes
        return _interleave(planes)

    def _bind_plane(self, array: np.ndarray) -> Tuple[np.ndarray, int]:
        """One input plane as ``(buffer, leading stride in elements)``.

        Shape-polymorphic kernels index every plane through a runtime
        per-plane stride, so any row-strided ``float64`` view — a crop,
        every other row of a larger frame — binds **zero-copy** as long
        as its rows are element-contiguous and non-overlapping; each
        avoided copy is tallied in :func:`noncontiguous_zero_copy_count`.
        Baked-geometry kernels hard-code the width as the pitch and
        still take the contiguous copy.
        """
        height, width = array.shape
        if array.flags.c_contiguous:
            return array, width
        s0, s1 = array.strides
        if (
            self.spec.polymorphic
            and s1 == 8
            and s0 % 8 == 0
            and s0 >= width * 8
        ):
            _note_zero_copy()
            return array, s0 // 8
        return np.ascontiguousarray(array), width

    def _call(
        self,
        out: np.ndarray,
        inputs: List[np.ndarray],
        params: List[float],
        threads: int,
        width: int,
        height: int,
    ) -> None:
        """Bind one output plane and its input planes and run the
        compiled function on ``threads`` threads (1 when the library
        has no OpenMP, or in a child forked from a threaded parent)."""
        global _team_started
        if not self.openmp or _serial_after_fork:
            threads = 1
        elif threads > 1:
            _team_started = True
        self.threads = threads
        bound = [self._bind_plane(plane) for plane in inputs]
        args = [out.ctypes.data_as(_DOUBLE_P)]
        args += [buffer.ctypes.data_as(_DOUBLE_P) for buffer, _ in bound]
        args += params
        if self.spec.polymorphic:
            args += [width, height]
            args += [stride for _, stride in bound]
        args.append(threads)
        self._fn(*args)


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
    (:func:`tolerance_for`).
    """

    def __init__(
        self,
        plan: PartitionPlan,
        blocks: List[Tuple[BlockPlan, Optional[NativeBlock]]],
        compile_ms: float,
        build: Optional[LibraryBuild],
        fallback_reasons: Dict[str, str],
        source: str | None,
        polymorphic: bool = False,
    ):
        self.plan = plan
        self.graph = plan.graph
        self.partition = plan.partition
        self.blocks = blocks
        #: Wall-clock spent lowering + compiling (0 when fully cached).
        self.compile_ms = compile_ms
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
        #: Kernel objects the build ran ``cc -c`` for / found in the
        #: object cache — 0 / 0 when the library itself was a hit.
        self.objects_compiled = build.objects_compiled if build else 0
        self.objects_reused = build.objects_reused if build else 0
        #: Per-output reasons for blocks that fell back to the tape.
        self.fallback_reasons = fallback_reasons
        #: Per-output window-invariant hoisting decisions of the tile2d
        #: lowering: one dict per stage split out of a member kernel
        #: (``stage``, ``kernel``, ``image``, ``taps``) or per group it
        #: left in place (``kernel``, ``image``, ``declined``).
        self.hoisted: Dict[str, Tuple[dict, ...]] = {
            block_plan.output_name: native.spec.hoisted
            for block_plan, native in blocks
            if native is not None and native.spec.hoisted
        }
        #: How many native blocks bind each image — a request drops an
        #: image's planar twin once its last reader has run.
        self._twin_readers = Counter(
            image
            for _, native in blocks
            if native is not None and native.spec.channels > 1
            for image in native.spec.images
        )
        #: The generated C source (``None`` when nothing was lowered).
        self.source = source
        #: Whether the compiled kernels take runtime width/height — one
        #: artifact then serves every resolution of this structure.
        self.polymorphic = polymorphic
        self.tolerance = tolerance_for([plan for plan, _ in blocks])
        self._verify = _VerifyOnce()

    @property
    def native_block_count(self) -> int:
        """Blocks running compiled code (the rest use the tape)."""
        return sum(1 for _, native in self.blocks if native is not None)

    @property
    def fallback_block_count(self) -> int:
        """Blocks executing through the tape interpreter."""
        return sum(1 for _, native in self.blocks if native is None)

    @property
    def threads(self) -> int:
        """The widest OpenMP team the most recent execution ran — the
        *effective* count: 1 when the toolchain has no OpenMP, whatever
        was asked for."""
        return max(
            (native.threads for _, native in self.blocks if native), default=1
        )

    def execute(
        self,
        inputs: Arrays,
        params: Params | None = None,
        workers: int | None = None,
        threads: int | None = None,
    ) -> Arrays:
        """Run every block; returns the surviving-image environment.

        ``workers`` dispatches *independent* blocks of the partition DAG
        on a thread pool, exactly as the tape engine does (``None``
        defers to ``REPRO_EXEC_WORKERS``).  Thread parallelism is real
        here: the compiled kernels run under ``ctypes.CDLL``, which
        releases the GIL for the duration of every call, so sibling
        blocks genuinely overlap on separate cores.  This composes with
        (and is orthogonal to) the intra-kernel OpenMP parallelism of
        ``REPRO_NATIVE_THREADS``, which splits one loop nest's row
        tiles; ``workers`` overlaps *different* loop nests.  Blocks
        connected by producer/consumer edges still run in dependence
        order, so results are bit-identical to the serial schedule.

        ``threads`` is the OpenMP team of each compiled call; ``None``
        is :func:`resolve_native_threads`' default — the environment
        knob, else this caller's share of the cores, which ``workers``
        divides further (two blocks side by side get half each).
        """
        workers = resolve_workers(workers)
        params = params or {}
        at_plan_geometry = self._at_plan_geometry(inputs)
        if self.polymorphic and not at_plan_geometry and self.blocks:
            if self.fallback_block_count:
                raise ExecutionError(
                    "shape-polymorphic plan has tape-fallback blocks "
                    f"({sorted(self.fallback_reasons)}) and cannot run "
                    "away from its plan geometry"
                )
        if at_plan_geometry:
            # Differential verification compares against the tape plan,
            # which is shape-specialized — it only makes sense at the
            # plan geometry; polymorphic executions at other geometries
            # leave verification pending for a matching call.
            result = self._verify.run(
                lambda: self._verified_first_pass(inputs, params, threads)
            )
            if result is not None:
                return result
        return self._execute_blocks(inputs, params, workers, threads)

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
            [native for _plan, native in self.blocks if native is not None]
        )
        self.sanitized = True

    def _at_plan_geometry(self, inputs: Arrays) -> bool:
        """Whether the bound arrays match the geometry planned for."""
        if not self.polymorphic or not self.blocks:
            return True
        space = self.blocks[0][0].destination.space
        expected = (space.height, space.width)
        return all(
            np.shape(a)[:2] == expected for a in inputs.values()
        )

    def _execute_blocks(
        self,
        inputs: Arrays,
        params: Params,
        workers: int = 1,
        threads: int | None = None,
    ) -> Arrays:
        """Dependence-ordered dispatch of the block DAG — ``self.blocks``
        is aligned with ``self.plan.plans``, so the tape plan's ``deps``
        indices apply verbatim."""
        # Pool threads do not inherit the caller's context, so the share
        # is settled here, on the caller's thread.
        side_by_side = _SIDE_BY_SIDE.get()
        if workers > 1 and len(self.blocks) > 1:
            side_by_side *= workers
        # The request's (C, H, W) twins: made on first bind, dropped
        # after the last block that binds them.
        planar: Dict[str, np.ndarray] = {}
        readers = Counter(self._twin_readers)
        readers_lock = threading.Lock()

        def run_one(index: int, env: Arrays, params: Params) -> np.ndarray:
            block_plan, native = self.blocks[index]
            if native is None:
                return block_plan.execute(env, params)
            result = native.execute(env, params, threads, side_by_side, planar)
            with readers_lock:
                readers.subtract(native.spec.images)
                for image in native.spec.images + (native.output_name,):
                    if readers[image] <= 0:
                        planar.pop(image, None)
            return result

        return run_block_dag(
            self.plan.deps,
            [block_plan.output_name for block_plan, _ in self.blocks],
            run_one,
            dict(inputs),
            params,
            workers,
        )

    def _verified_first_pass(
        self, inputs: Arrays, params: Params, threads: int | None = None
    ) -> Arrays:
        """A deterministic (serial) pass, differentially verified
        against the tape plan under :attr:`tolerance`."""
        result = self._execute_blocks(inputs, params, 1, threads)
        expected = self.plan.execute(dict(inputs), params)
        for block_plan, native in self.blocks:
            if native is None:
                continue  # the tape verified against itself is vacuous
            name = block_plan.output_name
            assert_native_equiv(
                expected[name], result[name], self.tolerance, context=name
            )
        return result


class NativeBlockPlan:
    """A single block under ``run_block`` semantics, native first.

    The native counterpart of
    :func:`repro.backend.plan.plan_for_block`'s result: runs the
    compiled loop nest when one exists, the tape otherwise, with the
    same strict-mode first-execution differential verification as
    :class:`NativePartitionPlan`.
    """

    def __init__(self, plan: BlockPlan, native: Optional[NativeBlock]):
        self.plan = plan
        self.native = native
        self.output_name = plan.output_name
        self.tolerance = tolerance_for([plan])
        self._verify = _VerifyOnce()

    def execute(
        self, arrays: Arrays, params: Params | None = None
    ) -> np.ndarray:
        """Run the block over bound arrays; returns the output array."""
        params = params or {}
        if self.native is None:
            return self.plan.execute(arrays, params)
        result = self.native.execute(arrays, params)
        self._verify.run(
            lambda: assert_native_equiv(
                self.plan.execute(arrays, params),
                result,
                self.tolerance,
                context=self.output_name,
            )
        )
        return result


# ---------------------------------------------------------------------------
# Plan construction + caches
# ---------------------------------------------------------------------------


def _native_flags(cc: str) -> Tuple[str, ...]:
    flags = ["-ffp-contract=off"]
    if openmp_available(cc):
        flags.append("-fopenmp")
    # Extra deployment/CI flags (e.g. -fsanitize=address,undefined);
    # they join the content-hash key and the plan-cache keys
    # (:func:`lowering_knobs`), so toggling them recompiles.
    flags.extend(native_cflags_env())
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


def _compile_specs(
    specs: List[Optional[_BlockSpec]],
) -> Tuple[Optional[ctypes.CDLL], Optional[str], Optional[LibraryBuild], bool]:
    """``(library, source, build, openmp)`` of the lowered specs: every
    block is its own translation unit (the text
    :func:`lower_block_source` returns) and its own entry of the object
    cache; ``source`` — all of them under one preamble — names the
    library.  ``openmp`` says whether the library's ``threads`` argument
    is live."""
    lowered = [spec for spec in specs if spec is not None]
    if not lowered:
        return None, None, None, False
    cc = _find_compiler()
    if cc is None:
        return None, None, None, False
    source = _PREAMBLE + "\n" + "\n".join(spec.source for spec in lowered)
    kernels = [_PREAMBLE + "\n" + spec.source for spec in lowered]
    flags = _native_flags(cc)
    _prefer_passive_omp_wait()
    library, build = load_kernel_library(source, kernels, cc, flags)
    return library, source, build, "-fopenmp" in flags


def _build_native_partition(
    graph: KernelGraph,
    partition: Partition,
    plan: PartitionPlan,
    polymorphic: bool = False,
) -> NativePartitionPlan:
    started = time.perf_counter()
    specs, reasons = _lower_partition(graph, partition, plan, polymorphic)
    library, source, build, openmp = _compile_specs(specs)
    blocks: List[Tuple[BlockPlan, Optional[NativeBlock]]] = []
    for block_plan, spec in zip(plan.plans, specs):
        if spec is None or library is None:
            if spec is not None:
                reasons.setdefault(
                    block_plan.output_name, "no C compiler on PATH"
                )
            blocks.append((block_plan, None))
            continue
        fn = getattr(library, spec.fn_name)
        blocks.append((block_plan, NativeBlock(block_plan, spec, fn, openmp)))
    compile_ms = (time.perf_counter() - started) * 1e3
    return NativePartitionPlan(
        plan, blocks, compile_ms, build, reasons, source, polymorphic
    )


def lowering_knobs() -> tuple:
    """The knobs lowering and compiling read from the environment
    (``REPRO_NATIVE_TILE2D``, ``REPRO_NATIVE_F32``,
    ``REPRO_NATIVE_CFLAGS``) — part of every cache key above a native
    plan, so changing one in-process rebuilds instead of serving the
    stale plan."""
    return (native_tile2d_env(), native_f32_enabled(), native_cflags_env())


def native_plan_for_partition(
    graph: KernelGraph,
    partition: Partition,
    naive_borders: bool = False,
    *,
    polymorphic: bool = False,
    proved_library: Optional[str] = None,
) -> NativePartitionPlan:
    """The (cached) native plan of a partition.

    Memoized on the graph beside its tape plan.  The underlying
    ``.so`` additionally lives in the cross-process content-hash cache,
    so a cache *miss* here usually still skips the C compiler.
    ``polymorphic=True`` compiles runtime-geometry kernels whose source
    — and therefore whose ``.so`` artifact — is shared by every
    resolution of the structure.  ``proved_library`` is the
    ``pipeline-<digest>`` stem a persisted plan record says the
    sanitizer already passed: a build whose generated source reproduces
    it is marked sanitized without running NAT001–004 again.
    """

    def build() -> NativePartitionPlan:
        fault_check("native.compile")
        native_plan = _build_native_partition(
            graph,
            partition,
            plan_for_partition(graph, partition, naive_borders),
            polymorphic,
        )
        library = native_plan.library_path
        if library is not None and library.stem == proved_library:
            native_plan.sanitized = True
        if validate_mode() == "strict":
            native_plan.ensure_sanitized()
        return native_plan

    return memo(
        graph,
        ("native", partition.signature(), bool(naive_borders), polymorphic)
        + lowering_knobs(),
        build,
    )


def _build_native_block(
    graph: KernelGraph, block: PartitionBlock, block_plan: BlockPlan
) -> NativeBlockPlan:
    try:
        spec = _lower_block(
            block_plan, _block_fn_name(0, block_plan), graph=graph, block=block
        )
    except NativeLoweringError:
        spec = None
    library, _, _, openmp = _compile_specs([spec])
    native = None
    if spec is not None and library is not None:
        native = NativeBlock(
            block_plan, spec, getattr(library, spec.fn_name), openmp
        )
    if native is not None and validate_mode() == "strict":
        _sanitize_natives([native])
    return NativeBlockPlan(block_plan, native)


def native_plan_for_block(
    graph: KernelGraph,
    block: PartitionBlock,
    naive_borders: bool = False,
) -> NativeBlockPlan:
    """The (cached) native plan of one block (``run_block``
    semantics: the destination body is never reduced)."""

    def build() -> NativeBlockPlan:
        fault_check("native.compile")
        return _build_native_block(
            graph, block, plan_for_block(graph, block, naive_borders)
        )

    return memo(
        graph,
        ("native-block", block.signature(), bool(naive_borders))
        + lowering_knobs(),
        build,
    )


def clear_native_caches() -> None:
    """Drop every memoized native plan (tests, knob changes) and empty
    the process-wide plan cache; tape plans and grid stores stay."""
    forget_plans(lambda key: key[0].startswith("native"))
