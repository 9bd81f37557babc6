"""Lowering: block tapes → loop-nest IR → C text.

Each :class:`~repro.backend.plan.BlockPlan` lowers to **one C
function**: a tile loop nest over a list of stages, whose per-pixel SSA
slots become ``const double`` register temporaries.  This module only
*writes* kernels — no compiler, no :mod:`ctypes`;
:mod:`repro.backend.native_exec` has the map.

**Tape → loop nest → C.**  The lowerings here are *builders* of the
small structured IR in :mod:`repro.backend.loopnest`; its printer turns
the tree into the C text that is compiled, and the sanitizer
(:mod:`repro.analysis.native_check`) proves the same tree — written
once, never parsed back.  ``_BlockSpec`` carries both forms.

The loop nest follows the paper's region analysis (Section IV-B): an
**interior** body where every boundary resolver is
provably the identity (direct loads, no branches), and a **halo** body
that replays the tape's index exchange exactly — ``idx_clamp`` /
``idx_mirror`` / ``idx_repeat`` resolvers and CONSTANT-mode masks are
bit-compatible with :func:`repro.dsl.boundary.resolve_array`.  Tiles
are the OpenMP work units (compiled in only when the toolchain supports
``-fopenmp``).  Every innermost x-loop carries ``#pragma omp simd`` so
the compiler vectorizes without reassociating (per-lane IEEE semantics
keep the bit-identity contract).

**One tile driver, a list of stages** (:func:`_lower_stages`).  The
fused tape recomputes every producer per consumer pixel — a depth-3
chain of 3×3 stencils evaluates the first stage ~49 times per output
pixel.  A fused local chain instead *materializes* each
non-destination stage **once** per pixel of a halo-extended 2D tile
into stack scratch (the CPU analogue of the paper's shared-memory
overlapped tiling, Section IV), the tile shape from the cost model in
:mod:`repro.model.tiling` or ``REPRO_NATIVE_TILE2D``'s explicit
``HxW``.  A block with nothing to materialize — a single kernel, or a
chain that cannot be staged (naive borders, MIRROR/REPEAT internal
edges, margins past the cap, no tile fits) — is the same driver with
one stage holding the fused tape, swept in *row bands*
(:data:`TILE_ROWS` rows, x untiled).  Before staging,
:func:`_hoist_window_invariants` splits a libm call or division one
kernel applies at several taps of an image into a point stage of its
own.  Every form is **bit-identical** to the tape interpreter; the
graph, partition and tape are untouched.

**Float32 fast path** (``REPRO_NATIVE_F32=on``, default off).  Plane
I/O stays float64; per-pixel slots, literals and libm calls run in
single precision (twice the SIMD lanes) under a wider pinned tolerance.

**Vector libm, one implementation per call.**  A libm call with a
libmvec variant on the host (``vector``, which the build probes) lowers
to ``repro_<fn>``, declared ``simd`` and ``const`` above the blocks that
call it; :func:`libmvec_support` writes the support unit whose vector
clones and scalar body evaluate that one SSE routine, so the ``omp
simd`` loops vectorize and lanes, scalar tails and halo bodies agree bit
for bit.  Without the variant the call stays scalar libm, and a block
without such a call prints exactly as before.

**Channels.**  A block over ``C``-channel images lowers once: every
global ``Load`` and the ``out`` ``Store`` carry the pixel stride ``C``
and the binder calls the kernel per channel at ``base + c``.

**Shape polymorphism.**  With ``polymorphic=True`` ``width`` / ``height``
are runtime ``const int`` parameters instead of baked literals: every
extent in the tape's grid keys is checked against the block's iteration
space and replaced by the matching symbol.  The C source is then
**byte-identical across resolutions** of one block structure, so the
content-hash ``.so`` cache compiles each structure once.  Blocks whose
tapes mix image geometries have no polymorphic lowering.
"""

from __future__ import annotations

import math
import re
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.envknobs import native_f32_enabled, native_tile2d_env

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
from repro.backend.numpy_exec import ExecutionError, block_schedule
from repro.backend.plan import (
    BlockPlan,
    GridStore,
    PartitionPlan,
    _TapeCompiler,
    _iteration_grids,
    plan_for_partition,
    resolve_key,
)
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.image import Image
from repro.dsl.kernel import Accessor, Kernel
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.ir.expr import BinOp, Call, Expr, InputAt
from repro.ir.traversal import children, rebuild, shift_offsets, walk

#: Rows per parallel tile of a row band (the OpenMP work unit) — large
#: enough to amortize scheduling, small enough to load-balance tall
#: images across threads.
TILE_ROWS = 64


class NativeLoweringError(ExecutionError):
    """A block tape has no native lowering (reduction, exotic cast).

    Raised by the lowering pass and caught by the plan builders, which
    fall back to the tape interpreter for the offending block.
    """


#: Tape ``call`` functions whose C lowering is bit-identical to NumPy:
#: IEEE 754 requires correctly-rounded sqrt and division, so ``sqrt``
#: and ``rsqrt`` (``1.0 / sqrt``) carry no tolerance.  Every other libm
#: function (exp, log, trig, pow, atan2) is only guaranteed to within a
#: few ulp of NumPy's implementation — glibc's scalar libm, or libmvec's
#: vector routine (≤ 4 ulp) where the host has one (:data:`VECTOR_CALLS`).
EXACT_CALLS = frozenset({"sqrt", "rsqrt"})

#: The tape calls glibc's libmvec vectorizes, with their arity.  Each is
#: the libm function of that name (``f`` suffix in single precision);
#: where the host has its libmvec variant (``vector``, probed by the
#: build) a kernel calls ``repro_<libm name>`` instead, whose vector
#: clones and scalar body all evaluate that one SSE routine
#: (:func:`libmvec_support`): the ``#pragma omp simd`` loops vectorize,
#: and a value's bits do not depend on whether a vector lane, a loop's
#: scalar tail or an out-of-line halo body computed it.
VECTOR_CALLS = {
    "exp": 1, "log": 1, "sin": 1, "cos": 1, "tan": 1, "tanh": 1,
    "pow": 2, "atan2": 2,
}

#: libm name -> its SSE routine in the x86-64 vector ABI (``b``: 128-bit
#: vectors, 2 double or 4 float lanes; one ``v`` per vector argument).
LIBMVEC_ROUTINES = {
    name + suffix: f"_ZGVbN{lanes}{'v' * arity}_{name}{suffix}"
    for name, arity in VECTOR_CALLS.items()
    for suffix, lanes in (("", 2), ("f", 4))
}


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

#: The wider clones gcc calls when the flags enable their ISA: x86-64
#: vector-ABI letter, the macro that says the ISA is on, 128-bit chunks.
_WIDE_CLONES = (("c", "__AVX__", 2), ("d", "__AVX2__", 2), ("e", "__AVX512F__", 4))

_SUPPORT_HEAD = """\
/* libmvec support: one implementation per call.  Every repro_<fn> a
 * kernel calls evaluates glibc's libmvec SSE routine for <fn>: its
 * vector clones on whole vectors (a wider clone, compiled only where
 * the flags enable its ISA, on each 128-bit chunk) and its scalar body
 * on lane 0 of a broadcast.  Defined under assembler names, so this
 * text also compiles after the kernels' simd declarations in one
 * translation unit. */
typedef double repro_v2d __attribute__((vector_size(16)));
typedef double repro_v4d __attribute__((vector_size(32)));
typedef double repro_v8d __attribute__((vector_size(64)));
typedef float repro_v4f __attribute__((vector_size(16)));
typedef float repro_v8f __attribute__((vector_size(32)));
typedef float repro_v16f __attribute__((vector_size(64)));
#define repro_hidden __attribute__((visibility("hidden")))
#define repro_wide1(W, V, n, clone, sse) repro_hidden W clone(W a) { \\
    union { W w; V v[n]; } r, x = {a}; \\
    for (int i = 0; i < n; i++) r.v[i] = sse(x.v[i]); \\
    return r.w; }
#define repro_wide2(W, V, n, clone, sse) repro_hidden W clone(W a, W b) { \\
    union { W w; V v[n]; } r, x = {a}, y = {b}; \\
    for (int i = 0; i < n; i++) r.v[i] = sse(x.v[i], y.v[i]); \\
    return r.w; }
"""


def _libm_signature(name: str) -> Tuple[str, int, int, str]:
    """``(ctype, arity, SSE lanes, vector type suffix)`` of a libm name
    in :data:`LIBMVEC_ROUTINES`."""
    f32 = name not in VECTOR_CALLS
    arity = VECTOR_CALLS[name[:-1] if f32 else name]
    return ("float", arity, 4, "f") if f32 else ("double", arity, 2, "d")


def libmvec_support(vector) -> str:
    """The support unit defining ``repro_<fn>`` — scalar body and vector
    clones — for every libm name in ``vector`` (the routines this host
    links and loads): one shared object, linked into every library whose
    kernels call one."""
    heads, bodies = [], []
    wide: Dict[str, List[str]] = {macro: [] for _, macro, _ in _WIDE_CLONES}
    for name in sorted(vector):
        routine = LIBMVEC_ROUTINES[name]
        ctype, arity, lanes, letter = _libm_signature(name)
        sse = f"repro_v{lanes}{letter}"
        names = "ab"[:arity]
        clone = f"{routine[:-len(name)]}repro_{name}"
        heads.append(f"{sse} {routine}({', '.join([sse] * arity)});")
        broadcast = " ".join(
            f"{sse} v{v} = {{{', '.join([v] * lanes)}}};" for v in names
        )
        bodies += [
            f"{ctype} repro_{name}_lane({', '.join([ctype] * arity)}) "
            f'__asm__("repro_{name}");',
            f"repro_hidden {ctype} repro_{name}_lane("
            f"{', '.join(f'{ctype} {v}' for v in names)}) {{ {broadcast} "
            f"return {routine}({', '.join(f'v{v}' for v in names)})[0]; }}",
            f"repro_hidden {sse} {clone}("
            f"{', '.join(f'{sse} {v}' for v in names)}) "
            f"{{ return {routine}({', '.join(names)}); }}",
        ]
        for abi, macro, chunks in _WIDE_CLONES:
            width = f"repro_v{lanes * chunks}{letter}"
            wide_clone = clone.replace(
                f"_ZGVbN{lanes}", f"_ZGV{abi}N{lanes * chunks}"
            )
            wide[macro].append(
                f"repro_wide{arity}({width}, {sse}, {chunks}, "
                f"{wide_clone}, {routine})"
            )
    lines = [_SUPPORT_HEAD.rstrip("\n"), *heads, *bodies]
    for macro, defs in wide.items():
        lines += [f"#ifdef {macro}", *defs, "#endif"]
    return "\n".join(lines) + "\n"


def _wrapper_decls(wrapped: Sequence[str]) -> str:
    """The kernel-side declarations of the ``repro_<fn>`` a block calls:
    ``simd`` (so gcc calls the vector clones the support unit defines)
    and ``const`` (so vectorizing them needs no ``-fno-math-errno``)."""
    if not wrapped:
        return ""
    lines = ["/* libm through libmvec: defined by the support unit. */"]
    for name in wrapped:
        ctype, arity, _, _ = _libm_signature(name)
        lines.append(
            f"{ctype} repro_{name}({', '.join([ctype] * arity)}) "
            '__attribute__((simd("notinbranch"), const));'
        )
    return "\n".join(lines) + "\n\n"


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
        channels: int = 1,
        vector: FrozenSet[str] = frozenset(),
    ):
        used: set = set()
        self.width = width
        self.height = height
        #: Elements between two pixels of a bound plane: the block's
        #: channel count.  Every global ``Load`` / ``Store`` carries it
        #: as its stride (tile scratch stays dense); pitches and
        #: indices keep counting pixels.
        self.channels = channels
        self.polymorphic = polymorphic
        #: Float32 fast path: slots, literals and libm calls go single
        #: precision (loads/stores convert implicitly on assignment).
        self.f32 = f32
        self.ctype = "float" if f32 else "double"
        #: The libm names with a libmvec variant on this host, and those
        #: the block's bodies call through their ``repro_<fn>`` wrapper.
        self.vector = vector
        self.wrapped: set = set()
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

    def pixel_fn(
        self, name: str, formals: tuple, body: tuple, inline: bool = True
    ) -> Func:
        linkage = "inline" if inline else "__attribute__((noinline))"
        return Func(name, f"static {linkage} {self.ctype}", formals + _XY, body)

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
            load = Load(
                buffer,
                _row_major(
                    sub(paren(yr), ident(sy0)),
                    num(pitch),
                    sub(paren(xr), ident(sx0)),
                ),
            )
        else:
            load = Load(
                sig.img_ids[image],
                _row_major(yr, sig.pitches.get(image, sig.W), xr),
                sig.channels,
            )
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
            libm = aux[0] + ("f" if f32 else "")
            if aux[0] in VECTOR_CALLS and libm in sig.vector:
                sig.wrapped.add(libm)
                template = f"repro_{template}"
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
    call signature (only that when bound from a plan record)."""

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
        #: The ``repro_<fn>`` libm wrappers the block calls (see
        #: :func:`libmvec_support`).
        self.wrapped = tuple(sorted(sig.wrapped))
        #: The C text of ``ir`` under the declarations of its wrappers —
        #: what the compiler reads.
        self.source = _wrapper_decls(self.wrapped) + block_text(ir) if ir else None
        self.images = images
        self.params = params
        self.width = sig.width
        self.height = sig.height
        self.channels = channels
        self.polymorphic = sig.polymorphic
        #: The (tile_h, tile_w) of a block that materializes stages, or
        #: ``None`` for the row band of one that materializes nothing.
        self.tile2d = tile2d
        #: Window-invariant hoisting decisions of a materializing block
        #: (see :func:`_hoist_window_invariants`); empty for a row band.
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

    A halo body with an interior twin runs only on the O(perimeter)
    border pixels, so it is an out-of-line call: inlined, the compiler
    vectorizes its gathers into every flank loop, ~30 % of ``cc`` time
    spent on a small share of the pixels.  A body without a twin is the only
    body its loop runs and stays inline, as does every interior body.
    """
    halo_body = _build_tape_body(tape, root, False, sig, scratch)
    xlo, xhi, ylo, yhi = band = _interior_bounds(tape, sig.width, sig.height)
    full_plane = band == (0, sig.width, 0, sig.height)
    if xlo < xhi and ylo < yhi and (full_plane_too or not full_plane):
        return [
            sig.pixel_fn(halo, formals, halo_body, inline=False),
            sig.pixel_fn(
                inner, formals, _build_tape_body(tape, root, True, sig, scratch)
            ),
        ], band
    return [sig.pixel_fn(halo, formals, halo_body)], None


def _store_of(
    buffer: str, index: tuple, halo: str, inner: str, formals, stride: int = 1
):
    """``store(interior)`` for one sweep: ``buffer[index]`` (pixels
    ``stride`` apart) computed by the ``halo`` or the ``inner``
    per-pixel function, which is passed its formals' own names and the
    pixel coordinate."""
    actuals = tuple(formal.name for formal in formals + _XY)
    return lambda interior: Store(
        buffer, index, inner if interior else halo, actuals, stride
    )


def _lower_block(
    plan: BlockPlan,
    fn_name: str,
    polymorphic: bool = False,
    graph: Optional[KernelGraph] = None,
    block: Optional[PartitionBlock] = None,
    vector: FrozenSet[str] = frozenset(),
) -> _BlockSpec:
    """Lower one block tape to loop-nest IR (raises
    :class:`NativeLoweringError` when the tape has no lowering).

    A block lowers to a list of stages swept by one tile driver
    (:func:`_lower_stages`).  When the graph and partition block are
    known, a fused local chain materializes every non-destination stage
    into per-tile scratch (:func:`_tile2d_stages`, the tile from
    :func:`_tile_shape`).  A block with nothing to materialize — a
    single kernel, or a chain those refuse — is one stage holding its
    fused tape, swept in row bands.

    With ``polymorphic=True`` the geometry becomes two runtime ``const
    int`` parameters and the emitted source carries no baked extents —
    byte-identical across resolutions of the same structure, so the
    content-hash ``.so`` cache dedupes the compile.  ``vector`` names the
    libm functions whose libmvec variant the build links (see
    :data:`VECTOR_CALLS`); calls of the others stay scalar libm.
    """
    kernel = plan.destination
    if plan.apply_reduction and kernel.reduction is not None:
        raise NativeLoweringError(
            f"global operator {kernel.name!r} "
            f"({plan.destination.reduction.value}) has no native lowering"
        )
    f32 = native_f32_enabled()
    stages = ([plan.tape], [plan.root], [], {}, None, ())
    if graph is not None and block is not None:
        try:
            _, tapes, roots, margins, produced, footprints, hoisted = (
                _tile2d_stages(plan, graph, block)
            )
            tile = _tile_shape(footprints, native_tile2d_env(), f32)
            stages = (tapes, roots, margins, produced, tile, hoisted)
        except NativeLoweringError:
            pass  # nothing to materialize: the row band over the fused tape
    return _lower_stages(kernel.space, fn_name, *stages, polymorphic, f32, vector)


#: Stage margins beyond this gain nothing from overlapped tiling — the
#: halo would dominate every candidate tile — so such chains materialize
#: nothing and lower as the row band.
_TILE2D_MAX_MARGIN = 32

#: Internal (producer→consumer) boundary modes whose per-tile scratch
#: reads resolve through ``idx_clamp`` with a margin-ledger containment
#: proof.  MIRROR/REPEAT on an internal edge would fold far-side values
#: into the halo ring, which a tile cannot see, so such a chain
#: materializes nothing.
_TILE2D_INTERNAL_MODES = frozenset(
    {BoundaryMode.CLAMP, BoundaryMode.UNDEFINED, BoundaryMode.CONSTANT}
)


def _stage_tape(kernel) -> Tuple[list, int]:
    """Compile one member kernel standalone: every read (internal or
    external) lands as a plain ``gather`` with raw shifted coordinates,
    ready for scratch redirection at lowering."""
    compiler = _TapeCompiler(None, {}, False)
    root = compiler.body(kernel, *_iteration_grids(kernel))
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
                    f"internal boundary mode {boundary.mode.value!r} "
                    "folds far-side values into the halo, which a tile "
                    "cannot see"
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
    unless C computes those very bits: float64 slots, no parameters,
    and no libm call outside :data:`EXACT_CALLS`."""
    tape, root = _stage_tape(stage)
    if native_f32_enabled() or any(
        instr.op == "param"
        or (instr.op == "call" and instr.aux[0] not in EXACT_CALLS)
        for instr in tape
    ):
        return None
    compiled = BlockPlan(stage, tape, root, GridStore(), False, None)
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
    """The stages a block materializes.

    Returns the ordered chain members (after window-invariant hoisting,
    :func:`_hoist_window_invariants`), their per-stage tapes and roots,
    the halo-margin ledger, the produced-name index, the cost-model
    :class:`~repro.model.tiling.StageFootprint` list, and the hoisting
    notes.  Raises :class:`NativeLoweringError` with the reason a block
    materializes nothing, so both the lowering and the ``repro tiling``
    report agree on which blocks are row bands.
    """
    from repro.model.tiling import StageFootprint

    if plan.naive_borders:
        raise NativeLoweringError(
            "naive-borders composition resolves borders once for the "
            "whole block, not per stage"
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
            "single-kernel blocks have no intermediates to tile"
            + (f" (hoisting declined for {declined})" if declined else "")
        )
    dest = plan.destination
    if members[-1].name != dest.name:
        raise NativeLoweringError(
            "destination is not the chain's topological sink"
        )
    space = dest.space
    width, height, channels = space.width, space.height, space.channels
    for member in members:
        if member.reduction is not None:
            raise NativeLoweringError(
                f"member {member.name!r} is a global operator"
            )
        for member_space in (member.space, member.output.space):
            shape = (
                member_space.width,
                member_space.height,
                member_space.channels,
            )
            if shape != (width, height, channels):
                raise NativeLoweringError(
                    "member geometries are not uniform"
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
            f"stage margins exceed {_TILE2D_MAX_MARGIN}"
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
    naive_borders: bool = False,
) -> List[dict]:
    """Per-block tiling decisions and model choices, without lowering.

    For each partition block: the block's output name, its member
    kernels, and either the cost model's :class:`TileChoice` (as a
    dict, with the ranked runner-up count) or the
    :class:`NativeLoweringError` reason the block materializes nothing
    and lowers as the row band (``row_band_reason``).  A tiled block
    that window-invariant hoisting touched also lists its ``hoisted``
    notes — each extra stage with its halo margin and recompute factor
    at the chosen tile, each declined group with the reason.  Used by
    ``repro tiling``; needs no C compiler.
    """
    from repro.model.tiling import sweep_tiles

    plan = plan_for_partition(graph, partition, naive_borders=naive_borders)
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
                raise NativeLoweringError(_NO_TILE_FITS)
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
            entry["row_band_reason"] = str(err)
        report.append(entry)
    return report


_NO_TILE_FITS = "no candidate tile shape fits the scratch caps"


def _tile_shape(
    footprints, setting: "str | Tuple[int, int]", f32: bool
) -> Tuple[int, int]:
    """The (tile_h, tile_w) a materializing chain takes: the cost
    model's pick from :func:`repro.model.tiling.choose_tile`
    (``REPRO_NATIVE_TILE2D=auto``) or the knob's explicit ``HxW``.  The
    model is geometry-free, so polymorphic sources stay byte-identical
    across resolutions.  Raises :class:`NativeLoweringError` when no
    shape fits the scratch caps."""
    from repro.model.tiling import STACK_SCRATCH_CAP, choose_tile, scratch_bytes

    bpe = 4 if f32 else 8
    if setting == "auto":
        choice = choose_tile(footprints, bytes_per_element=bpe)
        if choice is None:
            raise NativeLoweringError(_NO_TILE_FITS)
        return choice.height, choice.width
    tile_h, tile_w = setting
    need = scratch_bytes(footprints, tile_h, tile_w, bpe)
    if need > STACK_SCRATCH_CAP:
        raise NativeLoweringError(
            f"explicit {tile_h}x{tile_w} tile needs {need} bytes of stack "
            f"scratch (cap {STACK_SCRATCH_CAP})"
        )
    return tile_h, tile_w


def _lower_stages(
    space,
    fn_name: str,
    tapes: List[list],
    roots: List[int],
    margins: List[List[int]],
    produced: Dict[str, int],
    tile: Optional[Tuple[int, int]],
    hoisted: Tuple[dict, ...],
    polymorphic: bool,
    f32: bool,
    vector: FrozenSet[str],
) -> _BlockSpec:
    """The one tile driver: lower a list of stages over ``space``.

    Within each tile every stage but the last is computed **once** per
    pixel of its halo-extended region (``margins``) into a small stack
    scratch buffer, and the last stage — the destination — reads its
    producers (``produced``: image name -> stage index) from scratch
    instead of recomputing them per pixel as the fused tape does: the
    CPU analogue of the paper's shared-memory overlapped tiling
    (Section IV).  Stage values are pure functions of the (resolved)
    coordinate computed by the same ``-ffp-contract=off`` expression
    sequences the fused tape inlines, so the output is bit-identical
    to it.

    ``tile`` is the (tile_h, tile_w) of a 2D grid, or ``None`` for the
    row band of a block that materializes nothing: x untiled
    (``x0 = 0``, ``x1 = W``), :data:`TILE_ROWS` rows per tile.  With
    nothing resident there is nothing for a narrower tile to keep in
    cache, so the row band keeps the plain row-major loop order.
    ``hoisted`` is carried to the spec as the hoisting record, and
    ``vector`` is :func:`_lower_block`'s.
    """
    width, height, channels = space.width, space.height, space.channels
    n = len(tapes)

    tile_h, tile_w = tile or (0, 0)  # a row band has no scratch to size
    pitch = [tile_w + m[0] + m[1] for m in margins[: n - 1]]
    rows = [tile_h + m[2] + m[3] for m in margins[: n - 1]]

    images, params, _ = _tape_reads(
        [i for tape in tapes for i in tape], produced
    )
    sig = _Signature(
        images, params, width, height, polymorphic, f32, channels, vector
    )
    W, H = sig.W, sig.H
    x, y, t, n_tx = ident("x"), ident("y"), ident("t"), ident("n_tx")
    x0, y0, x1, y1 = ident("x0"), ident("y0"), ident("x1"), ident("y1")

    def sweep(band, names, region, rows_of, store) -> list:
        """One stage's sweep of ``region`` x ``rows_of``, ``store(interior)``
        building the per-pixel :class:`Store`.  A stage with an interior
        ``band`` is driven by the three-segment split: its four
        ``names`` decls clamp the band to the region, and rows inside
        the band's y-range split into halo / interior / halo x-loops, so
        the clamp-free body only runs where every resolver is the
        identity — bit-identical values, no per-read clamping in
        interior tiles.  Every other row is one halo x-loop.
        """

        def xloop(lo, hi, interior=False):
            return For("x", lo, hi, (store(interior),), "simd")

        if band is None:
            return [For("y", *rows_of, (xloop(*region),))]
        (lo, hi), (a, l, ha, h) = region, names
        split = Guard(
            "y",
            num(band[2]),
            sig.margin_hi(band[3], "y"),
            (
                xloop(lo, ident(l)),
                xloop(ident(l), ident(h), True),
                xloop(ident(h), hi),
            ),
            (xloop(lo, hi),),
        )
        return [
            IntDecl(a, max_of(num(band[0]), lo)),
            IntDecl(l, min_of(ident(a), hi)),
            IntDecl(ha, min_of(sig.margin_hi(band[1], "x"), hi)),
            IntDecl(h, max_of(ident(ha), ident(l))),
            For("y", *rows_of, (split,)),
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
            image: (f"scr_{j}", f"sx0_{j}", f"sy0_{j}", pitch[j])
            for image, j in produced.items()
            if j in producers
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
            store = _store_of(
                "out", add(mul(y, W), x), *names, formals, channels
            )
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
    if tile is None:
        rows_per_tile = num(TILE_ROWS)
        grid = (
            IntDecl(
                "n_tiles",
                binop("/", paren(add(H, num(TILE_ROWS - 1))), rows_per_tile),
            ),
        )
        origin = (
            IntDecl("x0", num(0)),
            IntDecl("y0", mul(t, rows_per_tile)),
            IntDecl("x1", W),
            IntDecl("y1", min_of(add(y0, rows_per_tile), H)),
        )
    else:
        grid = (
            IntDecl("n_tx", binop("/", paren(add(W, num(tile_w - 1))), num(tile_w))),
            IntDecl("n_ty", binop("/", paren(add(H, num(tile_h - 1))), num(tile_h))),
            IntDecl("n_tiles", mul(n_tx, ident("n_ty"))),
        )
        origin = (
            IntDecl("x0", mul(paren(binop("%", t, n_tx)), num(tile_w))),
            IntDecl("y0", mul(paren(binop("/", t, n_tx)), num(tile_h))),
            IntDecl("x1", min_of(add(x0, num(tile_w)), W)),
            IntDecl("y1", min_of(add(y0, num(tile_h)), H)),
        )
    driver = grid + (
        For(
            "t",
            num(0),
            ident("n_tiles"),
            origin + tuple(regions) + tuple(sweeps),
            "parallel",
        ),
    )
    functions.append(sig.driver_fn(fn_name, sig.formals(images, params), driver))
    return _BlockSpec(
        fn_name,
        tuple(functions),
        images,
        params,
        sig,
        channels,
        tile2d=tile,
        hoisted=hoisted,
    )


def _block_fn_name(index: int, output_name: str) -> str:
    return f"repro_block_{index}_" + re.sub(r"[^0-9A-Za-z_]", "_", output_name)


def _lower_partition(
    graph: KernelGraph,
    partition: Partition,
    plan: PartitionPlan,
    polymorphic: bool = False,
    vector: FrozenSet[str] = frozenset(),
) -> Tuple[List[Optional[_BlockSpec]], Dict[str, str]]:
    """Lower every block of ``plan``: one spec per block in schedule
    order (``None`` where the block has no lowering and stays on the
    tape), plus the reasons, keyed by block output name.  ``vector`` is
    :func:`_lower_block`'s."""
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
                    _block_fn_name(index, block_plan.output_name),
                    polymorphic,
                    graph=graph,
                    block=block,
                    vector=vector,
                )
            )
        except NativeLoweringError as err:
            specs.append(None)
            reasons[block_plan.output_name] = str(err)
    return specs, reasons
