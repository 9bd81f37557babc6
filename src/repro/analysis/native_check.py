"""Native-codegen sanitizer: static memory-safety proofs over the
loop-nest IR of every lowered block.

The native engine (:mod:`repro.backend.native_exec`) lowers each fused
block tape to one C loop nest and — under ``REPRO_VALIDATE=strict`` —
differentially verifies its *output* against the tape interpreter on
first execution.  That check sees values, not memory: an out-of-bounds
read that happens to land on plausible bytes, or an aliasing ``restrict``
violation that miscompiles only at higher optimization levels, can slip
through.  This module closes the gap **before first execution**.  Its
input is the :mod:`repro.backend.loopnest` tree the C text is printed
from (``NativeBlock.spec.ir``) — never the text — and for every
:class:`~repro.backend.loopnest.Load` in every body variant and every
:class:`~repro.backend.loopnest.Store` in the driver it proves:

* the pixel index is in the canonical row-major form ``Y * width + X``,
* ``0 <= X <= width - 1`` and ``0 <= Y <= height - 1`` hold for all
  iterations at the block's numeric extents, and
* its pixel stride is the block's channel count ``C`` (1 on tile
  scratch).

Every buffer the driver is called with is one channel of a ``float64``
``(height, width, C)`` image: the binder passes ``base + c`` for
``c < C`` (see :meth:`_Checker.check_pointers`), so the componentwise
proof at stride ``C`` is exactly the allocation bound.  The proofs run
in an interval domain over the block's numeric extents (sets of integer
bounds, so the runtime clamp ternaries keep both candidates), so no
compiler or execution is needed — ``repro lint --native`` works on hosts without a
toolchain.

Diagnostics:

* **NAT001** — an index proven *outside* its plane for some iteration.
* **NAT002** — an index that cannot be proven inside (unknown form,
  unprovable bound).  Soundness over completeness: honest lowerings are
  all provable, so NAT002 on real output is a codegen regression.
* **NAT003** — ``restrict`` pointer arguments that may alias (the block
  output appearing among its inputs), or a pointer formal missing its
  ``restrict`` qualifier.
* **NAT004** — the tree disagrees with its schedule (missing or extra
  bodies, a driver that is not the schedule's canonical form) or the
  schedule itself is malformed.

**The schedule is a certificate.**  Every lowered block carries the
schedule its driver was printed from (``spec.schedule``: the tile or
row band, each stage's ``(L, R, T, B)`` margins, interior band and
whether it is materialized).  The checker trusts none of it: it writes
the one canonical driver of that schedule itself — tile grid, per-tile
scratch regions (the tile grown by the stage's margins and clipped to
the plane, so never past the ``(th + T + B) x (tw + L + R)`` buffer),
dense region-relative fills, three-segment splits whose middle segment
alone calls a clamp-free body and stays inside the band — and requires
the tree's driver to be exactly that (NAT004 otherwise; a scratch
buffer smaller than its region is NAT001).  Then it proves what the
canonical form leaves open from the certificate's values: every
``out`` store in-plane, every interior body's raw reads in-plane over
its band, and every scratch subscript against the **margin ledger** —
a consumer with halo margins ``(Lc, Rc, Tc, Bc)`` may read a producer
at x-offset ``d`` only when ``Lp >= Lc - d`` and ``Rp >= Rc + d`` (and
the y analogue), exactly the containment invariant the builder's
reverse-topological ledger establishes.  A certificate that lies about
a margin, a band or the tile therefore fails one check or the other.

**What is trusted.**  The sanitizer reads the tree, the compiler reads
the text printed from it, so the printer joins the trusted base; the
lowering does not — the sanitizer imports nothing of it, and builds its
expected driver itself.  Three things pin the printer: the byte-identity
golden test (the printed C of every app and lowering equals what the
pre-IR emitter wrote, which the text-parsing sanitizer of that commit
accepted), a ``cc``-evaluated property test that printed index
expressions mean their trees, and the ASan/UBSan differential CI job.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, diag
from repro.backend.loopnest import (
    TILE_ROWS,
    For,
    Func,
    Guard,
    IntDecl,
    Load,
    ScratchDecl,
    Slot,
    Store,
    add,
    binop,
    block_text,
    expr_text,
    formal_text,
    ident,
    max_of,
    min_of,
    mul,
    num,
    strip_parens,
    sub,
)

__all__ = [
    "verify_native_blocks",
    "verify_native_plan",
]


# ---------------------------------------------------------------------------
# Interval bounds over the integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Iv:
    """An abstract integer: ``max(los) <= value <= min(his)``.

    Each side is a *set* of integer bounds (so the runtime clamp
    ternaries ``(a < b ? a : b)`` keep both candidates); an empty side
    is unbounded.  A bound is proven by any one member.
    """

    los: Tuple[int, ...] = ()
    his: Tuple[int, ...] = ()

    def ge_proven(self, bound: int) -> bool:
        return any(bound <= m for m in self.los)

    def le_proven(self, bound: int) -> bool:
        return any(m <= bound for m in self.his)


def _iv_point(a: int) -> _Iv:
    return _Iv((a,), (a,))


def _iv_add(a: _Iv, b: _Iv) -> _Iv:
    return _Iv(
        tuple(x + y for x in a.los for y in b.los),
        tuple(x + y for x in a.his for y in b.his),
    )


def _iv_neg(a: _Iv) -> _Iv:
    return _Iv(
        tuple(-m for m in a.his),
        tuple(-m for m in a.los),
    )


def _iv_scale(a: _Iv, k: int) -> _Iv:
    if k < 0:
        return _iv_scale(_iv_neg(a), -k)
    return _Iv(
        tuple(m * k for m in a.los),
        tuple(m * k for m in a.his),
    )


def _iv_join(a: _Iv, b: _Iv) -> _Iv:
    """Either branch of a ternary: keep bounds that cover both sides."""
    los = tuple(
        m
        for m in a.los + b.los
        if any(m <= n for n in a.los)
        and any(m <= n for n in b.los)
    )
    his = tuple(
        m
        for m in a.his + b.his
        if any(n <= m for n in a.his)
        and any(n <= m for n in b.his)
    )
    return _Iv(los, his)


_BOOL_IV = _Iv((0,), (1,))


# ---------------------------------------------------------------------------
# Index-tree shapes
# ---------------------------------------------------------------------------


def _linear(node: tuple) -> Optional[Tuple[Dict[str, int], int]]:
    """``({var: coeff}, constant)`` for a +/- linear AST, else ``None``."""
    kind = node[0]
    if kind == "num":
        return {}, node[1]
    if kind == "id":
        return {node[1]: 1}, 0
    if kind == "neg":
        inner = _linear(node[1])
        if inner is None:
            return None
        return {k: -v for k, v in inner[0].items()}, -inner[1]
    if kind == "bin" and node[1] in ("+", "-"):
        left = _linear(node[2])
        right = _linear(node[3])
        if left is None or right is None:
            return None
        sign = 1 if node[1] == "+" else -1
        coeffs = dict(left[0])
        for var, coeff in right[0].items():
            coeffs[var] = coeffs.get(var, 0) + sign * coeff
        coeffs = {k: v for k, v in coeffs.items() if v != 0}
        return coeffs, left[1] + sign * right[1]
    return None


def _unit_offset(node: tuple) -> Optional[Tuple[str, int]]:
    """``(var, d)`` when the AST is exactly ``var + d``, else ``None``."""
    lin = _linear(node)
    if lin is None:
        return None
    coeffs, constant = lin
    if len(coeffs) != 1:
        return None
    (var, coeff), = coeffs.items()
    return (var, constant) if coeff == 1 else None


# ---------------------------------------------------------------------------
# Abstract evaluation of index expressions
# ---------------------------------------------------------------------------

#: The boundary resolvers of the emitted preamble: each maps any input
#: index into ``[0, n - 1]``.
_RESOLVER_FNS = ("idx_clamp", "idx_mirror", "idx_repeat")


class _Eval:
    """Evaluates index ASTs to integer intervals.  Sources carry
    numeric extents, so an identifier has no exact value."""

    def point(self, node: tuple) -> Optional[int]:
        """The exact value of a node, or ``None``."""
        kind = node[0]
        if kind == "num":
            return node[1]
        if kind == "id":
            return None
        if kind == "neg":
            inner = self.point(node[1])
            return None if inner is None else -inner
        if kind == "bin" and node[1] in ("+", "-"):
            a, b = self.point(node[2]), self.point(node[3])
            if a is None or b is None:
                return None
            return a + b if node[1] == "+" else a - b
        if kind == "bin" and node[1] == "*":
            a, b = self.point(node[2]), self.point(node[3])
            if a is None or b is None:
                return None
            return a * b
        return None

    def interval(self, node: tuple, env: Dict[str, _Iv]) -> Optional[_Iv]:
        kind = node[0]
        if kind == "num":
            return _iv_point(node[1])
        if kind == "id":
            bound = env.get(node[1])
            if bound is not None:
                return bound
            point = self.point(node)
            return None if point is None else _iv_point(point)
        if kind == "neg":
            inner = self.interval(node[1], env)
            return None if inner is None else _iv_neg(inner)
        if kind == "bin":
            op = node[1]
            a = self.interval(node[2], env)
            b = self.interval(node[3], env)
            if a is None or b is None:
                return None
            if op == "+":
                return _iv_add(a, b)
            if op == "-":
                return _iv_add(a, _iv_neg(b))
            if op == "*":
                ka = self.point(node[2])
                kb = self.point(node[3])
                if ka is not None:
                    return _iv_scale(b, ka)
                if kb is not None:
                    return _iv_scale(a, kb)
                return None
            return None  # / and % never index in honest emissions
        if kind in ("cmp", "log"):
            return _BOOL_IV
        if kind == "tern":
            return self._ternary(node, env)
        if kind == "call":
            name, args = node[1], node[2]
            if name in _RESOLVER_FNS and len(args) == 2:
                extent = self.point(args[1])
                if extent is None:
                    return None
                return _Iv(
                    (0,), (extent - 1,)
                )
            return None
        return None

    def _ternary(self, node: tuple, env: Dict[str, _Iv]) -> Optional[_Iv]:
        _, cond, if_true, if_false = node
        # The CONSTANT-mode guard: (A < 0 || A >= N) ? 0 : A  ->  [0, N-1]
        if (
            cond[0] == "log"
            and cond[1] == "||"
            and cond[2][0] == "cmp"
            and cond[2][1] == "<"
            and cond[2][3] == ("num", 0)
            and cond[3][0] == "cmp"
            and cond[3][1] == ">="
            and cond[2][2] == cond[3][2]
            and if_false == cond[2][2]
            and if_true == ("num", 0)
        ):
            extent = self.point(cond[3][3])
            if extent is not None:
                return _Iv((0,), (extent - 1,))
        # Runtime clamps: (a < b ? a : b) == min, (a > b ? a : b) == max.
        if cond[0] == "cmp" and cond[1] in ("<", "<=", ">", ">="):
            lhs, rhs = cond[2], cond[3]
            a = self.interval(lhs, env)
            b = self.interval(rhs, env)
            if a is not None and b is not None:
                picks_min = cond[1] in ("<", "<=")
                if if_true == lhs and if_false == rhs:
                    return self._minmax(a, b, minimum=picks_min)
                if if_true == rhs and if_false == lhs:
                    return self._minmax(a, b, minimum=not picks_min)
        t = self.interval(if_true, env)
        f = self.interval(if_false, env)
        if t is None or f is None:
            return None
        return _iv_join(t, f)

    @staticmethod
    def _minmax(a: _Iv, b: _Iv, minimum: bool) -> _Iv:
        if minimum:
            # min(a, b) <= every upper bound of either side; its lower
            # bounds are those of one side that also bound the other.
            his = a.his + b.his
            los = tuple(
                m
                for m in a.los + b.los
                if any(m <= n for n in a.los)
                and any(m <= n for n in b.los)
            )
            return _Iv(los, his)
        los = a.los + b.los
        his = tuple(
            m
            for m in a.his + b.his
            if any(n <= m for n in a.his)
            and any(n <= m for n in b.his)
        )
        return _Iv(los, his)




# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


#: What an ``out`` store's index is compared as: the interval domain
#: proves it in-plane instead (:meth:`_Checker.check_index`).
_PROVEN = ("id", "<proven in-plane>")


@dataclass(frozen=True)
class _ScratchCtx:
    """What a body is allowed to read from per-tile scratch.

    ``consumer`` is the (L, R, T, B) halo margin of the body's own
    evaluation region (zero for the destination bodies); ``producers``
    maps stage index to its certified ``(L, R, T, B, pitch)``;
    ``raw`` permits unresolved coordinates (the interior body only).
    """

    consumer: Tuple[int, int, int, int]
    producers: Dict[int, Tuple[int, int, int, int, int]]
    raw: bool


class _Checker:
    def __init__(self, block):
        spec = block.spec
        self.fn_name = spec.fn_name
        self.functions: Dict[str, Func] = {fn.name: fn for fn in spec.ir}
        self.images = tuple(spec.images)
        self.channels = spec.channels
        self.output_name = block.output_name
        self.evaluator = _Eval()
        self.point = self.evaluator.point
        self.width = spec.width
        self.height = spec.height
        self.width_token = ("num", spec.width)
        self.width_limit = spec.width - 1
        self.height_limit = spec.height - 1
        #: Every pixel of the plane: the widest sound assumption.
        self.full_x = _Iv((0,), (self.width_limit,))
        self.full_y = _Iv((0,), (self.height_limit,))
        #: The untrusted certificate: how the lowering says it swept.
        self.schedule = spec.schedule
        self.ctype = "float" if spec.f32 else "double"
        #: Per materialized stage: its certified (L, R, T, B, pitch).
        self.producers: Dict[int, Tuple[int, int, int, int, int]] = {}
        #: The tree's scratch sizes, and its ``out`` stores so far.
        self.scratch: Dict[str, int] = {}
        self.stores = 0
        self.diagnostics: List[Diagnostic] = []

    def emit(self, code: str, message: str, path: str, **details) -> None:
        self.diagnostics.append(
            diag(
                code,
                message,
                kernel=self.output_name or self.fn_name,
                path=path,
                **details,
            )
        )

    # -- pointer discipline ----------------------------------------------

    def check_pointers(self) -> None:
        """The alias half of the binding contract.  The other half is
        what :meth:`check_index` relies on: ``NativeBlock`` calls the
        driver once per channel ``c < C`` with every pointer advanced to
        ``base + c`` of a ``(height, width, C)`` image, so ``H*W*C - c``
        elements lie behind it and a stride-``C`` access at a proven
        in-plane pixel — at most ``(H*W - 1) * C`` — stays inside."""
        if self.output_name is not None and self.output_name in self.images:
            self.emit(
                "NAT003",
                f"block output {self.output_name!r} is also an input "
                "plane: the restrict-qualified 'out' argument would "
                "alias an input pointer",
                self.fn_name,
                output=self.output_name,
            )
        for fn in self.functions.values():
            for formal in fn.formals:
                if formal.ctype.endswith("*") and not formal.restrict:
                    arg = formal_text(formal)
                    self.emit(
                        "NAT003",
                        f"pointer argument {arg!r} of {fn.name!r} is not "
                        "restrict-qualified; the no-alias contract the "
                        "optimizer relies on is undeclared",
                        fn.name,
                        argument=arg,
                    )

    # -- index proofs ------------------------------------------------------

    def check_index(
        self,
        index: tuple,
        env: Dict[str, _Iv],
        path: str,
        stride: int = 1,
    ) -> None:
        def fail(code: str, what: str, **details) -> None:
            text = expr_text(index)
            self.emit(
                code, what.format(index=repr(text)), path, index=text, **details
            )

        if stride != self.channels:
            fail(
                "NAT002",
                f"index {{index}} steps {stride} elements per pixel, but the "
                f"block's planes are bound as channels of a "
                f"{self.channels}-channel image; the plane bound only "
                "holds at that stride",
                stride=stride,
            )
            return
        ast = strip_parens(index)
        if not (
            ast[:2] == ("bin", "+")
            and ast[2][:2] == ("bin", "*")
            and ast[2][3] == self.width_token
        ):
            fail(
                "NAT002",
                "index {index} is not in row-major 'Y * width + X' form; "
                "its plane bound cannot be checked componentwise",
            )
            return
        checks = (
            ("x", ast[3], self.width, self.width_limit),
            ("y", ast[2][2], self.height, self.height_limit),
        )
        for axis, node, extent, limit in checks:
            interval = self.evaluator.interval(node, env)
            if interval is None:
                fail(
                    "NAT002",
                    f"{axis}-component of index {{index}} has no "
                    "provable bounds",
                    axis=axis,
                )
                continue
            below = any(m <= -1 for m in interval.his)
            above = any(extent <= m for m in interval.los)
            if below or above:
                fail(
                    "NAT001",
                    f"{axis}-component of index {{index}} is proven "
                    f"{'negative' if below else 'past the plane extent'}",
                    axis=axis,
                )
                continue
            if not interval.ge_proven(0):
                fail(
                    "NAT002",
                    f"{axis}-component of index {{index}} cannot be "
                    "proven >= 0",
                    axis=axis,
                )
            if not interval.le_proven(limit):
                fail(
                    "NAT002",
                    f"{axis}-component of index {{index}} cannot be "
                    f"proven <= {axis}-extent - 1",
                    axis=axis,
                )

    def check_body(
        self,
        fn: Func,
        x_iv: _Iv,
        y_iv: _Iv,
        scratch: _ScratchCtx,
    ) -> None:
        env: Dict[str, _Iv] = {"x": x_iv, "y": y_iv}
        symbols: Dict[str, tuple] = {}
        for number, stmt in enumerate(fn.body):
            kind = type(stmt)
            if kind is IntDecl:
                ast = symbols[stmt.name] = strip_parens(stmt.expr)
                value = self.evaluator.interval(ast, env)
                env[stmt.name] = value if value is not None else _Iv()
            elif kind is Slot:
                for part in stmt.parts:
                    if type(part) is not Load:
                        continue
                    where = f"{fn.name}:{number + 1}"
                    if part.buffer.startswith("scr_"):
                        self.check_scratch_index(
                            part, symbols, env, scratch, where
                        )
                    else:
                        self.check_index(
                            part.index, env, where, part.stride
                        )

    def check_scratch_index(
        self,
        load: Load,
        symbols: Dict[str, tuple],
        env: Dict[str, _Iv],
        scratch: _ScratchCtx,
        path: str,
    ) -> None:
        """Prove one scratch-buffer read against the margin ledger.

        A read of producer ``p`` from a consumer body with margins
        ``(Lc, Rc, Tc, Bc)`` is in-region exactly when the producer's
        margins absorb the consumer's evaluation region shifted by the
        read offset — ``Lp >= Lc - d`` and ``Rp >= Rc + d`` on x (the
        y analogue on top/bottom).  Coordinates must arrive clamped
        (``idx_clamp``) except in the interior body, where the raw
        offset is additionally proven in-plane.
        """
        buffer = load.buffer

        def fail(code: str, why: str) -> None:
            text = expr_text(load.index)
            self.emit(
                code,
                f"scratch read {buffer}[{text}] {why}",
                path,
                index=text,
                buffer=buffer,
            )

        if load.stride != 1:
            fail(
                "NAT002",
                f"steps {load.stride} elements per pixel; tile scratch "
                "is dense",
            )
            return
        try:
            producer = int(buffer[4:])
        except ValueError:
            fail("NAT002", "has a non-numeric stage suffix")
            return
        region = scratch.producers.get(producer)
        if region is None:
            fail("NAT002", "names a stage its schedule materializes no scratch for")
            return
        lp, rp, tp, bp, pitch = region
        lc, rc, tc, bc = scratch.consumer
        ast = strip_parens(load.index)
        if not (
            ast[:2] == ("bin", "+")
            and ast[2][:2] == ("bin", "*")
            and ast[2][3] == ("num", pitch)
            and ast[2][2][:2] == ("bin", "-")
            and ast[2][2][3] == ("id", f"sy0_{producer}")
            and ast[3][:2] == ("bin", "-")
            and ast[3][3] == ("id", f"sx0_{producer}")
        ):
            fail(
                "NAT002",
                "is not in the canonical "
                f"'(Y - sy0_{producer}) * {pitch} + (X - sx0_{producer})' "
                "form",
            )
            return
        components = (
            ("x", ast[3][2], self.width, lp - lc, rp - rc),
            ("y", ast[2][2][2], self.height, tp - tc, bp - bc),
        )
        for axis, node, extent, lo_slack, hi_slack in components:
            if node[0] == "id" and node[1] in symbols:
                node = symbols[node[1]]
            clamped = (
                node[0] == "call"
                and node[1] == "idx_clamp"
                and len(node[2]) == 2
            )
            if clamped:
                if self.point(node[2][1]) != extent:
                    fail(
                        "NAT002",
                        f"clamps its {axis}-coordinate against something "
                        "other than the plane extent",
                    )
                    continue
                inner = node[2][0]
            elif node[0] == "call":
                fail(
                    "NAT002",
                    f"resolves its {axis}-coordinate through "
                    f"{node[1]!r}; only idx_clamp keeps the ledger "
                    "containment argument",
                )
                continue
            else:
                inner = node
            offset = _unit_offset(inner)
            if offset is None or offset[0] != axis:
                fail(
                    "NAT002",
                    f"{axis}-coordinate is not a unit offset of {axis!r}",
                )
                continue
            d = offset[1]
            # Ledger containment: Lp >= Lc - d and Rp >= Rc + d (x),
            # Tp >= Tc - e and Bp >= Bc + e (y).
            if lo_slack < -d or hi_slack < d:
                fail(
                    "NAT001",
                    f"{axis}-offset {d:+d} exceeds the producer's halo "
                    f"margin over the consumer's evaluation region",
                )
                continue
            if not clamped and d != 0:
                # An un-shifted base coordinate (d == 0) is the loop
                # variable itself — inside the consumer's clipped
                # region by construction, so only the ledger check
                # above applies.  Shifted raw reads are an interior-
                # body privilege and must also be proven in-plane.
                if not scratch.raw:
                    fail(
                        "NAT002",
                        f"reads an unresolved {axis}-coordinate outside "
                        "the interior body",
                    )
                    continue
                interval = self.evaluator.interval(inner, env)
                limit = extent - 1
                if interval is None or not (
                    interval.ge_proven(0)
                    and interval.le_proven(limit)
                ):
                    fail(
                        "NAT002",
                        f"raw {axis}-coordinate cannot be proven "
                        "in-plane for the interior iteration space",
                    )

    # -- the certificate ---------------------------------------------------

    def malformed_schedule(self) -> Optional[str]:
        """Why the certificate describes no driver of the canonical form
        (``None`` when it does)."""
        try:
            tile, stages = self.schedule.tile, self.schedule.stages
            if not stages or [s.materialized for s in stages] != (
                [True] * (len(stages) - 1) + [False]
            ):
                return "its stages are not fills followed by the destination"
            if tuple(stages[-1].margins) != (0, 0, 0, 0):
                return "the destination is computed over more than its tile"
            if any(
                len(stage.margins) != 4 or min(stage.margins) < 0
                or (stage.band is not None and len(stage.band) != 4)
                for stage in stages
            ):
                return "a stage's margins or band are not four bounds"
            if tile is None and len(stages) > 1:
                return "a row band materializes no stage"
            if tile is not None and (len(tile) != 2 or min(tile) < 1):
                return f"its tile {tile!r} is not a shape"
        except (AttributeError, TypeError, ValueError):
            return "it cannot be read"
        return None

    def bodies(self, index: int, stage) -> Tuple[str, str]:
        """The halo and interior body names of the schedule's stage."""
        if stage.materialized:
            return f"{self.fn_name}_s{index}", f"{self.fn_name}_s{index}i"
        return f"{self.fn_name}_halo", f"{self.fn_name}_interior"

    def arguments(self, callee: str) -> Tuple[str, ...]:
        """What a store passes ``callee``: the names of its formals, each
        bound to the driver's formal or local of that name — so no body
        reads one scratch buffer through another's formal and pitch."""
        fn = self.functions.get(callee)
        return tuple(formal.name for formal in fn.formals) if fn else ()

    def canonical_driver(self) -> tuple:
        """The driver body the certificate describes, in the one form
        whose safety this checker argues — written here, not taken from
        the lowering: a ``ceil(H/th)`` x ``ceil(W/tw)`` tile grid (x
        untiled for a row band) with each tile's ``[x0, x1) x [y0, y1)``
        clipped to the plane; per materialized stage ``k`` a region
        ``[sx0_k, sx1_k) x [sy0_k, sy1_k)``, the tile grown by the
        stage's margins and clipped to the plane, so at most
        ``(th + T + B) x (tw + L + R)`` — the scratch size — filled at
        the dense region-relative cell; and every stage with a band
        swept in three segments whose middle one, the only call of the
        clamp-free body, runs inside the band."""
        schedule = self.schedule
        W, H = num(self.width), num(self.height)
        x, y, t, n_tx = ident("x"), ident("y"), ident("t"), ident("n_tx")
        x0, y0, x1, y1 = ident("x0"), ident("y0"), ident("x1"), ident("y1")
        rows, cols = schedule.tile or (TILE_ROWS, None)

        def tiles(extent, size):
            return binop("/", add(extent, num(size - 1)), num(size))

        def sweep(k, stage, names, region, rows_of, buffer, index, stride):
            halo, inner = self.bodies(k, stage)

            def xloop(lo, hi, callee=halo):
                store = Store(buffer, index, callee, self.arguments(callee), stride)
                return For("x", lo, hi, (store,), "simd")

            if stage.band is None:
                return [For("y", *rows_of, (xloop(*region),))]
            (lo, hi), (a, l, ha, h) = region, names
            xlo, xhi, ylo, yhi = stage.band
            segments = (
                xloop(lo, ident(l)),
                xloop(ident(l), ident(h), inner),
                xloop(ident(h), hi),
            )
            split = Guard("y", num(ylo), num(yhi), segments, (xloop(lo, hi),))
            return [
                IntDecl(a, max_of(num(xlo), lo)),
                IntDecl(l, min_of(ident(a), hi)),
                IntDecl(ha, min_of(num(xhi), hi)),
                IntDecl(h, max_of(ident(ha), ident(l))),
                For("y", *rows_of, (split,)),
            ]

        if cols is None:
            grid = (IntDecl("n_tiles", tiles(H, rows)),)
            origin = (
                IntDecl("x0", num(0)),
                IntDecl("y0", mul(t, num(rows))),
                IntDecl("x1", W),
            )
        else:
            grid = (
                IntDecl("n_tx", tiles(W, cols)),
                IntDecl("n_ty", tiles(H, rows)),
                IntDecl("n_tiles", mul(n_tx, ident("n_ty"))),
            )
            origin = (
                IntDecl("x0", mul(binop("%", t, n_tx), num(cols))),
                IntDecl("y0", mul(binop("/", t, n_tx), num(rows))),
                IntDecl("x1", min_of(add(x0, num(cols)), W)),
            )
        body = [*origin, IntDecl("y1", min_of(add(y0, num(rows)), H))]
        sweeps: list = []
        for k, stage in enumerate(schedule.stages):
            if not stage.materialized:
                sweeps += sweep(
                    k, stage, ("ila", "il", "iha", "ih"), (x0, x1), (y0, y1),
                    "out", _PROVEN, self.channels,
                )
                continue
            left, right, top, bottom = stage.margins
            sx0, sx1, sy0, sy1 = (
                ident(f"{name}_{k}") for name in ("sx0", "sx1", "sy0", "sy1")
            )
            pitch = cols + left + right
            self.producers[k] = (left, right, top, bottom, pitch)
            body += [
                ScratchDecl(f"scr_{k}", self.ctype, (rows + top + bottom) * pitch),
                IntDecl(sx0[1], max_of(sub(x0, num(left)), num(0))),
                IntDecl(sx1[1], min_of(add(x1, num(right)), W)),
                IntDecl(sy0[1], max_of(sub(y0, num(top)), num(0))),
                IntDecl(sy1[1], min_of(add(y1, num(bottom)), H)),
            ]
            sweeps += sweep(
                k, stage, tuple(f"{n}_{k}" for n in ("fla", "fl", "fha", "fh")),
                (sx0, sx1), (sy0, sy1),
                f"scr_{k}", add(mul(sub(y, sy0), num(pitch)), sub(x, sx0)), 1,
            )
        parallel = "parallel" if schedule.parallel else None
        tile_loop = For("t", num(0), ident("n_tiles"), tuple(body + sweeps), parallel)
        return grid + (tile_loop,)

    def canonical(self, stmt):
        """A tree statement as it is compared: parens stripped, and
        every ``out`` store's index proven in-plane
        (the canonical loops keep ``x`` and ``y`` inside the plane) and
        then compared as :data:`_PROVEN`."""
        kind = type(stmt)
        if kind is IntDecl:
            return IntDecl(stmt.name, strip_parens(stmt.expr))
        if kind is For:
            lo, hi = strip_parens(stmt.lo), strip_parens(stmt.hi)
            return For(stmt.var, lo, hi, tuple(map(self.canonical, stmt.body)), stmt.pragma)
        if kind is Guard:
            return Guard(
                stmt.var, strip_parens(stmt.lo), strip_parens(stmt.hi),
                tuple(map(self.canonical, stmt.then)),
                tuple(map(self.canonical, stmt.orelse)),
            )
        if kind is ScratchDecl:
            self.scratch[stmt.name] = stmt.size
        elif kind is Store and stmt.buffer == "out":
            self.stores += 1
            plane = {"x": self.full_x, "y": self.full_y}
            where = f"{self.fn_name}:store {self.stores}"
            self.check_index(stmt.index, plane, where, stmt.stride)
            return stmt._replace(index=_PROVEN)
        elif kind is Store:
            return stmt._replace(index=strip_parens(stmt.index))
        return stmt

    def check_driver(self, driver: Func) -> None:
        """The tree's driver is the certificate's canonical form (NAT004
        where it is not), and each scratch buffer holds its region
        (NAT001 where it is smaller)."""
        tree = tuple(map(self.canonical, driver.body))
        want = self.canonical_driver()
        if tree != want:
            got, expected = (
                block_text((Func(driver.name, "void", (), body),)).splitlines()
                for body in (tree, want)
            )
            line, has, says = next(
                (number, a.strip(), b.strip())
                for number, (a, b) in enumerate(
                    zip_longest(got, expected, fillvalue=""), 1
                )
                if a != b
            )
            self.emit(
                "NAT004",
                f"the driver disagrees with its schedule at line {line}: "
                f"the tree has {has!r} where the schedule has {says!r}",
                self.fn_name,
            )
        for decl in want[-1].body:
            if type(decl) is not ScratchDecl:
                continue
            size = self.scratch.get(decl.name)
            if size is not None and size < decl.size:
                self.emit(
                    "NAT001",
                    f"scratch buffer {decl.name} declares {size} elements "
                    f"but its clipped fill region needs up to {decl.size}",
                    self.fn_name,
                    buffer=decl.name,
                )

    # -- entry -------------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        functions, fn_name = self.functions, self.fn_name
        driver = functions.get(fn_name)
        if f"{fn_name}_halo" not in functions or driver is None:
            self.emit(
                "NAT004",
                f"block lacks the expected {fn_name!r} halo/driver functions",
                fn_name,
            )
            return self.diagnostics
        self.check_pointers()
        why = self.malformed_schedule()
        if why is not None:
            self.emit("NAT004", f"the block's schedule is malformed: {why}", fn_name)
            return self.diagnostics
        self.check_driver(driver)
        # Every body of the schedule, proven against its margins; the
        # clamp-free one over its band only, where the split calls it.
        listed = {fn_name}
        for k, stage in enumerate(self.schedule.stages):
            halo, inner = self.bodies(k, stage)
            bodies = [(halo, self.full_x, self.full_y, False)]
            if stage.band is not None:
                xlo, xhi, ylo, yhi = stage.band
                x_iv = _Iv((xlo,), (xhi - 1, self.width_limit))
                y_iv = _Iv((ylo,), (yhi - 1, self.height_limit))
                bodies.append((inner, x_iv, y_iv, True))
            for name, x_iv, y_iv, raw in bodies:
                listed.add(name)
                if name in functions:
                    scratch = _ScratchCtx(tuple(stage.margins), self.producers, raw)
                    self.check_body(functions[name], x_iv, y_iv, scratch)
        for name in sorted(set(functions) ^ listed):
            where = "not in the block's schedule" if name in functions else "missing"
            self.emit("NAT004", f"function {name!r} is {where}", fn_name)
        return self.diagnostics


def verify_native_blocks(blocks) -> List[Diagnostic]:
    """Check every compiled ``NativeBlock`` in ``blocks`` (NAT001–NAT004).

    ``blocks`` is an iterable of objects with a ``spec`` (whose ``ir`` is
    the block's loop-nest tree) and an ``output_name`` (tape-fallback
    entries, which have no native code, should be filtered out by the
    caller).
    """
    diagnostics: List[Diagnostic] = []
    for block in blocks:
        diagnostics.extend(_Checker(block).run())
    return diagnostics


def verify_native_plan(plan) -> List[Diagnostic]:
    """Check a ``NativePartitionPlan``.

    Tape-fallback blocks carry no native code and are skipped; a fully
    fallen-back plan therefore verifies vacuously (the tape interpreter
    indexes through NumPy, whose bounds are checked dynamically).
    """
    return verify_native_blocks(
        native for native in plan.natives if native is not None
    )
