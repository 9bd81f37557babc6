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
* **NAT004** — the tree does not have the expected loop-nest shape
  (missing bodies/driver, a perturbed tile/row loop, a store outside
  the recognized pattern).

One driver shape is recognized, the lowering's one tile driver: a
tile grid (2D, or a row band with x untiled), per-tile scratch buffers
filled by per-stage bodies (none for a block that materializes
nothing), then the destination's halo/interior sweep.  Every clip,
clamp and split bound of the driver is an ``IntDecl`` whose
*expression* is matched against the canonical grid/region/fill shape
(the safety argument is a meta-theorem over that shape: clipped
regions can never exceed the compile-time scratch extents), and every
scratch subscript inside a body is checked against
the driver's recovered **margin ledger** — a consumer with halo margins
``(Lc, Rc, Tc, Bc)`` may read a producer at x-offset ``d`` only when
``Lp >= Lc - d`` and ``Rp >= Rc + d`` (and the y analogue), which is
exactly the containment invariant the builder's reverse-topological
ledger establishes.

**What is trusted.**  The sanitizer reads the tree, the compiler reads
the text printed from it, so the printer joins the trusted base.  Three
things pin it: the byte-identity golden test (the printed C of every
app and lowering equals what the pre-IR emitter wrote, which the
text-parsing sanitizer of that commit accepted), a ``cc``-evaluated
property test that printed index expressions mean their trees, and the
ASan/UBSan differential CI job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, diag
from repro.backend.loopnest import (
    For,
    Func,
    Guard,
    IntDecl,
    Load,
    ScratchDecl,
    Slot,
    Store,
    expr_text,
    formal_text,
    strip_parens,
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


def _as_pick(expr: Optional[tuple], op: str) -> Optional[Tuple[tuple, tuple]]:
    """``(a, b)`` when ``expr`` is exactly ``a op b ? a : b`` — the
    runtime min (``<``) / max (``>``) every clip and split decl uses."""
    if (
        expr is not None
        and expr[0] == "tern"
        and expr[1][:2] == ("cmp", op)
        and expr[1][2] == expr[2]
        and expr[1][3] == expr[3]
    ):
        return expr[2], expr[3]
    return None


def _loops_over(stmt, var: str, lo: tuple, hi: tuple) -> bool:
    """Whether ``stmt`` is ``for (int var = lo; var < hi; ++var)``."""
    return (
        type(stmt) is For
        and stmt.var == var
        and strip_parens(stmt.lo) == lo
        and strip_parens(stmt.hi) == hi
    )


@dataclass(frozen=True)
class _ScratchCtx:
    """What a body is allowed to read from per-tile scratch.

    ``consumer`` is the (L, R, T, B) halo margin of the body's own
    evaluation region (zero for the destination bodies); ``producers``
    maps stage index to its driver-declared ``(L, R, T, B, pitch)``;
    ``raw`` permits unresolved coordinates (the interior body only).
    """

    consumer: Tuple[int, int, int, int]
    producers: Dict[int, Tuple[int, int, int, int, int]]
    raw: bool


class _DriverShapeError(Exception):
    """Internal bail-out: the tile driver deviated from the template."""


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
            fail("NAT002", "names a stage the driver declares no scratch for")
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

    # -- driver structure --------------------------------------------------

    def check_sweep(
        self,
        rows: tuple,
        env: Dict[str, _Iv],
        has_interior: bool,
        split: Optional[Tuple[_Iv, Tuple[tuple, tuple]]] = None,
    ) -> Optional[Tuple[_Iv, _Iv]]:
        """The guard / x-loop / store walk over the destination's row
        loop, whose ``y`` is proven inside the plane.

        Proves every ``out`` store in-plane for the x-range of its loop
        (evaluated under ``env``) and the y-range of its guard branch,
        and returns the proven ``(x_iv, y_iv)`` of the interior body's
        call site.  ``split`` is the template-proven ``(interior x_iv,
        (lo, hi) loop bounds)`` of the three-segment split: the interior
        body may only be called from exactly that segment.
        """
        path = self.fn_name
        halo, interior = f"{path}_halo", f"{path}_interior"
        interior_env: Optional[Tuple[_Iv, _Iv]] = None
        stores = 0

        def walk(stmts, x_iv, y_iv, bounds) -> None:
            nonlocal interior_env, stores
            for stmt in stmts:
                kind = type(stmt)
                if kind is Guard and stmt.var == "y" and stmt.lo[0] == "num":
                    upper = self.point(strip_parens(stmt.hi))
                    if upper is None:
                        self.emit(
                            "NAT004",
                            "unrecognized interior guard bound "
                            f"{expr_text(stmt.hi)!r}",
                            path,
                        )
                        upper = self.height
                    # The row loop proves y in [0, height - 1]; the
                    # guard narrows it for the branch it encloses.
                    inside = _Iv(
                        (stmt.lo[1],),
                        self.full_y.his + (upper - 1,),
                    )
                    walk(stmt.then, x_iv, inside, bounds)
                    walk(stmt.orelse, x_iv, self.full_y, bounds)
                elif kind is For and stmt.var == "x":
                    lo, hi = strip_parens(stmt.lo), strip_parens(stmt.hi)
                    init = self.evaluator.interval(lo, env)
                    bound = self.evaluator.interval(hi, env)
                    if init is None or bound is None:
                        self.emit(
                            "NAT004",
                            "unrecognized x-loop bounds: "
                            f"{expr_text(stmt.lo)!r} .. {expr_text(stmt.hi)!r}",
                            path,
                        )
                        inner = self.full_x
                    else:
                        inner = _Iv(
                            init.los,
                            tuple(
                                m - 1 for m in bound.his
                            ),
                        )
                    walk(stmt.body, inner, y_iv, (lo, hi))
                elif kind is Store and stmt.buffer == "out":
                    stores += 1
                    where = f"{path}:store {stores}"
                    if x_iv is None:
                        self.emit(
                            "NAT004", "store outside any x loop", where
                        )
                        x_iv = self.full_x
                    self.check_index(
                        stmt.index, {"x": x_iv, "y": y_iv}, where, stmt.stride
                    )
                    if stmt.callee == interior:
                        if split is not None and bounds == split[1]:
                            interior_env = (split[0], y_iv)
                        else:
                            self.emit(
                                "NAT004",
                                "the interior body is called outside the "
                                "split's interior segment",
                                where,
                            )
                    elif stmt.callee != halo:
                        self.emit(
                            "NAT004",
                            f"store calls unknown body {stmt.callee!r}",
                            where,
                        )
                else:
                    self.emit(
                        "NAT004",
                        f"unrecognized {kind.__name__} in the row sweep",
                        path,
                    )

        walk(rows, None, self.full_y, None)
        if stores == 0:
            self.emit("NAT004", "driver stores no output pixels", path)
        if has_interior and interior_env is None:
            self.emit(
                "NAT004",
                "an interior body is emitted but the driver never "
                "calls it",
                path,
            )
        return interior_env

    # -- the tile driver ---------------------------------------------------

    def malformed(self, why: str) -> None:
        self.emit("NAT004", f"tile driver: {why}", self.fn_name)
        raise _DriverShapeError

    def _scope(self, stmts: tuple):
        """One straight-line scope by name: its int decls (parens
        stripped), scratch decls, and loops in order."""
        decls: Dict[str, tuple] = {}
        scratch: Dict[str, ScratchDecl] = {}
        loops: List[For] = []
        for stmt in stmts:
            kind = type(stmt)
            if kind is IntDecl and stmt.name not in decls:
                decls[stmt.name] = strip_parens(stmt.expr)
            elif kind is ScratchDecl and stmt.name not in scratch:
                scratch[stmt.name] = stmt
            elif kind is For:
                loops.append(stmt)
            else:
                self.malformed(
                    f"unexpected or repeated {kind.__name__} "
                    f"{getattr(stmt, 'name', '')!r}"
                )
        return decls, scratch, loops

    def _margin(
        self, expr: Optional[tuple], op: str, origin: str, limit: int
    ) -> Optional[int]:
        """The margin ``m >= 0`` of one clipped region bound:
        ``origin - m > 0 ? origin - m : 0`` (``op`` ``-``, ``limit``
        zero) or ``origin + m < E ? origin + m : E`` (``op`` ``+``,
        ``limit`` the plane extent ``E``)."""
        pick = _as_pick(expr, ">" if op == "-" else "<")
        if (
            pick is not None
            and pick[0][:3] == ("bin", op, ("id", origin))
            and pick[0][3][0] == "num"
            and pick[0][3][1] >= 0
            and self.point(pick[1]) == limit
        ):
            return pick[0][3][1]
        return None

    def _tile_count(self, expr: Optional[tuple], extent: int) -> Optional[int]:
        """The tile size ``t`` of ``(E + (t - 1)) / t``."""
        if (
            expr is not None
            and expr[:2] == ("bin", "/")
            and expr[3][0] == "num"
            and expr[2][:2] == ("bin", "+")
            and expr[2][3] == ("num", expr[3][1] - 1)
            and self.point(expr[2][2]) == extent
        ):
            return expr[3][1]
        return None

    def _split_proof(
        self, decls: Dict[str, tuple], names, lo: tuple, hi: tuple
    ) -> Tuple[int, int]:
        """The three-segment split decls over the region ``[lo, hi)``::

            a = max(xlo, lo);  l = min(a, hi)
            ha = min(xhi, hi); h = max(ha, l)

        A nonempty ``[l, h)`` forces ``l = a >= xlo`` and
        ``h = ha <= xhi`` (otherwise ``l = h = hi``), so the interior
        segment runs only inside ``[xlo, xhi)``.  Returns
        ``(xlo, xhi)``.
        """
        a, l, ha, h = names
        first = _as_pick(decls.get(a), ">")
        xlo = self.point(first[0]) if first and first[1] == lo else None
        if xlo is None:
            self.malformed(f"mismatched {a} decl")
        if _as_pick(decls.get(l), "<") != (("id", a), hi):
            self.malformed(f"mismatched {l} decl")
        third = _as_pick(decls.get(ha), "<")
        xhi = self.point(third[0]) if third and third[1] == hi else None
        if xhi is None:
            self.malformed(f"mismatched {ha} decl")
        if _as_pick(decls.get(h), ">") != (("id", ha), ("id", l)):
            self.malformed(f"mismatched {h} decl")
        return xlo, xhi

    def _fill_loop(self, stmt, lo, hi, stage: int, suffix: str, cell) -> None:
        """One fill x-loop: sweeps ``[lo, hi)`` and stores the canonical
        region-relative cell from the stage's own body."""
        if not _loops_over(stmt, "x", lo, hi):
            self.malformed(f"scr_{stage} fill loop sweeps the wrong span")
        store = stmt.body[0] if len(stmt.body) == 1 else None
        if not (
            type(store) is Store
            and store.buffer == f"scr_{stage}"
            and strip_parens(store.index) == cell
            and store.stride == 1
            and store.callee == f"{self.fn_name}_s{stage}{suffix}"
        ):
            self.malformed(
                "fill store does not write the canonical, dense "
                "region-relative index from its own stage body"
            )

    def check_tile_driver(self, driver: Func, has_interior: bool):
        """Template-verify the tile driver; recover the margin ledger.

        Returns ``(producers, interior_env, stage_envs)`` on success —
        ``producers`` maps stage index to ``(L, R, T, B, pitch)``,
        ``interior_env`` is the proven ``(x_iv, y_iv)`` of the interior
        body's call sites (``None`` when no interior body is called),
        and ``stage_envs`` maps each split-fill stage to the proven
        ``(x_iv, y_iv)`` of its clamp-free ``_s{k}i`` call sites.
        Emits NAT004 and raises :class:`_DriverShapeError` on any
        structural deviation: the scratch-safety argument is a
        meta-theorem over this exact shape, so an unrecognized driver
        cannot be proven safe.
        """
        W, H = self.width, self.height
        x0, y0, x1, y1 = (("id", name) for name in ("x0", "y0", "x1", "y1"))
        t, n_tx = ("id", "t"), ("id", "n_tx")

        # Tile grid.  A 2D grid is n_tx = ceil(width / tw) by
        # n_ty = ceil(height / th) tiles; its template proves x0 in
        # [0, width - 1] and x1 in [0, width] ((n_tx - 1) * tw <= width
        # - 1 whenever width >= 1).  A row band leaves x untiled
        # (x0 = 0, x1 = width) over ceil(height / th) tiles of th rows.
        top, _, outer = self._scope(driver.body)
        if "n_tx" in top:
            tile_w = self._tile_count(top.get("n_tx"), W)
            tile_h = self._tile_count(top.get("n_ty"), H)
            if tile_w is None or tile_h is None:
                self.malformed(
                    "n_tx / n_ty do not divide the plane into ceil(W/tw) x "
                    "ceil(H/th) tiles"
                )
            tiles = ("bin", "*", n_tx, ("id", "n_ty"))
            x_origin = ("bin", "*", ("bin", "%", t, n_tx), ("num", tile_w))
            y_origin = ("bin", "*", ("bin", "/", t, n_tx), ("num", tile_h))
        else:
            tile_w, tile_h = None, self._tile_count(top.get("n_tiles"), H)
            if tile_h is None:
                self.malformed(
                    "n_tiles does not divide the plane into ceil(H/th) "
                    "row bands"
                )
            tiles = top["n_tiles"]
            x_origin, y_origin = ("num", 0), ("bin", "*", t, ("num", tile_h))
        if top.get("n_tiles") != tiles or len(outer) != 1 or not _loops_over(
            outer[0], "t", ("num", 0), ("id", "n_tiles")
        ):
            self.malformed("expected one tile loop over the n_tiles tiles")
        decls, scratch, loops = self._scope(outer[0].body)
        if decls.get("x0") != x_origin or decls.get("y0") != y_origin:
            self.malformed("x0 / y0 stride disagrees with the tile grid")
        if tile_w is None:
            x1_ok = "x1" in decls and self.point(decls["x1"]) == W
        else:
            x1_ok = self._margin(decls.get("x1"), "+", "x0", W) == tile_w
        if not x1_ok:
            self.malformed("x1 is not the tile's end clamped to the plane width")
        if self._margin(decls.get("y1"), "+", "y0", H) != tile_h:
            self.malformed("y1 is not clamped to the plane height")
        if scratch and tile_w is None:
            self.malformed("a row band materializes no scratch")
        env: Dict[str, _Iv] = {
            "x0": self.full_x,
            "y0": self.full_y,
            "x1": _Iv((0,), (W,)),
            "y1": _Iv((0,), (H,)),
        }

        # Scratch regions: one decl block per stage, clipped to the
        # plane.  The clip template bounds each region by
        # (th + T + B) x (tw + L + R), which the declared array extent
        # must cover (NAT001 otherwise: the fill loop would overrun a
        # stack buffer).
        producers: Dict[int, Tuple[int, int, int, int, int]] = {}
        for stage in range(len(scratch)):
            decl = scratch.get(f"scr_{stage}")
            if decl is None:
                self.malformed("scratch stages are not contiguously numbered")
            margins = (
                self._margin(decls.get(f"sx0_{stage}"), "-", "x0", 0),
                self._margin(decls.get(f"sx1_{stage}"), "+", "x1", W),
                self._margin(decls.get(f"sy0_{stage}"), "-", "y0", 0),
                self._margin(decls.get(f"sy1_{stage}"), "+", "y1", H),
            )
            if None in margins:
                self.malformed(
                    f"scr_{stage}'s region is not the tile grown by "
                    "constant margins and clipped to the plane"
                )
            left, right, up, down = margins
            pitch = tile_w + left + right
            rows = tile_h + up + down
            if decl.size != rows * pitch:
                self.emit(
                    "NAT001",
                    f"scratch buffer scr_{stage} declares {decl.size} "
                    f"elements but its clipped fill region needs up to "
                    f"{rows} x {pitch} = {rows * pitch}",
                    self.fn_name,
                    buffer=f"scr_{stage}",
                )
            producers[stage] = margins + (pitch,)
        if len(loops) != len(producers) + 1:
            self.malformed(
                "expected one fill loop per scratch stage and one "
                "destination loop"
            )

        # Fill loops: the canonical region sweep per stage, in order.
        # Safety is by template: x - sx0_k < sx1_k - sx0_k <= pitch and
        # the row analogue, both consequences of the clip decls above.
        # A stage with a clamp-free interior variant splits its sweep
        # the way the destination loop does: the fl/fh clamps and the
        # row guard confine the raw-read body (_s{k}i) to the proven
        # in-plane band, recorded in ``stage_envs``.
        stage_envs: Dict[int, Tuple[_Iv, _Iv]] = {}
        for stage, loop in enumerate(loops[:-1]):
            sx0, sx1, sy0, sy1 = (
                ("id", f"{name}_{stage}") for name in ("sx0", "sx1", "sy0", "sy1")
            )
            if not _loops_over(loop, "y", sy0, sy1) or len(loop.body) != 1:
                self.malformed(f"scr_{stage} fill row loop sweeps the wrong region")
            cell = (
                "bin",
                "+",
                ("bin", "*", ("bin", "-", ("id", "y"), sy0), ("num", producers[stage][4])),
                ("bin", "-", ("id", "x"), sx0),
            )
            guard = loop.body[0]
            if type(guard) is not Guard:
                self._fill_loop(guard, sx0, sx1, stage, "", cell)
                continue
            names = tuple(f"{n}_{stage}" for n in ("fla", "fl", "fha", "fh"))
            fxlo, fxhi = self._split_proof(decls, names, sx0, sx1)
            fyhi = self.point(strip_parens(guard.hi))
            if guard.var != "y" or guard.lo[0] != "num" or fyhi is None:
                self.malformed("unrecognized fill guard bound")
            fl, fh = ("id", names[1]), ("id", names[3])
            spans = ((sx0, fl, ""), (fl, fh, "i"), (fh, sx1, ""))
            if len(guard.then) != 3 or len(guard.orelse) != 1:
                self.malformed(f"scr_{stage} fill is not a three-segment split")
            for stmt, (lo, hi, suffix) in zip(guard.then, spans):
                self._fill_loop(stmt, lo, hi, stage, suffix, cell)
            self._fill_loop(guard.orelse[0], sx0, sx1, stage, "", cell)
            # By the split proof the interior body runs only for x in
            # [fxlo, fxhi) and, by the guard, y in [fylo, fyhi) — the
            # band where raw reads must be proven in-plane.
            stage_envs[stage] = (
                _Iv((fxlo,), (fxhi - 1, self.width_limit)),
                _Iv(
                    (guard.lo[1],),
                    (fyhi - 1, self.height_limit),
                ),
            )

        # Destination loop: out[] stores through the halo/interior
        # bodies, x ranges are tile-clipped identifiers from env.
        dest = loops[-1]
        if not _loops_over(dest, "y", y0, y1):
            self.malformed("expected the destination row loop over [y0, y1)")
        split = None
        if "ila" in decls:
            xlo, xhi = self._split_proof(decls, ("ila", "il", "iha", "ih"), x0, x1)
            split = (
                _Iv((xlo,), (xhi - 1, self.width_limit)),
                (("id", "il"), ("id", "ih")),
            )
            for name in ("ila", "il", "iha", "ih"):
                env[name] = _Iv((0,), (W,))
        interior_env = self.check_sweep(dest.body, env, has_interior, split)
        return producers, interior_env, stage_envs

    # -- entry -------------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        functions, fn_name = self.functions, self.fn_name
        interior = functions.get(f"{fn_name}_interior")
        driver = functions.get(fn_name)
        if f"{fn_name}_halo" not in functions or driver is None:
            self.emit(
                "NAT004",
                f"block lacks the expected {fn_name!r} halo/driver functions",
                fn_name,
            )
            return self.diagnostics
        self.check_pointers()
        try:
            producers, interior_env, stage_envs = self.check_tile_driver(
                driver, has_interior=interior is not None
            )
        except _DriverShapeError:
            return self.diagnostics
        full_x, full_y = self.full_x, self.full_y
        for stage in sorted(producers):
            fn = functions.get(f"{fn_name}_s{stage}")
            if fn is None:
                self.emit(
                    "NAT004",
                    f"scratch buffer scr_{stage} has no stage body "
                    f"{fn_name}_s{stage}",
                    fn_name,
                )
                continue
            consumer = producers[stage][:4]
            self.check_body(
                fn, full_x, full_y, _ScratchCtx(consumer, producers, raw=False)
            )
            ifn = functions.get(f"{fn_name}_s{stage}i")
            envs = stage_envs.get(stage)
            if envs is not None and ifn is None:
                self.emit(
                    "NAT004",
                    f"the split fill calls {fn_name}_s{stage}i but "
                    "no such stage body exists",
                    fn_name,
                )
            elif ifn is not None and envs is None:
                self.emit(
                    "NAT004",
                    f"stage interior body {fn_name}_s{stage}i is "
                    "emitted but the driver never calls it",
                    fn_name,
                )
            elif ifn is not None:
                self.check_body(
                    ifn, *envs, _ScratchCtx(consumer, producers, raw=True)
                )
        prefix = f"{fn_name}_s"
        for name in functions:
            if not name.startswith(prefix):
                continue
            stage = name[len(prefix):].removesuffix("i")
            if stage.isdigit() and int(stage) not in producers:
                self.emit(
                    "NAT004",
                    f"stage body {name!r} has no scratch buffer in the "
                    "driver",
                    fn_name,
                )
        dest = (0, 0, 0, 0)
        self.check_body(
            functions[f"{fn_name}_halo"],
            full_x,
            full_y,
            _ScratchCtx(dest, producers, raw=False),
        )
        if interior is not None:
            self.check_body(
                interior,
                *(interior_env or (full_x, full_y)),
                _ScratchCtx(dest, producers, raw=True),
            )
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
