"""Value-range dataflow analysis over kernel expressions and graphs.

The structural passes (:mod:`repro.analysis.passes`,
:mod:`repro.analysis.verifier`) check shapes, SSA discipline, and fusion
legality; this module is the *semantic* tier: an abstract interpretation
that propagates per-value interval ranges, a dtype lattice, and NaN/zero
flags from source images (declared or default domains), params, and
constants through the kernel expression IR (:mod:`repro.ir.expr`) —
with path-sensitive refinement through ``Select`` guards, so a risky
operation under an appropriate guard is deliberate, not a defect — and
from kernel to kernel across a :class:`~repro.graph.dag.KernelGraph`.

The lattice produces the **VAL001–VAL008** diagnostic family: domain
errors of ``sqrt``/``log``/``rsqrt``, possibly-zero denominators,
overflowing or precision-losing casts, statically constant comparisons,
dead ``select`` branches, out-of-domain SFU arguments, unbound params in
an explicit range environment.

Declared domains
----------------
Default domains are fully conservative: an image pixel is any double
including NaN, a param is any finite double.  Pipelines can narrow them:

    pipe.declare_domain("input", 0.0, 255.0)       # 8-bit source pixels
    pipe.declare_domain("gamma", 0.1, 10.0)        # a scalar param

``Pipeline.build()`` carries the declarations onto the
:class:`~repro.graph.dag.KernelGraph` (``graph.declared_domains``); every
analysis entry point below also accepts explicit ``images=`` / ``params=``
mappings that override the declarations.  Values may be a
:class:`VRange`, a ``(lo, hi)`` tuple, or a single float (degenerate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.diagnostics import Diagnostic, diag
from repro.ir.expr import (
    BinOp,
    Call,
    Cast,
    Cmp,
    Const,
    Expr,
    InputAt,
    Param,
    Select,
    UnOp,
)

__all__ = [
    "VRange",
    "analyze_graph",
    "analyze_kernel",
    "domain",
    "lint_graph_values",
    "lint_kernel_values",
]

_INF = math.inf


# ---------------------------------------------------------------------------
# The value lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VRange:
    """One abstract value: an interval plus NaN/zero flags and a dtype.

    The interval ``[lo, hi]`` bounds the value *when it is not NaN*;
    ``maybe_nan`` tracks NaN separately (so refining an interval through
    a failed comparison — which NaN also fails — stays sound).
    ``maybe_zero`` is tracked independently of the interval sign so
    facts like ``exp(x) > 0`` and ``1 + nonneg >= 1`` survive interval
    arithmetic whose closed endpoints would readmit zero.
    """

    lo: float = -_INF
    hi: float = _INF
    maybe_nan: bool = True
    maybe_zero: bool = True
    dtype: str = "float64"

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            lo, hi = -_INF, _INF
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        # A range that excludes zero can never produce it.
        object.__setattr__(
            self, "maybe_zero", bool(self.maybe_zero) and lo <= 0.0 <= hi
        )

    # -- predicates -------------------------------------------------------

    @property
    def nonneg(self) -> bool:
        return self.lo >= 0.0

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi and not self.maybe_nan

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def describe(self) -> str:
        flags = []
        if self.maybe_nan:
            flags.append("nan?")
        if self.maybe_zero:
            flags.append("0?")
        suffix = f" {' '.join(flags)}" if flags else ""
        return f"[{self.lo:g}, {self.hi:g}]{suffix}"


#: The fully conservative image domain: any double, NaN included.
TOP = VRange()

#: The default param domain: any *finite* double (params arrive through
#: ``float()`` bindings; a NaN binding is pathological and out of model).
PARAM_DEFAULT = VRange(maybe_nan=False)


def domain(
    lo: float, hi: float, *, nan: bool = False, dtype: str = "float64"
) -> VRange:
    """A declared domain: ``[lo, hi]``, NaN-free unless ``nan=True``."""
    return VRange(lo, hi, maybe_nan=nan, dtype=dtype)


DomainLike = Union[VRange, Tuple[float, float], float, int]


def _as_range(value: DomainLike) -> VRange:
    if isinstance(value, VRange):
        return value
    if isinstance(value, (int, float)):
        v = float(value)
        return VRange(v, v, maybe_nan=math.isnan(v))
    lo, hi = value
    return VRange(float(lo), float(hi), maybe_nan=False)


def _env(mapping: Optional[Mapping[str, DomainLike]]) -> Dict[str, VRange]:
    return {k: _as_range(v) for k, v in (mapping or {}).items()}


# -- interval arithmetic ------------------------------------------------


def _nn(value: float, fallback: float) -> float:
    """NaN-safe endpoint: indeterminate forms widen to ``fallback``."""
    return fallback if math.isnan(value) else value


def _join(a: VRange, b: VRange) -> VRange:
    return VRange(
        min(a.lo, b.lo),
        max(a.hi, b.hi),
        maybe_nan=a.maybe_nan or b.maybe_nan,
        maybe_zero=a.maybe_zero or b.maybe_zero,
        dtype=_promote(a.dtype, b.dtype),
    )


def _refine(r: VRange, c: VRange) -> VRange:
    """Intersect ``r`` with a constraint ``c`` (meet; empty clamps)."""
    lo, hi = max(r.lo, c.lo), min(r.hi, c.hi)
    if lo > hi:  # contradictory path: keep a sound (if useless) point
        lo = hi = max(r.lo, c.lo)
    return VRange(
        lo,
        hi,
        maybe_nan=r.maybe_nan and c.maybe_nan,
        maybe_zero=r.maybe_zero and c.maybe_zero,
        dtype=r.dtype,
    )


def _promote(a: str, b: str) -> str:
    if a == b:
        return a
    try:
        return np.promote_types(a, b).name
    except TypeError:
        return "float64"


def _add(a: VRange, b: VRange) -> VRange:
    opposing = (a.hi == _INF and b.lo == -_INF) or (
        a.lo == -_INF and b.hi == _INF
    )
    return VRange(
        _nn(a.lo + b.lo, -_INF),
        _nn(a.hi + b.hi, _INF),
        maybe_nan=a.maybe_nan or b.maybe_nan or opposing,
        dtype=_promote(a.dtype, b.dtype),
    )


def _neg(a: VRange) -> VRange:
    return VRange(
        -a.hi, -a.lo, maybe_nan=a.maybe_nan,
        maybe_zero=a.maybe_zero, dtype=a.dtype,
    )


def _abs(a: VRange) -> VRange:
    if a.lo >= 0.0:
        lo, hi = a.lo, a.hi
    elif a.hi <= 0.0:
        lo, hi = -a.hi, -a.lo
    else:
        lo, hi = 0.0, max(-a.lo, a.hi)
    return VRange(
        lo, hi, maybe_nan=a.maybe_nan, maybe_zero=a.maybe_zero, dtype=a.dtype
    )


def _mul(a: VRange, b: VRange) -> VRange:
    products = []
    indeterminate = False
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            p = x * y
            if math.isnan(p):  # 0 * inf
                indeterminate = True
            else:
                products.append(p)
    zero_times_inf = (a.maybe_zero and not b.finite) or (
        b.maybe_zero and not a.finite
    )
    if indeterminate or not products:
        lo, hi = -_INF, _INF
    else:
        lo, hi = min(products), max(products)
    return VRange(
        lo,
        hi,
        maybe_nan=a.maybe_nan or b.maybe_nan or zero_times_inf,
        maybe_zero=a.maybe_zero or b.maybe_zero,
        dtype=_promote(a.dtype, b.dtype),
    )


def _square(a: VRange) -> VRange:
    """``x * x`` with both operands known identical: always nonnegative."""
    if a.lo >= 0.0:
        lo, hi = a.lo * a.lo, a.hi * a.hi
    elif a.hi <= 0.0:
        lo, hi = a.hi * a.hi, a.lo * a.lo
    else:
        lo, hi = 0.0, max(a.lo * a.lo, a.hi * a.hi)
    return VRange(
        lo,
        _nn(hi, _INF),
        maybe_nan=a.maybe_nan,
        maybe_zero=a.maybe_zero,
        dtype=a.dtype,
    )


def _div(a: VRange, b: VRange) -> VRange:
    dtype = _promote(a.dtype, b.dtype)
    if b.maybe_zero:
        # x/0 is +-inf, 0/0 is NaN: everything is possible.
        return VRange(dtype=dtype)
    quotients = []
    indeterminate = False
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            try:
                q = x / y
            except ZeroDivisionError:  # pragma: no cover - b excludes 0
                indeterminate = True
                continue
            if math.isnan(q):  # inf / inf
                indeterminate = True
            else:
                quotients.append(q)
    inf_over_inf = not a.finite and not b.finite
    if indeterminate or not quotients:
        lo, hi = -_INF, _INF
    else:
        lo, hi = min(quotients), max(quotients)
    underflow = b.lo == -_INF or b.hi == _INF  # x / inf == 0.0
    return VRange(
        lo,
        hi,
        maybe_nan=a.maybe_nan or b.maybe_nan or inf_over_inf,
        maybe_zero=a.maybe_zero or underflow,
        dtype=dtype,
    )


def _mod(a: VRange, b: VRange) -> VRange:
    dtype = _promote(a.dtype, b.dtype)
    if b.maybe_zero or not b.finite:
        return VRange(dtype=dtype)
    # np.mod's result carries the divisor's sign; b excludes zero, so it
    # is entirely positive or entirely negative.
    if b.lo > 0.0:
        lo, hi = 0.0, b.hi
    else:
        lo, hi = b.lo, 0.0
    return VRange(lo, hi, maybe_nan=a.maybe_nan or b.maybe_nan, dtype=dtype)


def _min(a: VRange, b: VRange) -> VRange:
    return VRange(
        min(a.lo, b.lo),
        min(a.hi, b.hi),
        maybe_nan=a.maybe_nan or b.maybe_nan,
        maybe_zero=a.maybe_zero or b.maybe_zero,
        dtype=_promote(a.dtype, b.dtype),
    )


def _max(a: VRange, b: VRange) -> VRange:
    return VRange(
        max(a.lo, b.lo),
        max(a.hi, b.hi),
        maybe_nan=a.maybe_nan or b.maybe_nan,
        maybe_zero=a.maybe_zero or b.maybe_zero,
        dtype=_promote(a.dtype, b.dtype),
    )


def _exp_point(v: float) -> float:
    if v > 709.0:
        return _INF
    if v == -_INF:
        return 0.0
    return math.exp(v)


_BOOL = VRange(0.0, 1.0, maybe_nan=False)


def _cmp_verdict(op: str, a: VRange, b: VRange) -> Optional[bool]:
    """``True``/``False`` when the comparison is statically constant.

    Provably-*true* needs both sides NaN-free (NaN compares false for
    every operator except ``ne``); provably-*false* tolerates NaN for
    the ordering operators and ``eq``, and provably-true ``ne`` holds
    under NaN too (NaN != x).
    """
    no_nan = not (a.maybe_nan or b.maybe_nan)
    if op == "lt":
        if a.hi < b.lo and no_nan:
            return True
        if a.lo >= b.hi:
            return False
    elif op == "le":
        if a.hi <= b.lo and no_nan:
            return True
        if a.lo > b.hi:
            return False
    elif op == "gt":
        if a.lo > b.hi and no_nan:
            return True
        if a.hi <= b.lo:
            return False
    elif op == "ge":
        if a.lo >= b.hi and no_nan:
            return True
        if a.hi < b.lo:
            return False
    elif op == "eq":
        if a.degenerate and b.degenerate and a.lo == b.lo:
            return True
        if a.hi < b.lo or a.lo > b.hi:
            return False
    elif op == "ne":
        if a.hi < b.lo or a.lo > b.hi:
            return True
        if a.degenerate and b.degenerate and a.lo == b.lo:
            return False
    return None


#: How a ``select`` condition decides: nonzero (NaN included — NaN != 0
#: is true in both engines) takes the true branch, exactly 0.0 the false
#: branch.
def _select_verdict(cond: VRange) -> Optional[bool]:
    if not cond.maybe_zero:
        return True  # never zero: false branch is dead (NaN also true)
    if cond.lo == 0.0 and cond.hi == 0.0 and not cond.maybe_nan:
        return False  # always exactly zero: true branch is dead
    return None


# ---------------------------------------------------------------------------
# SFU / cast transfer functions (shared by both walkers)
# ---------------------------------------------------------------------------


def _transfer_call(
    fn: str,
    args: Sequence[VRange],
    emit,
) -> VRange:
    """Range of one SFU call; ``emit(code, message, **details)`` reports."""
    a = args[0]
    if fn == "exp":
        return VRange(
            _exp_point(a.lo),
            _exp_point(a.hi),
            maybe_nan=a.maybe_nan,
            maybe_zero=a.lo == -_INF,
        )
    if fn in ("sqrt", "log", "rsqrt"):
        if a.lo < 0.0:
            emit(
                "VAL001",
                f"{fn}() argument may be negative "
                f"(range {a.describe()})",
                arg_range=a.describe(),
                fn=fn,
            )
        nan = a.maybe_nan or a.lo < 0.0
        lo_pos = max(a.lo, 0.0)
        hi_pos = max(a.hi, 0.0)
        if fn == "sqrt":
            return VRange(
                math.sqrt(lo_pos),
                _nn(math.sqrt(hi_pos) if hi_pos < _INF else _INF, _INF),
                maybe_nan=nan,
                maybe_zero=a.maybe_zero or a.lo <= 0.0,
            )
        if fn == "log":
            lo = math.log(lo_pos) if lo_pos > 0.0 else -_INF
            hi = math.log(hi_pos) if 0.0 < hi_pos < _INF else (
                _INF if hi_pos == _INF else -_INF
            )
            return VRange(lo, hi, maybe_nan=nan)
        # rsqrt: 1/sqrt(x); rsqrt(0) is +inf (not NaN).
        lo = 1.0 / math.sqrt(hi_pos) if 0.0 < hi_pos < _INF else 0.0
        return VRange(lo, _INF, maybe_nan=nan, maybe_zero=hi_pos == _INF)
    if fn in ("sin", "cos"):
        return VRange(
            -1.0, 1.0, maybe_nan=a.maybe_nan or not a.finite
        )
    if fn == "tan":
        return VRange(maybe_nan=a.maybe_nan or not a.finite)
    if fn == "tanh":
        return VRange(
            math.tanh(a.lo), math.tanh(a.hi), maybe_nan=a.maybe_nan
        )
    if fn == "pow":
        base, expo = args
        fractional = not (
            expo.degenerate and float(expo.lo).is_integer()
        )
        if base.lo < 0.0 and fractional:
            emit(
                "VAL007",
                "pow() base may be negative with a non-integer "
                f"exponent (base {base.describe()}, "
                f"exponent {expo.describe()})",
                base_range=base.describe(),
                exponent_range=expo.describe(),
                fn=fn,
            )
            return VRange()
        if base.lo >= 0.0:
            return VRange(
                0.0,
                _INF,
                maybe_nan=base.maybe_nan or expo.maybe_nan,
            )
        return VRange(maybe_nan=base.maybe_nan or expo.maybe_nan)
    if fn == "atan2":
        y, x = args
        return VRange(
            -math.pi, math.pi, maybe_nan=y.maybe_nan or x.maybe_nan
        )
    return VRange()  # unknown SFU: fully conservative


def _transfer_cast(dtype: str, a: VRange, emit) -> VRange:
    try:
        target = np.dtype(dtype)
    except TypeError:
        return a  # IR007's problem, not ours
    if target.kind == "f":
        info = np.finfo(target)
        overflow = a.hi > float(info.max) or a.lo < float(info.min)
        if overflow and dtype not in ("float64", "double"):
            emit(
                "VAL003",
                f"cast to {dtype} may overflow its finite range "
                f"(value {a.describe()}, "
                f"target +-{float(info.max):g})",
                value_range=a.describe(),
                dtype=dtype,
            )
        lo = a.lo if a.lo >= float(info.min) else -_INF
        hi = a.hi if a.hi <= float(info.max) else _INF
        return VRange(
            lo, hi, maybe_nan=a.maybe_nan,
            maybe_zero=a.maybe_zero, dtype=target.name,
        )
    if target.kind in ("i", "u"):
        info = np.iinfo(target)
        overflow = (
            a.maybe_nan
            or a.hi > float(info.max)
            or a.lo < float(info.min)
        )
        if overflow:
            emit(
                "VAL003",
                f"cast to {dtype} may overflow "
                f"[{info.min}, {info.max}] "
                f"(value {a.describe()})",
                value_range=a.describe(),
                dtype=dtype,
            )
            return VRange(
                float(info.min), float(info.max),
                maybe_nan=False, dtype=target.name,
            )
        fractional = not (
            a.degenerate and float(a.lo).is_integer()
        )
        if fractional:
            emit(
                "VAL004",
                f"cast to {dtype} truncates possibly-fractional "
                f"values (value {a.describe()})",
                value_range=a.describe(),
                dtype=dtype,
            )
        return VRange(
            math.floor(a.lo) if math.isfinite(a.lo) else float(info.min),
            math.ceil(a.hi) if math.isfinite(a.hi) else float(info.max),
            maybe_nan=False,
            dtype=target.name,
        )
    return a


# ---------------------------------------------------------------------------
# Expression-level analysis (path-sensitive through Select guards)
# ---------------------------------------------------------------------------


def _constraint_for(op: str, bound: VRange, true_branch: bool) -> Optional[VRange]:
    """What ``L op R`` (or its negation) says about ``L`` given ``R``'s range.

    In the *true* branch the comparison actually held, which also proves
    the operand is not NaN; in the *false* branch NaN remains possible
    (NaN fails every comparison), so only the interval is refined.
    """
    negate = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
              "eq": "ne", "ne": "eq"}
    if not true_branch:
        op = negate.get(op)
        if op is None:
            return None
    nan = not true_branch
    if op in ("gt", "ge"):
        return VRange(
            bound.lo, _INF, maybe_nan=nan,
            maybe_zero=not (op == "gt" and bound.lo >= 0.0)
            and not (op == "ge" and bound.lo > 0.0),
        )
    if op in ("lt", "le"):
        return VRange(
            -_INF, bound.hi, maybe_nan=nan,
            maybe_zero=not (op == "lt" and bound.hi <= 0.0)
            and not (op == "le" and bound.hi < 0.0),
        )
    if op == "eq":
        # An equality that *held* (directly, or as the failed branch of
        # ``ne`` — NaN passes ``ne``, so its failure proves non-NaN too)
        # pins the operand to the bound's interval.
        return VRange(
            bound.lo, bound.hi, maybe_nan=False,
            maybe_zero=bound.maybe_zero,
        )
    if op == "ne":
        # ``x != c`` says nothing about the interval (and NaN passes it),
        # but with ``c`` exactly zero it does prove the operand nonzero.
        if bound.degenerate and bound.lo == 0.0:
            return VRange(maybe_zero=False)
        return None
    return None


_MIRROR = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq"}


class _ExprAnalyzer:
    def __init__(
        self,
        images: Dict[str, VRange],
        params: Dict[str, VRange],
        strict_params: bool,
        kernel_name: Optional[str],
    ):
        self.images = images
        self.params = params
        self.strict_params = strict_params
        self.kernel = kernel_name
        self.diagnostics: List[Diagnostic] = []
        self._reported: set = set()

    def _emitter(self, node: Expr, path: str):
        def emit(code: str, message: str, **details) -> None:
            key = (code, id(node))
            if key in self._reported:
                return
            self._reported.add(key)
            self.diagnostics.append(
                diag(code, message, kernel=self.kernel, path=path, **details)
            )

        return emit

    def run(self, expr: Expr) -> VRange:
        return self._visit(expr, "body", {}, {})

    def _visit(
        self,
        node: Expr,
        path: str,
        constraints: Dict[Expr, VRange],
        memo: Dict[int, VRange],
    ) -> VRange:
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        r = self._compute(node, path, constraints, memo)
        c = constraints.get(node)
        if c is not None:
            r = _refine(r, c)
        memo[id(node)] = r
        return r

    def _compute(
        self,
        node: Expr,
        path: str,
        constraints: Dict[Expr, VRange],
        memo: Dict[int, VRange],
    ) -> VRange:
        emit = self._emitter(node, path)
        if isinstance(node, Const):
            v = float(node.value)
            return VRange(v, v, maybe_nan=math.isnan(v))
        if isinstance(node, Param):
            bound = self.params.get(node.name)
            if bound is not None:
                return bound
            if self.strict_params:
                emit(
                    "VAL008",
                    f"param {node.name!r} is unbound in the range "
                    "environment",
                    param=node.name,
                )
                return TOP
            return PARAM_DEFAULT
        if isinstance(node, InputAt):
            return self.images.get(node.image, TOP)
        if isinstance(node, BinOp):
            lhs = self._visit(node.lhs, f"{path}.lhs", constraints, memo)
            rhs = self._visit(node.rhs, f"{path}.rhs", constraints, memo)
            if node.op == "mul":
                if node.lhs == node.rhs:
                    return _square(lhs)
                # (c * x) * x with a nonnegative constant c: still a
                # scaled square (Harris' 0.04*trace*trace shape).
                scaled = _scaled_square(node, lhs, rhs, constraints, memo, self)
                if scaled is not None:
                    return scaled
                return _mul(lhs, rhs)
            if node.op == "add":
                return _add(lhs, rhs)
            if node.op == "sub":
                return _add(lhs, _neg(rhs))
            if node.op == "div" or node.op == "mod":
                if rhs.maybe_zero:
                    emit(
                        "VAL002",
                        f"{'division' if node.op == 'div' else 'modulo'} "
                        f"by a possibly-zero denominator "
                        f"(range {rhs.describe()})",
                        denominator_range=rhs.describe(),
                    )
                return _div(lhs, rhs) if node.op == "div" else _mod(lhs, rhs)
            if node.op == "min":
                return _min(lhs, rhs)
            if node.op == "max":
                return _max(lhs, rhs)
            return VRange()
        if isinstance(node, UnOp):
            operand = self._visit(
                node.operand, f"{path}.operand", constraints, memo
            )
            return _neg(operand) if node.op == "neg" else _abs(operand)
        if isinstance(node, Cmp):
            lhs = self._visit(node.lhs, f"{path}.lhs", constraints, memo)
            rhs = self._visit(node.rhs, f"{path}.rhs", constraints, memo)
            verdict = _cmp_verdict(node.op, lhs, rhs)
            if verdict is not None:
                emit(
                    "VAL005",
                    f"comparison is always "
                    f"{'true' if verdict else 'false'} "
                    f"(lhs {lhs.describe()} {node.op} "
                    f"rhs {rhs.describe()})",
                    verdict=verdict,
                    lhs_range=lhs.describe(),
                    rhs_range=rhs.describe(),
                )
                v = 1.0 if verdict else 0.0
                return VRange(v, v, maybe_nan=False)
            return _BOOL
        if isinstance(node, Select):
            cond = self._visit(node.cond, f"{path}.cond", constraints, memo)
            verdict = _select_verdict(cond)
            if verdict is not None:
                dead = "if_false" if verdict else "if_true"
                emit(
                    "VAL006",
                    f"select branch {dead!r} is proven dead "
                    f"(condition {cond.describe()})",
                    dead_branch=dead,
                    cond_range=cond.describe(),
                )
                live, leg = (
                    (node.if_true, "if_true")
                    if verdict
                    else (node.if_false, "if_false")
                )
                return self._visit(live, f"{path}.{leg}", constraints, memo)
            t = self._visit(
                node.if_true,
                f"{path}.if_true",
                self._branch(constraints, node.cond, True, memo, path),
                {},
            )
            f = self._visit(
                node.if_false,
                f"{path}.if_false",
                self._branch(constraints, node.cond, False, memo, path),
                {},
            )
            return _join(t, f)
        if isinstance(node, Call):
            args = [
                self._visit(a, f"{path}.args[{i}]", constraints, memo)
                for i, a in enumerate(node.args)
            ]
            return _transfer_call(node.fn, args, emit)
        if isinstance(node, Cast):
            operand = self._visit(
                node.operand, f"{path}.operand", constraints, memo
            )
            return _transfer_cast(node.dtype, operand, emit)
        return TOP  # unknown node type: IR001's problem

    def _branch(
        self,
        constraints: Dict[Expr, VRange],
        cond: Expr,
        true_branch: bool,
        memo: Dict[int, VRange],
        path: str,
    ) -> Dict[Expr, VRange]:
        """Constraints refined by taking one branch of ``cond``."""
        if not isinstance(cond, Cmp):
            return constraints
        refined = dict(constraints)

        def note(target: Expr, op: str, other: Expr) -> None:
            if isinstance(target, Const):
                return
            bound = self._visit(other, path, constraints, memo)
            c = _constraint_for(op, bound, true_branch)
            if c is None:
                return
            prior = refined.get(target)
            refined[target] = _refine(prior, c) if prior is not None else c

        note(cond.lhs, cond.op, cond.rhs)
        mirrored = _MIRROR.get(cond.op)
        if mirrored is not None:
            note(cond.rhs, mirrored, cond.lhs)
        return refined


def _scaled_square(
    node: BinOp,
    lhs: VRange,
    rhs: VRange,
    constraints,
    memo,
    analyzer: _ExprAnalyzer,
) -> Optional[VRange]:
    """``(c * x) * x`` / ``(x * c) * x`` with const ``c >= 0``: a scaled
    square, provably sign-stable where plain interval products are not."""
    inner = node.lhs
    if not isinstance(inner, BinOp) or inner.op != "mul":
        return None
    for c_node, x_node in ((inner.lhs, inner.rhs), (inner.rhs, inner.lhs)):
        if isinstance(c_node, Const) and x_node == node.rhs:
            c = float(c_node.value)
            if math.isnan(c):
                return None
            scale = VRange(c, c, maybe_nan=False)
            return _mul(scale, _square(rhs))
    return None


# ---------------------------------------------------------------------------
# Kernel / graph entry points
# ---------------------------------------------------------------------------


def analyze_kernel(
    kernel,
    images: Optional[Mapping[str, DomainLike]] = None,
    params: Optional[Mapping[str, DomainLike]] = None,
    *,
    strict_params: bool = False,
) -> Tuple[VRange, List[Diagnostic]]:
    """Abstractly interpret one kernel body.

    Returns ``(output range, diagnostics)``.  ``images`` maps image
    names to domains (missing images default to the fully conservative
    :data:`TOP`); ``params`` maps param names (missing params default to
    any finite double, or raise ``VAL008`` under ``strict_params``).
    """
    analyzer = _ExprAnalyzer(
        _env(images), _env(params), strict_params, kernel.name
    )
    result = analyzer.run(kernel.body)
    return result, analyzer.diagnostics


def lint_kernel_values(
    kernel,
    images: Optional[Mapping[str, DomainLike]] = None,
    params: Optional[Mapping[str, DomainLike]] = None,
    *,
    strict_params: bool = False,
) -> List[Diagnostic]:
    """The VAL diagnostics of one kernel body."""
    return analyze_kernel(
        kernel, images, params, strict_params=strict_params
    )[1]


@dataclass
class GraphValueAnalysis:
    """Per-image value ranges plus the diagnostics of one graph walk."""

    ranges: Dict[str, VRange] = field(default_factory=dict)
    diagnostics: List[Diagnostic] = field(default_factory=list)


def _graph_domains(graph) -> Dict[str, VRange]:
    return _env(getattr(graph, "declared_domains", None))


def _reduced_range(kernel, body: VRange) -> VRange:
    """The output range of a kernel after its global reduction (if any)."""
    reduction = getattr(kernel, "reduction", None)
    if reduction is None:
        return body
    kind = getattr(reduction, "value", str(reduction)).lower()
    if kind in ("min", "max"):
        return body
    if kind == "sum":
        space = kernel.accessors[0].image.space if kernel.accessors else None
        if space is not None:
            count = VRange(
                float(space.width * space.height),
                float(space.width * space.height),
                maybe_nan=False,
            )
            return _mul(body, count)
    return VRange(maybe_nan=True)


def analyze_graph(
    graph,
    images: Optional[Mapping[str, DomainLike]] = None,
    params: Optional[Mapping[str, DomainLike]] = None,
    *,
    strict_params: bool = False,
) -> GraphValueAnalysis:
    """Propagate value ranges through a :class:`KernelGraph` in
    topological order: each kernel's computed output range becomes the
    domain its consumers read.  Declared domains
    (``pipeline.declare_domain`` / ``images=``) seed the environment and
    override computed ranges by name."""
    declared = _graph_domains(graph)
    declared.update(_env(images))
    param_env = _env(params)
    analysis = GraphValueAnalysis()
    env: Dict[str, VRange] = dict(declared)
    for name in graph.kernel_names:
        kernel = graph.kernel(name)
        result, found = analyze_kernel(
            kernel, env, param_env, strict_params=strict_params
        )
        analysis.diagnostics.extend(found)
        output = kernel.output.name
        computed = _reduced_range(kernel, result)
        env[output] = declared.get(output, computed)
        analysis.ranges[output] = env[output]
    return analysis


def lint_graph_values(
    graph,
    images: Optional[Mapping[str, DomainLike]] = None,
    params: Optional[Mapping[str, DomainLike]] = None,
    *,
    strict_params: bool = False,
) -> List[Diagnostic]:
    """The VAL diagnostics of a whole graph (see :func:`analyze_graph`)."""
    return analyze_graph(
        graph, images, params, strict_params=strict_params
    ).diagnostics
