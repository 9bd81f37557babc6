"""IR node definitions.

All nodes are immutable dataclasses.  Expressions are built either
directly or through the operator-overloading helpers (``a + b`` works on
any :class:`Expr`), and through the math functions in :mod:`repro.ir.ops`.

Operation cost classes mirror the paper's hardware model (Section II-C):

* **ALU** operations (additions, multiplications, comparisons, selects,
  ...) cost ``c_ALU`` cycles each,
* **SFU** operations (transcendental functions executed on the special
  function units) cost ``c_SFU`` cycles each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Tuple

#: Binary operators executed on the ALUs.
ALU_BINARY_OPS = frozenset({"add", "sub", "mul", "div", "mod", "min", "max"})

#: Unary operators executed on the ALUs.
ALU_UNARY_OPS = frozenset({"neg", "abs"})

#: Comparison operators (ALU class).
CMP_OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})

#: Functions executed on the special function units.  ``pow`` and
#: ``atan2`` are binary; the rest are unary.
SFU_FUNCTIONS = frozenset(
    {"exp", "log", "sqrt", "rsqrt", "sin", "cos", "tan", "tanh", "pow", "atan2"}
)

#: Arity of every SFU function.
SFU_ARITY = {name: (2 if name in {"pow", "atan2"} else 1) for name in SFU_FUNCTIONS}


class Expr:
    """Base class of all IR nodes.

    Provides operator overloading so kernel bodies read like arithmetic.
    Subclasses are frozen dataclasses; instances are safe to share between
    kernels (fusion never mutates, it rebuilds).
    """

    __slots__ = ()

    # -- arithmetic sugar -------------------------------------------------

    def __add__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("add", self, _wrap(other))

    def __radd__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("add", _wrap(other), self)

    def __sub__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("sub", self, _wrap(other))

    def __rsub__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("sub", _wrap(other), self)

    def __mul__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("mul", self, _wrap(other))

    def __rmul__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("mul", _wrap(other), self)

    def __truediv__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("div", self, _wrap(other))

    def __rtruediv__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("div", _wrap(other), self)

    def __mod__(self, other: "Expr | float | int") -> "BinOp":
        return BinOp("mod", self, _wrap(other))

    def __neg__(self) -> "UnOp":
        return UnOp("neg", self)

    def __abs__(self) -> "UnOp":
        return UnOp("abs", self)

    # -- comparison sugar (returns Cmp nodes, NOT booleans) ---------------
    # NOTE: __eq__ is left as identity/structural equality on the dataclass;
    # use ``repro.ir.ops`` comparison helpers or Cmp directly for IR-level
    # comparisons so that dict/set behaviour of nodes stays sane.

    def __lt__(self, other: "Expr | float | int") -> "Cmp":
        return Cmp("lt", self, _wrap(other))

    def __le__(self, other: "Expr | float | int") -> "Cmp":
        return Cmp("le", self, _wrap(other))

    def __gt__(self, other: "Expr | float | int") -> "Cmp":
        return Cmp("gt", self, _wrap(other))

    def __ge__(self, other: "Expr | float | int") -> "Cmp":
        return Cmp("ge", self, _wrap(other))


def _wrap(value: "Expr | float | int") -> "Expr":
    """Coerce Python scalars to :class:`Const` nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(value)
    raise TypeError(f"cannot use {type(value).__name__} as an IR operand")


@dataclass(frozen=True)
class Const(Expr):
    """A compile-time scalar constant."""

    value: float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class Param(Expr):
    """A named runtime scalar parameter (e.g. a threshold or gain).

    Parameters are bound at execution time through the parameter
    environment of :func:`repro.backend.numpy_exec.execute_kernel`.
    """

    name: str


@dataclass(frozen=True)
class InputAt(Expr):
    """Read one pixel of an input image at a constant offset.

    ``image`` names the accessed image; ``dx``/``dy`` are the offsets
    relative to the output coordinate of the kernel.  A point operator
    reads only ``(0, 0)``; a local operator reads a bounded window of
    offsets.  Boundary handling is *not* part of the node: it is a
    property of the kernel's accessor for ``image``
    (:class:`repro.dsl.kernel.Accessor`), because the same expression is
    reused in fused kernels where two-stage boundary resolution applies.
    """

    image: str
    dx: int = 0
    dy: int = 0

    def __post_init__(self) -> None:
        # Offsets index coordinate grids: a NumPy integer is kept as the
        # int it stands for, so it keys, lowers and verifies like one.
        for axis in ("dx", "dy"):
            value = getattr(self, axis)
            if type(value) is not int and isinstance(value, Integral):
                object.__setattr__(self, axis, int(value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InputAt({self.image!r}, {self.dx}, {self.dy})"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary ALU operation."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in ALU_BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary ALU operation."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ALU_UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")


@dataclass(frozen=True)
class Cmp(Expr):
    """A comparison; evaluates to 1.0 / 0.0 in the NumPy backend."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in CMP_OPS:
            raise ValueError(f"unknown comparison op {self.op!r}")


@dataclass(frozen=True)
class Select(Expr):
    """Ternary select: ``cond ? if_true : if_false`` (ALU class)."""

    cond: Expr
    if_true: Expr
    if_false: Expr


@dataclass(frozen=True)
class Call(Expr):
    """A call to a special-function-unit function (``exp``, ``sqrt``, ...)."""

    fn: str
    args: Tuple[Expr, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.fn not in SFU_FUNCTIONS:
            raise ValueError(f"unknown SFU function {self.fn!r}")
        expected = SFU_ARITY[self.fn]
        if len(self.args) != expected:
            raise ValueError(
                f"{self.fn} expects {expected} argument(s), got {len(self.args)}"
            )


@dataclass(frozen=True)
class Cast(Expr):
    """A type cast; counted as one ALU operation.

    ``dtype`` is a NumPy-style dtype string (``"float32"``, ``"uint8"``).
    """

    dtype: str
    operand: Expr


#: All concrete node classes, used by the validator.
NODE_TYPES = (Const, Param, InputAt, BinOp, UnOp, Cmp, Select, Call, Cast)


def _hash_once(cls: type) -> None:
    """Cache the dataclass-generated hash on each instance.

    The generated ``__hash__`` hashes the field tuple, so every dict or
    set probe of a node re-hashes its whole subtree; nodes are immutable,
    so the value is computed once and parked in the instance ``__dict__``
    (which ``__eq__``, ``__repr__`` and ``dataclasses.fields`` never
    look at).  String hashes are salted per process, so the cached value
    is dropped on pickling — an unpickling process hashes afresh.
    """
    generated = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = generated(self)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__


for _node_type in NODE_TYPES:
    _hash_once(_node_type)
