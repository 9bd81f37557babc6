"""The loop-nest IR between a block tape and its C text.

:mod:`repro.backend.native_lower` *builds* these trees from tapes, the
printer below turns them into the C that is compiled, and
:mod:`repro.analysis.native_check` proves NAT001–NAT004 over the same
trees — one structure, written once, instead of C text that is printed
and then parsed back.

**Index expressions** are plain tuple trees::

    ("num", n)  ("id", name)  ("neg", e)  ("call", fn, args)
    ("bin", op, a, b)   op in + - * / %
    ("cmp", op, a, b)   op in < <= > >= == !=
    ("log", op, a, b)   op in && ||
    ("tern", cond, if_true, if_false)
    ("paren", e)        redundant grouping; same value as ``e``

**Statements** are deliberately low-level: every clip, clamp and split
bound (``y1``, ``sx0_k``, ``fla_k``, ``ila`` …) is an :class:`IntDecl`
whose *expression* the sanitizer checks, never a higher-level node that
would print its own clamps unseen.  Float
arithmetic is opaque text (:class:`Slot` parts); the only structured
thing inside it is a :class:`Load`.

**Channels are a stride.**  ``index`` of a :class:`Load` / :class:`Store`
counts *pixels*; ``stride`` is how many elements apart two pixels of the
buffer lie — 1 for a dense plane or tile scratch, ``C`` for one channel
of an interleaved ``(H, W, C)`` image, whose pointer the binder hands
over already advanced to that channel.

**The schedule** (:class:`Schedule`) is the decision a block's driver
is printed from — tile or row band, each stage's margins and interior
band.  It travels beside the tree, in the plan record without it, and
the sanitizer takes it as a certificate to check the tree against.

**The printer means the tree**: a child that binds looser than its
parent is parenthesised, so a builder that forgets a ``paren`` can
change bytes, never meaning.  Otherwise it prints what is there.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple, Union

__all__ = [
    "For",
    "Formal",
    "Func",
    "Guard",
    "IntDecl",
    "Load",
    "Return",
    "Schedule",
    "ScratchDecl",
    "Slot",
    "Stage",
    "Store",
    "TILE_ROWS",
    "block_text",
    "expr_text",
    "formal_text",
    "strip_parens",
]

Expr = tuple


# -- index-expression constructors -------------------------------------------


def num(value: int) -> Expr:
    """An integer literal (negative values print as ``-n``)."""
    return ("num", value)


def ident(name: str) -> Expr:
    """A C identifier: a loop variable, formal or ``const int`` temp."""
    return ("id", name)


def binop(op: str, a: Expr, b: Expr) -> Expr:
    """``a op b`` for an arithmetic ``op`` (``+ - * / %``)."""
    return ("bin", op, a, b)


def add(a: Expr, b: Expr) -> Expr:
    """``a + b``."""
    return ("bin", "+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    """``a - b``."""
    return ("bin", "-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    """``a * b``."""
    return ("bin", "*", a, b)


def paren(e: Expr) -> Expr:
    """``(e)`` — grouping the text carries but the value does not need."""
    return ("paren", e)


def min_of(a: Expr, b: Expr) -> Expr:
    """``a < b ? a : b``."""
    return ("tern", ("cmp", "<", a, b), a, b)


def max_of(a: Expr, b: Expr) -> Expr:
    """``a > b ? a : b``."""
    return ("tern", ("cmp", ">", a, b), a, b)


def strip_parens(node: Expr) -> Expr:
    """The tree without its ``paren`` nodes (what the sanitizer reads).

    Spelled out per node kind: it runs once per index expression of
    every sanitized block, and is ~4x faster than a generic walk.
    """
    kind = node[0]
    if kind == "paren":
        return strip_parens(node[1])
    if kind == "num" or kind == "id":
        return node
    if kind == "neg":
        return ("neg", strip_parens(node[1]))
    if kind == "call":
        return ("call", node[1], tuple(strip_parens(a) for a in node[2]))
    if kind == "tern":
        return (
            "tern",
            strip_parens(node[1]),
            strip_parens(node[2]),
            strip_parens(node[3]),
        )
    return (kind, node[1], strip_parens(node[2]), strip_parens(node[3]))


# -- statements --------------------------------------------------------------


class Load(NamedTuple):
    """``buffer[index]`` inside a slot's float expression
    (``buffer[(index) * stride]`` when pixels lie ``stride`` apart)."""

    buffer: str
    index: Expr
    stride: int = 1


class IntDecl(NamedTuple):
    """``const int name = expr;`` — a coordinate temp or a loop bound."""

    name: str
    expr: Expr


class Slot(NamedTuple):
    """``const ctype s<index> = <parts>;`` — one SSA tape slot.

    ``parts`` interleaves opaque float text with :class:`Load` nodes.
    """

    index: int
    ctype: str
    parts: Tuple[Union[str, Load], ...]


class Return(NamedTuple):
    """``return s<slot>;``."""

    slot: int


class ScratchDecl(NamedTuple):
    """``ctype name[size];`` — a per-tile stack scratch buffer."""

    name: str
    ctype: str
    size: int


class Store(NamedTuple):
    """``buffer[index] = callee(actuals);`` (the subscript scaled by
    ``stride`` as in :class:`Load`)."""

    buffer: str
    index: Expr
    callee: str
    actuals: Tuple[str, ...]
    stride: int = 1


class For(NamedTuple):
    """``for (int var = lo; var < hi; ++var)`` over ``body``.

    ``pragma`` is ``"simd"``, ``"parallel"`` or ``None``.  A loop whose
    body is one :class:`Store` prints without braces.
    """

    var: str
    lo: Expr
    hi: Expr
    body: tuple
    pragma: Optional[str] = None


class Guard(NamedTuple):
    """``if (var >= lo && var < hi) { then } else { orelse }``."""

    var: str
    lo: Expr
    hi: Expr
    then: tuple
    orelse: tuple


class Formal(NamedTuple):
    """One formal; pointer ``ctype`` values end in ``*``."""

    ctype: str
    name: str
    restrict: bool = False


class Func(NamedTuple):
    """One C function; ``unused`` formals get a ``(void)name;`` line."""

    name: str
    ret: str
    formals: Tuple[Formal, ...]
    body: tuple
    unused: Tuple[str, ...] = ()


# -- schedule ----------------------------------------------------------------

#: Rows per tile of a row band (the OpenMP work unit) — large enough to
#: amortize scheduling, small enough to load-balance tall images across
#: threads.
TILE_ROWS = 64


class Stage(NamedTuple):
    """One stage of a :class:`Schedule`.

    ``margins`` ``(L, R, T, B)`` grow the tile into the region the stage
    is computed over; ``band`` ``(xlo, xhi, ylo, yhi)`` is where its
    clamp-free interior body runs (``None``: the halo body everywhere);
    a ``materialized`` stage fills per-tile scratch ``scr_<k>``, the
    last one writes ``out``.
    """

    name: str
    margins: Tuple[int, int, int, int]
    band: Optional[Tuple[int, int, int, int]]
    materialized: bool


class Schedule(NamedTuple):
    """How one block is swept: the tile ``(th, tw)`` (``None``: a row
    band of :data:`TILE_ROWS` rows, x untiled), its stages in order, the
    window-invariant hoisting notes, and whether the tile loop is an
    OpenMP parallel region.  The lowering prints its driver from it, the
    plan record keeps it (:meth:`manifest`), and the sanitizer checks the
    tree against it."""

    tile: Optional[Tuple[int, int]]
    stages: Tuple[Stage, ...]
    hoisted: Tuple[dict, ...]
    parallel: bool

    @property
    def grid(self) -> Tuple[int, Optional[int]]:
        """Rows and columns of one tile (columns ``None``: x untiled)."""
        return self.tile or (TILE_ROWS, None)

    def manifest(self) -> dict:
        """The schedule as JSON values."""
        return {
            "tile": self.tile and list(self.tile),
            "stages": [
                [s.name, list(s.margins), s.band and list(s.band), s.materialized]
                for s in self.stages
            ],
            "hoisted": list(self.hoisted),
            "parallel": self.parallel,
        }

    @classmethod
    def from_manifest(cls, entry: dict) -> "Schedule":
        """The schedule :meth:`manifest` wrote."""
        stages = [
            Stage(name, tuple(margins), band and tuple(band), materialized)
            for name, margins, band, materialized in entry["stages"]
        ]
        tile = entry["tile"]
        return cls(
            tile and tuple(tile), tuple(stages), tuple(entry["hoisted"]), entry["parallel"]
        )


# -- printer -----------------------------------------------------------------

_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}
_UNARY, _ATOM = 7, 8
#: Floor for an operand of ``<`` / ``>=`` in loop headers and guards.
_OPERAND = _PREC["<"] + 1

_PRAGMAS = {
    "simd": "#pragma omp simd",
    "parallel": (
        "#ifdef _OPENMP\n"
        "#pragma omp parallel for schedule(static) "
        "num_threads(threads > 0 ? threads : 1)\n"
        "#endif"
    ),
}


def expr_text(node: Expr, floor: int = 0) -> str:
    """C text of an index tree, parenthesised when it binds looser than
    ``floor`` (the precedence its context requires)."""
    kind = node[0]
    if kind == "id":
        return node[1]
    if kind == "paren":
        return f"({expr_text(node[1])})"
    if kind == "call":
        return f"{node[1]}({', '.join(expr_text(a) for a in node[2])})"
    if kind == "num":
        text, prec = str(node[1]), _ATOM if node[1] >= 0 else _UNARY
    elif kind == "neg":
        text, prec = "-" + expr_text(node[1], _ATOM), _UNARY
    elif kind == "tern":
        text = (
            f"{expr_text(node[1], 1)} ? {expr_text(node[2])} : "
            f"{expr_text(node[3])}"
        )
        prec = 0
    else:  # bin / cmp / log, all left-associative
        prec = _PREC[node[1]]
        text = (
            f"{expr_text(node[2], prec)} {node[1]} "
            f"{expr_text(node[3], prec + 1)}"
        )
    return f"({text})" if prec < floor else text


def formal_text(formal: Formal) -> str:
    """``const double *restrict in_a`` / ``const int width``."""
    qualifier = "restrict " if formal.restrict else ""
    gap = "" if formal.ctype.endswith("*") else " "
    return f"{formal.ctype}{qualifier}{gap}{formal.name}"


def _subscript_text(node: Union[Load, Store]) -> str:
    """``buffer[index]``, the pixel index scaled by a stride past 1."""
    index = expr_text(node.index)
    if node.stride != 1:
        index = f"({index}) * {node.stride}"
    return f"{node.buffer}[{index}]"


def _emit(node, column: int, out: list) -> None:
    kind = type(node)
    pad = " " * column
    if kind is Slot:
        value = "".join(
            part if type(part) is str else _subscript_text(part)
            for part in node.parts
        )
        out.append(f"{pad}const {node.ctype} s{node.index} = {value};")
    elif kind is IntDecl:
        out.append(f"{pad}const int {node.name} = {expr_text(node.expr)};")
    elif kind is Store:
        out.append(
            f"{pad}{_subscript_text(node)} = "
            f"{node.callee}({', '.join(node.actuals)});"
        )
    elif kind is For:
        if node.pragma is not None:
            out.append(_PRAGMAS[node.pragma])
        braces = not (len(node.body) == 1 and type(node.body[0]) is Store)
        var = node.var
        out.append(
            f"{pad}for (int {var} = {expr_text(node.lo)}; "
            f"{var} < {expr_text(node.hi, _OPERAND)}; ++{var})"
            + (" {" if braces else "")
        )
        for child in node.body:
            _emit(child, column + 4, out)
        if braces:
            out.append(pad + "}")
    elif kind is Guard:
        var = node.var
        out.append(
            f"{pad}if ({var} >= {expr_text(node.lo, _OPERAND)} && "
            f"{var} < {expr_text(node.hi, _OPERAND)}) {{"
        )
        for child in node.then:
            _emit(child, column + 4, out)
        out.append(pad + "} else {")
        for child in node.orelse:
            _emit(child, column + 4, out)
        out.append(pad + "}")
    elif kind is ScratchDecl:
        out.append(f"{pad}{node.ctype} {node.name}[{node.size}];")
    elif kind is Return:
        out.append(f"{pad}return s{node.slot};")
    else:
        raise TypeError(f"not a loop-nest statement: {node!r}")


def block_text(functions: Sequence[Func]) -> str:
    """The C text of one lowered block: its functions in order."""
    out: list = []
    for fn in functions:
        formals = ", ".join(formal_text(formal) for formal in fn.formals)
        out += [f"{fn.ret} {fn.name}({formals})", "{"]
        out += [f"    (void){name};" for name in fn.unused]
        for node in fn.body:
            _emit(node, 4, out)
        out.append("}")
    out.append("")
    return "\n".join(out)
