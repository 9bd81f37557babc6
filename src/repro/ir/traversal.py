"""Generic traversals and rewrites over the expression IR.

The fusion engine relies on two primitives defined here:

* :func:`substitute_inputs` — replace reads of an intermediate image by an
  arbitrary expression produced per read site.  This is how a producer
  kernel body is inlined into its consumer.
* :func:`shift_offsets` — translate every read of a kernel body by a
  constant offset, used when a local consumer asks for the producer value
  at a neighbouring pixel.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Set, Tuple

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

Offset = Tuple[int, int]


@contextmanager
def recursion_headroom(limit: int = 20000) -> Iterator[None]:
    """Scoped recursion-limit raise for deeply fused recursive walks.

    Restores the prior limit on exit; a no-op when the current limit
    already suffices, so nesting is cheap.
    """
    prior = sys.getrecursionlimit()
    if prior >= limit:
        yield
        return
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(prior)


def children(expr: Expr) -> Tuple[Expr, ...]:
    """Return the direct sub-expressions of a node."""
    if isinstance(expr, (Const, Param, InputAt)):
        return ()
    if isinstance(expr, (BinOp, Cmp)):
        return (expr.lhs, expr.rhs)
    if isinstance(expr, UnOp):
        return (expr.operand,)
    if isinstance(expr, Cast):
        return (expr.operand,)
    if isinstance(expr, Select):
        return (expr.cond, expr.if_true, expr.if_false)
    if isinstance(expr, Call):
        return expr.args
    raise TypeError(f"not an IR node: {expr!r}")


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield every node of the tree, pre-order, iteratively.

    Iterative so that the deep expressions produced by repeated inlining
    during local-to-local fusion do not hit the recursion limit.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def rebuild(expr: Expr, new_children: Tuple[Expr, ...]) -> Expr:
    """Reconstruct ``expr`` with replacement children."""
    if isinstance(expr, (Const, Param, InputAt)):
        return expr
    if isinstance(expr, BinOp):
        return BinOp(expr.op, new_children[0], new_children[1])
    if isinstance(expr, Cmp):
        return Cmp(expr.op, new_children[0], new_children[1])
    if isinstance(expr, UnOp):
        return UnOp(expr.op, new_children[0])
    if isinstance(expr, Cast):
        return Cast(expr.dtype, new_children[0])
    if isinstance(expr, Select):
        return Select(new_children[0], new_children[1], new_children[2])
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(new_children))
    raise TypeError(f"not an IR node: {expr!r}")


def transform(expr: Expr, fn: Callable[[Expr], Expr | None]) -> Expr:
    """Bottom-up rewrite.

    ``fn`` is applied to every node after its children were rewritten; it
    returns a replacement node or ``None`` to keep the (rebuilt) node.
    The rewrite is iterative (explicit stack) and shares unchanged
    subtrees.
    """
    # Post-order over an explicit stack: (node, visited_flag).
    result: Dict[int, Expr] = {}
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, visited = stack.pop()
        if visited:
            kids = children(node)
            new_kids = tuple(result[id(k)] for k in kids)
            rebuilt = node if all(a is b for a, b in zip(kids, new_kids)) else rebuild(
                node, new_kids
            )
            replaced = fn(rebuilt)
            result[id(node)] = rebuilt if replaced is None else replaced
        else:
            stack.append((node, True))
            for child in children(node):
                stack.append((child, False))
    return result[id(expr)]


def substitute_inputs(
    expr: Expr, mapping: Dict[str, Callable[[int, int], Expr]]
) -> Expr:
    """Replace reads of selected images.

    ``mapping`` maps an image name to a builder receiving the read offset
    ``(dx, dy)`` and returning the replacement expression.  Reads of
    images not present in ``mapping`` are left untouched.
    """

    def rewrite(node: Expr) -> Expr | None:
        if isinstance(node, InputAt) and node.image in mapping:
            return mapping[node.image](node.dx, node.dy)
        return None

    return transform(expr, rewrite)


def shift_offsets(expr: Expr, dx: int, dy: int) -> Expr:
    """Translate every image read of ``expr`` by ``(dx, dy)``."""
    if dx == 0 and dy == 0:
        return expr

    def rewrite(node: Expr) -> Expr | None:
        if isinstance(node, InputAt):
            return InputAt(node.image, node.dx + dx, node.dy + dy)
        return None

    return transform(expr, rewrite)


def inputs_of(expr: Expr) -> Dict[str, Set[Offset]]:
    """Collect, per accessed image, the set of read offsets."""
    reads: Dict[str, Set[Offset]] = {}
    for node in walk(expr):
        if isinstance(node, InputAt):
            reads.setdefault(node.image, set()).add((node.dx, node.dy))
    return reads


def params_of(expr: Expr) -> Set[str]:
    """Collect the names of all runtime parameters referenced."""
    return {node.name for node in walk(expr) if isinstance(node, Param)}


def input_extent(expr: Expr) -> Tuple[int, int]:
    """Radius of the read window in x and y across *all* images.

    Returns ``(rx, ry)`` such that every read offset satisfies
    ``|dx| <= rx`` and ``|dy| <= ry``.  A point operator has extent
    ``(0, 0)``.
    """
    return reads_extent(inputs_of(expr))


def reads_extent(reads: Dict[str, Set[Offset]]) -> Tuple[int, int]:
    """:func:`input_extent` of already collected :func:`inputs_of`."""
    rx = ry = 0
    for offsets in reads.values():
        for dx, dy in offsets:
            rx = max(rx, abs(dx))
            ry = max(ry, abs(dy))
    return rx, ry


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality (dataclass equality is structural already)."""
    return a == b


def count_nodes(expr: Expr) -> int:
    """Total number of nodes in the tree (diagnostics / tests)."""
    return sum(1 for _ in walk(expr))
