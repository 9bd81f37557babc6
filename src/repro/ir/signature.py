"""Structural signatures of IR expressions, and their canonical digest.

The serving runtime (:mod:`repro.serve`) caches compiled plans across
*separately built* pipelines: two clients that each call
``harris.build_pipeline()`` must land on the same cache entry even
though every ``Expr`` object differs by identity.  That requires a
signature that depends only on *structure* — operators, constants,
read offsets — never on object identity or insertion order.

:func:`expr_signature` flattens an expression DAG into a value-numbered
tuple of node descriptors: identical subcomputations — whether
physically shared or built as separate copies — collapse to one slot
and are referenced by index afterwards (the same discipline as
:mod:`repro.ir.cse` and the tape compiler's value numbering).  Two
expressions computing the same thing produce identical signatures
regardless of how their construction code shared nodes; changing any
constant, operator, offset, or image name changes the signature.  The
descriptors are in evaluation order (operands before their user, left
to right), so the tape compiler (:mod:`repro.backend.plan`) evaluates
a kernel body as one forward loop over them.

:func:`canonical_digest` hashes such payloads: ``marshal`` format 0
writes equal plain values as equal bytes whatever their object sharing
or string interning, in about a quarter of the time ``repr`` takes.
"""

from __future__ import annotations

import hashlib
import marshal
from typing import Dict, List, Tuple

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

#: One node descriptor: an op tag plus immediates and child slot indices.
NodeSig = Tuple
#: A whole-expression signature: descriptors in first-visit order.
ExprSig = Tuple[NodeSig, ...]

#: Node type -> ``(descriptor head, operands)``: the tag and immediates,
#: then the nodes whose slots complete the descriptor, in order.
_PARTS = {
    Const: lambda node: (("const", float(node.value)), ()),
    Param: lambda node: (("param", node.name), ()),
    InputAt: lambda node: (("input", node.image, node.dx, node.dy), ()),
    BinOp: lambda node: (("bin", node.op), (node.lhs, node.rhs)),
    UnOp: lambda node: (("un", node.op), (node.operand,)),
    Cmp: lambda node: (("cmp", node.op), (node.lhs, node.rhs)),
    Select: lambda node: (("select",), (node.cond, node.if_true, node.if_false)),
    Call: lambda node: (("call", node.fn), tuple(node.args)),
    Cast: lambda node: (("cast", node.dtype), (node.operand,)),
}


def expr_signature(root: Expr) -> ExprSig:
    """The value-numbered structural signature of ``root``.

    The walk is iterative (explicit stack), so deeply fused bodies do
    not consume Python stack frames, and it looks each node's type up
    once.  Slots are assigned by descriptor, not by object identity: a
    physically shared subtree and two structurally equal copies produce
    the same signature (identity only short-circuits re-walking shared
    nodes).
    """
    nodes: List[NodeSig] = []
    slot_of: Dict[int, int] = {}
    slot_by_descriptor: Dict[NodeSig, int] = {}
    # Post-order: a node goes back on the stack with its parts, under
    # its operands, so they have slots when it emits its descriptor.
    stack: List[tuple] = [(root, None)]
    while stack:
        node, parts = stack.pop()
        if id(node) in slot_of:
            continue
        if parts is None:
            split = _PARTS.get(type(node))
            if split is None:
                raise TypeError(f"cannot sign node {type(node).__name__}")
            parts = split(node)
            if parts[1]:
                stack.append((node, parts))
                for child in reversed(parts[1]):
                    if id(child) not in slot_of:
                        stack.append((child, None))
                continue
        head, operands = parts
        if operands:
            descriptor = head + tuple([slot_of[id(child)] for child in operands])
        else:
            descriptor = head
        slot = slot_by_descriptor.get(descriptor)
        if slot is None:
            slot = slot_by_descriptor[descriptor] = len(nodes)
            nodes.append(descriptor)
        slot_of[id(node)] = slot
    return tuple(nodes)


def canonical_digest(payload) -> str:
    """SHA-256 hex of ``payload``'s canonical bytes.

    ``payload`` is built of tuples, lists, strings, numbers, booleans and
    ``None``.  A payload ``marshal`` rejects (a ``str`` subclass, an
    enum) is first coerced — subclasses to their base type, anything
    else to its ``repr`` — so the digest never raises.  ``marshal`` does
    not reject NumPy scalars, it writes their buffer, so the IR keeps
    none: constants enter the signature as floats, and read offsets and
    boundary fills are coerced where they are built.
    """
    try:
        data = marshal.dumps(payload, 0)
    except ValueError:
        data = marshal.dumps(_plain(payload), 0)
    return hashlib.sha256(data).hexdigest()


_EXACT = frozenset({str, int, float, bool, type(None), bytes})


def _plain(value):
    """``value`` with every part ``marshal`` rejects replaced by the
    plain value it stands for (by its ``repr`` when there is none)."""
    if type(value) in _EXACT:
        return value
    if isinstance(value, (tuple, list)):
        items = [_plain(item) for item in value]
        return items if isinstance(value, list) else tuple(items)
    for kind in (int, float, str, bytes):
        if isinstance(value, kind):
            return kind(value)
    return repr(value)
