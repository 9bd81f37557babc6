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

The walk is one recursive function, :func:`_slot`, that dispatches on
the node's exact type once and builds the descriptor in place from its
operands' slots; a node object is probed in the identity table once,
on entry.  It keeps its state in three containers passed down as
arguments — no closure refers to itself and no object refers back to
the walk — so a signature leaves no reference cycle: everything the
walk allocated is freed by reference counting when it returns, and a
request that signs a graph leaves the cyclic collector nothing to find
(``tests/backend/test_restore_garbage.py``).

Depth: each nesting level is one Python frame, and Python-to-Python
calls do not consume the C stack, so depth is bounded only by the
recursion limit.  A body walks under the caller's limit first; a
deeper one is walked again under a limit raised eightfold until it
fits (:func:`~repro.ir.traversal.recursion_headroom`, restored on
return): under the default limit of 1 000, a 20 000-deep chain walks
1 000, 8 000, then 20 000 levels deep.  CPython 3.11 frees a
frame-stack chunk as soon as the frame at its base returns, so a walk
straddling a chunk boundary pays an allocation per crossing and its
cost moves with the caller's stack depth, by up to 2.6× on Harris's
bodies.  Averaged over caller depths it still measured faster on the
paper apps' bodies than an explicit-stack walk that visits each
operator twice (to push its operands, then to emit it); see
EXPERIMENTS.md.

:func:`canonical_digest` hashes such payloads: ``marshal`` format 0
writes equal plain values as equal bytes whatever their object sharing
or string interning, in about a quarter of the time ``repr`` takes.
"""

from __future__ import annotations

import hashlib
import marshal
import sys
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
from repro.ir.traversal import recursion_headroom

#: One node descriptor: an op tag plus immediates and child slot indices.
NodeSig = Tuple
#: A whole-expression signature: descriptors in first-visit order.
ExprSig = Tuple[NodeSig, ...]


def expr_signature(root: Expr) -> ExprSig:
    """The value-numbered structural signature of ``root``.

    Slots are assigned by descriptor, not by object identity: a
    physically shared subtree and two structurally equal copies produce
    the same signature (identity only short-circuits re-walking shared
    nodes).  Raises :class:`TypeError` on a node that is not exactly one
    of the IR node types.
    """
    limit = sys.getrecursionlimit()
    while True:
        nodes: List[NodeSig] = []
        try:
            if limit == sys.getrecursionlimit():
                _slot(root, {}, {}, nodes)
            else:
                with recursion_headroom(limit):
                    _slot(root, {}, {}, nodes)
            return tuple(nodes)
        except RecursionError:
            limit *= 8


def _slot(
    node: Expr,
    slot_of: Dict[int, int],
    slot_by_descriptor: Dict[NodeSig, int],
    nodes: List[NodeSig],
) -> int:
    """The slot of ``node``: its operands' slots first (left to right),
    then its descriptor's — appended to ``nodes`` unless an equal
    descriptor already has one."""
    key = id(node)
    slot = slot_of.get(key)
    if slot is not None:
        return slot
    kind = type(node)
    if kind is BinOp:
        descriptor = (
            "bin",
            node.op,
            _slot(node.lhs, slot_of, slot_by_descriptor, nodes),
            _slot(node.rhs, slot_of, slot_by_descriptor, nodes),
        )
    elif kind is InputAt:
        descriptor = ("input", node.image, node.dx, node.dy)
    elif kind is Const:
        descriptor = ("const", float(node.value))
    elif kind is Call:
        descriptor = ("call", node.fn) + tuple(
            [_slot(arg, slot_of, slot_by_descriptor, nodes) for arg in node.args]
        )
    elif kind is UnOp:
        descriptor = (
            "un",
            node.op,
            _slot(node.operand, slot_of, slot_by_descriptor, nodes),
        )
    elif kind is Cmp:
        descriptor = (
            "cmp",
            node.op,
            _slot(node.lhs, slot_of, slot_by_descriptor, nodes),
            _slot(node.rhs, slot_of, slot_by_descriptor, nodes),
        )
    elif kind is Select:
        descriptor = (
            "select",
            _slot(node.cond, slot_of, slot_by_descriptor, nodes),
            _slot(node.if_true, slot_of, slot_by_descriptor, nodes),
            _slot(node.if_false, slot_of, slot_by_descriptor, nodes),
        )
    elif kind is Param:
        descriptor = ("param", node.name)
    elif kind is Cast:
        descriptor = (
            "cast",
            node.dtype,
            _slot(node.operand, slot_of, slot_by_descriptor, nodes),
        )
    else:
        raise TypeError(f"cannot sign node {kind.__name__}")
    slot = slot_by_descriptor.get(descriptor)
    if slot is None:
        slot = slot_by_descriptor[descriptor] = len(nodes)
        nodes.append(descriptor)
    slot_of[key] = slot
    return slot


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
