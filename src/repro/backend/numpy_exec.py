"""Reference executor on NumPy arrays: the recursive oracle.

Two semantics exist, and their agreement is the central correctness
property of the reproduction:

* **staged**: every kernel runs separately (:func:`execute_kernel`),
  intermediates are materialized as full arrays — the semantics of the
  unfused program, where each local kernel re-applies boundary handling
  to its (materialized) input;
* **fused**: a partition block runs as one kernel.  Intermediate values
  are recomputed per consumer read (the redundant computation the
  benefit model prices), and intermediate coordinates are resolved in
  two stages: the consumer's boundary mode exchanges out-of-border
  intermediate indices for valid ones (the index exchange of
  Section IV-B), then the producer's own reads resolve against *its*
  inputs.  ``naive_borders=True`` disables the exchange and reproduces
  the incorrect single-stage composition of Fig. 4b.

Evaluation is vectorized: expressions are evaluated over full integer
coordinate grids, so a recursive producer evaluation at exchanged
coordinates is a fancy-indexing gather, not a per-pixel loop.

This module is the ``"recursive"`` engine — the walk every differential
test compares against, and the only one ``call_counter`` instruments.
It is reached, like the ``"tape"`` and ``"native"`` engines, through
:func:`repro.api.run` / :func:`repro.api.run_block`; the table of
engines and the order they degrade in lives in
:mod:`repro.backend.engines`.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.dsl.boundary import BoundaryMode, BoundarySpec, resolve_array
from repro.dsl.kernel import Kernel, ReductionKind
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
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

Arrays = Dict[str, np.ndarray]
Params = Dict[str, float]

#: numpy ufuncs for binary ALU ops.
_BIN_FN = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "mod": np.mod,
    "min": np.minimum,
    "max": np.maximum,
}

_CMP_FN = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}

_CALL_FN = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "rsqrt": lambda x: 1.0 / np.sqrt(x),
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "tanh": np.tanh,
    "pow": np.power,
    "atan2": np.arctan2,
}


class ExecutionError(RuntimeError):
    """Raised for execution-time problems (missing arrays, bad shapes)."""


def fault_check(site: str) -> None:
    """Fire serving-layer fault injection at ``site``, when armed.

    The backends are instrumented for the deterministic fault harness
    of :mod:`repro.serve.faultinject`, but must not import the serving
    stack (the dependency points the other way, and most processes
    never serve).  Probing ``sys.modules`` keeps the cost at one dict
    lookup unless something already imported the harness — at which
    point its lock-free ``armed()`` flag short-circuits the idle case.
    """
    faults = sys.modules.get("repro.serve.faultinject")
    if faults is not None and faults.armed():
        faults.check(site)


def _array_for(image_name: str, arrays: Arrays) -> np.ndarray:
    try:
        return np.asarray(arrays[image_name])
    except KeyError:
        raise ExecutionError(f"no array bound for image {image_name!r}") from None


def _apply_mask(
    values: np.ndarray, mask: np.ndarray | None, fill: float
) -> np.ndarray:
    """Substitute ``fill`` where ``mask`` is set (CONSTANT boundary)."""
    if mask is None:
        return values
    if values.ndim == mask.ndim + 1:  # multi-channel image
        mask = mask[..., None]
    return np.where(mask, fill, values)


def gather(
    array: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    boundary: BoundarySpec,
) -> np.ndarray:
    """Read ``array`` at integer coordinate grids with boundary handling."""
    height, width = array.shape[:2]
    if boundary.mode is BoundaryMode.CONSTANT:
        xr, mask_x = resolve_array(xs, width, boundary.mode)
        yr, mask_y = resolve_array(ys, height, boundary.mode)
        return _apply_mask(array[yr, xr], mask_x | mask_y, boundary.constant)
    xr, _ = resolve_array(xs, width, boundary.mode)
    yr, _ = resolve_array(ys, height, boundary.mode)
    return array[yr, xr]


ReadFn = Callable[[str, int, int, np.ndarray, np.ndarray], np.ndarray]


def evaluate(
    expr: Expr,
    read: ReadFn,
    params: Params,
    xs: np.ndarray,
    ys: np.ndarray,
    memo: dict | None = None,
) -> np.ndarray:
    """Evaluate an expression over coordinate grids ``(xs, ys)``.

    ``read`` produces the value grid for an image read at an offset;
    it receives the coordinate grids so recursive (fused) evaluation can
    resolve them stage by stage.

    ``memo`` (when given) caches results per structurally-identical
    subexpression for *this* coordinate grid — the runtime counterpart
    of the register reuse that CSE-aware op counting assumes (Eq. 5):
    a shared subtree is computed once and reused.  Callers must pass a
    fresh dict per (read, xs, ys) context.
    """
    if memo is not None:
        cached = memo.get(expr)
        if cached is not None:
            return cached
        value = _evaluate_node(expr, read, params, xs, ys, memo)
        memo[expr] = value
        return value
    return _evaluate_node(expr, read, params, xs, ys, None)


def _evaluate_node(
    expr: Expr,
    read: ReadFn,
    params: Params,
    xs: np.ndarray,
    ys: np.ndarray,
    memo: dict | None,
) -> np.ndarray:
    if isinstance(expr, Const):
        return np.float64(expr.value)
    if isinstance(expr, Param):
        try:
            return np.float64(params[expr.name])
        except KeyError:
            raise ExecutionError(f"unbound parameter {expr.name!r}") from None
    if isinstance(expr, InputAt):
        return read(expr.image, expr.dx, expr.dy, xs, ys)
    if isinstance(expr, BinOp):
        return _BIN_FN[expr.op](
            evaluate(expr.lhs, read, params, xs, ys, memo),
            evaluate(expr.rhs, read, params, xs, ys, memo),
        )
    if isinstance(expr, UnOp):
        operand = evaluate(expr.operand, read, params, xs, ys, memo)
        return -operand if expr.op == "neg" else np.abs(operand)
    if isinstance(expr, Cmp):
        return _CMP_FN[expr.op](
            evaluate(expr.lhs, read, params, xs, ys, memo),
            evaluate(expr.rhs, read, params, xs, ys, memo),
        ).astype(np.float64)
    if isinstance(expr, Select):
        cond = evaluate(expr.cond, read, params, xs, ys, memo)
        return np.where(
            cond != 0.0,
            evaluate(expr.if_true, read, params, xs, ys, memo),
            evaluate(expr.if_false, read, params, xs, ys, memo),
        )
    if isinstance(expr, Call):
        args = [evaluate(a, read, params, xs, ys, memo) for a in expr.args]
        return _CALL_FN[expr.fn](*args)
    if isinstance(expr, Cast):
        value = evaluate(expr.operand, read, params, xs, ys, memo)
        return np.asarray(value).astype(expr.dtype).astype(np.float64)
    raise ExecutionError(f"cannot evaluate node {type(expr).__name__}")


def _coordinate_grids(kernel: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate grids of the kernel's iteration space.

    Point/local kernels iterate their output space; global (reduction)
    kernels iterate their *input* space — the output only holds the
    reduced value(s).
    """
    space = kernel.space
    if kernel.reduction is not None and kernel.accessors:
        space = kernel.accessors[0].image.space
    xs, ys = np.meshgrid(np.arange(space.width), np.arange(space.height))
    return xs, ys


def _broadcast_output(value: np.ndarray, kernel: Kernel) -> np.ndarray:
    """Broadcast scalar results to the full output grid."""
    shape = (kernel.space.height, kernel.space.width)
    if kernel.space.channels > 1:
        shape = shape + (kernel.space.channels,)
    return np.broadcast_to(np.asarray(value, dtype=np.float64), shape).copy()


def execute_kernel(
    kernel: Kernel, arrays: Arrays, params: Params | None = None
) -> np.ndarray:
    """Execute a single kernel over its full iteration space.

    For global operators the per-pixel values are reduced according to
    the kernel's :class:`~repro.dsl.kernel.ReductionKind` and the result
    is broadcast over the output space (histograms fill a ``bins x 1``
    output row instead).
    """
    params = params or {}
    xs, ys = _coordinate_grids(kernel)

    def read(image, dx, dy, cx, cy):
        boundary = kernel.accessor_for(image).boundary
        return gather(_array_for(image, arrays), cx + dx, cy + dy, boundary)

    with recursion_headroom():
        values = evaluate(kernel.body, read, params, xs, ys, memo={})

    if kernel.reduction is None:
        return _broadcast_output(values, kernel)
    if kernel.reduction is ReductionKind.SUM:
        return _broadcast_output(np.sum(values), kernel)
    if kernel.reduction is ReductionKind.MIN:
        return _broadcast_output(np.min(values), kernel)
    if kernel.reduction is ReductionKind.MAX:
        return _broadcast_output(np.max(values), kernel)
    if kernel.reduction is ReductionKind.HISTOGRAM:
        bins = kernel.output.space.width
        counts, _ = np.histogram(values, bins=bins, range=(0.0, float(bins)))
        return counts.astype(np.float64).reshape(1, bins)
    raise ExecutionError(f"unknown reduction {kernel.reduction!r}")


def _execute_block_recursive(
    graph: KernelGraph,
    block: PartitionBlock,
    arrays: Arrays,
    params: Params | None = None,
    naive_borders: bool = False,
    call_counter: Dict[str, int] | None = None,
) -> np.ndarray:
    """Fused-block execution through the recursive engine.

    Intermediate images are never materialized: a consumer read of an
    intermediate pixel recursively evaluates the producer at the
    requested coordinates.  The coordinates are first *exchanged*
    against the intermediate image's bounds under the consumer's
    boundary mode — the two-stage resolution that makes local-to-local
    fusion border-correct.  With ``naive_borders=True`` the exchange is
    skipped and out-of-border intermediate coordinates flow raw into
    the producer (single-stage resolution), which reproduces the
    incorrect behaviour of plain body composition (Fig. 4b).

    ``call_counter`` (when given) is filled with the number of times
    each member kernel was (re)evaluated — the empirical recomputation
    factors behind the benefit model's φ term: a point consumer
    evaluates its producer once (the Eq. 5 register reuse), a local
    consumer once per distinct window offset.  The counts instrument
    *this* engine's evaluation order (the tape engine deduplicates
    producer evaluations by grid).
    """
    params = params or {}
    producer_of = {
        graph.kernel(name).output.name: name for name in block.vertices
    }
    destinations = block.destination_kernels()
    if len(destinations) != 1:
        raise ExecutionError(
            f"block {sorted(block.vertices)} has no unique destination"
        )

    def eval_member(name: str, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if call_counter is not None:
            call_counter[name] = call_counter.get(name, 0) + 1
        kernel = graph.kernel(name)

        def read(image, dx, dy, cx, cy):
            boundary = kernel.accessor_for(image).boundary
            xi, yi = cx + dx, cy + dy
            producer = producer_of.get(image)
            if producer is None:
                return gather(_array_for(image, arrays), xi, yi, boundary)
            if naive_borders:
                return eval_member(producer, xi, yi)
            space = kernel.accessor_for(image).image.space
            xr, mask_x = resolve_array(xi, space.width, boundary.mode)
            yr, mask_y = resolve_array(yi, space.height, boundary.mode)
            values = eval_member(producer, xr, yr)
            if boundary.mode is BoundaryMode.CONSTANT:
                values = _apply_mask(values, mask_x | mask_y, boundary.constant)
            return values

        # Fresh memo per member evaluation: identical subexpressions
        # over *these* coordinates are computed once (register reuse).
        return evaluate(kernel.body, read, params, xs, ys, memo={})

    destination = graph.kernel(destinations[0])
    xs, ys = _coordinate_grids(destination)
    with recursion_headroom():
        values = eval_member(destinations[0], xs, ys)
    return _broadcast_output(values, destination)


def block_schedule(graph: KernelGraph, partition: Partition) -> List[PartitionBlock]:
    """Blocks in dependence order (a block runs after its producers)."""
    return [block for block, _inputs in scheduled_blocks(graph, partition)]


def scheduled_blocks(
    graph: KernelGraph, partition: Partition
) -> List[Tuple[PartitionBlock, Tuple[str, ...]]]:
    """:func:`block_schedule`, each block with the external input images
    the ordering read off it (:meth:`PartitionBlock.external_input_images`,
    computed once per block)."""
    pending = [(block, block.external_input_images()) for block in partition.blocks]
    available = set(graph.pipeline_inputs())
    ordered: List[Tuple[PartitionBlock, Tuple[str, ...]]] = []
    while pending:
        progressed = False
        for item in list(pending):
            block, external = item
            if available.issuperset(external):
                ordered.append(item)
                pending.remove(item)
                for name in block.vertices:
                    available.add(graph.kernel(name).output.name)
                progressed = True
        if not progressed:  # pragma: no cover - partition invariant
            raise ExecutionError("circular dependence between blocks")
    return ordered


def _execute_partitioned_recursive(
    graph: KernelGraph,
    partition: Partition,
    inputs: Arrays,
    params: Params | None = None,
    naive_borders: bool = False,
) -> Arrays:
    """Partitioned execution through the recursive engine."""
    env: Arrays = dict(inputs)
    for block in block_schedule(graph, partition):
        if len(block) == 1:
            (name,) = block.vertices
            kernel = graph.kernel(name)
            env[kernel.output.name] = execute_kernel(kernel, env, params)
        else:
            destination = graph.kernel(block.destination_kernels()[0])
            env[destination.output.name] = _execute_block_recursive(
                graph,
                block,
                env,
                params,
                naive_borders=naive_borders,
            )
    return env
