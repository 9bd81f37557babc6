"""Materializing fused kernels (Section IV).

Fusing a legal partition block produces one kernel:

* the **flattened body** inlines every intra-block producer into its
  consumers — point producers are substituted directly, local producers
  are substituted with their reads shifted by the consuming offset
  (window composition).  The flattened body is the exact computation the
  fused GPU kernel performs in the *interior* region, and its operation
  and read counts are what the performance simulator charges (the
  redundant recomputation of Eq. 7/10 appears naturally);
* the **stage structure** (which member produced which image, through
  which accessors) is retained on the :class:`FusedKernel`, because
  border-correct execution needs two-stage index resolution (the index
  exchange of Section IV-B) that a flat expression with static offsets
  cannot represent.

Only the inputs of the block's source kernels and the destination's
output remain in the fused kernel's signature (Listing 1b).
"""

from __future__ import annotations

from typing import Dict, List

from repro.dsl.kernel import Accessor, Kernel
from repro.graph.dag import GraphError, KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.ir.expr import Expr
from repro.ir.traversal import shift_offsets, substitute_inputs


def flatten_block_body(graph: KernelGraph, block: PartitionBlock) -> Expr:
    """Inline all intra-block producers into the destination body.

    Valid in the interior region (all composed offsets in bounds); the
    halo region additionally needs index exchange at execution time.
    """
    produced: Dict[str, str] = {
        graph.kernel(name).output.name: name for name in block.vertices
    }
    flattened: Dict[str, Expr] = {}

    def flat_body(kernel_name: str) -> Expr:
        if kernel_name in flattened:
            return flattened[kernel_name]
        kernel = graph.kernel(kernel_name)
        mapping = {}
        for image_name in kernel.input_names:
            if image_name in produced:
                body = flat_body(produced[image_name])
                mapping[image_name] = (
                    lambda dx, dy, _body=body: shift_offsets(_body, dx, dy)
                )
        body = (
            substitute_inputs(kernel.body, mapping) if mapping else kernel.body
        )
        flattened[kernel_name] = body
        return body

    destinations = block.destination_kernels()
    if len(destinations) != 1:
        raise GraphError(
            f"block {sorted(block.vertices)} has {len(destinations)} "
            "destination kernels; only legal blocks can be fused"
        )
    return flat_body(destinations[0])


class FusedKernel(Kernel):
    """The kernel resulting from fusing a partition block.

    Behaves as an ordinary :class:`~repro.dsl.kernel.Kernel` — pattern,
    window size, and operation counts all derive from the flattened
    body, so analyses see the recomputation and window growth — while
    retaining the block structure for border-correct execution and for
    the resource model (``fMshared`` of a fused kernel is the sum over
    members, see :mod:`repro.model.resources`).
    """

    def __init__(
        self,
        graph: KernelGraph,
        block: PartitionBlock,
        simplify_body: bool = False,
    ):
        destinations = block.destination_kernels()
        if len(destinations) != 1:
            raise GraphError(
                f"cannot fuse block with destinations {destinations}"
            )
        destination = graph.kernel(destinations[0])
        body = flatten_block_body(graph, block)
        if simplify_body:
            from repro.ir.simplify import simplify

            body = simplify(body)

        # Accessors: external inputs only, each with the boundary of the
        # first member reading it (source kernels by construction).
        accessors: List[Accessor] = []
        for image_name in block.external_input_images():
            for member in block.ordered_vertices():
                kernel = graph.kernel(member)
                if image_name in kernel.input_names:
                    accessors.append(kernel.accessor_for(image_name))
                    break

        members = block.ordered_vertices()
        name = "fused_" + "_".join(members)
        super().__init__(
            name,
            accessors,
            destination.output,
            body,
            granularity=destination.granularity,
            block_shape=destination.block_shape,
        )
        self.block = block
        self.source_graph = graph
        self.member_names = members
        self.destination_name = destinations[0]

    @property
    def members(self) -> List[Kernel]:
        """The original kernels, in topological order."""
        return [self.source_graph.kernel(n) for n in self.member_names]

    def __repr__(self) -> str:
        return (
            f"FusedKernel({'+'.join(self.member_names)}, "
            f"{self.pattern.value}, sz={self.window_size})"
        )


def fuse_block(
    graph: KernelGraph, block: PartitionBlock, simplify_body: bool = False
) -> Kernel:
    """Fuse one block; singleton blocks return their kernel unchanged.

    ``simplify_body`` runs the IR simplifier over the flattened fused
    body — modelling the "further optimizations" (constant folding, CSE
    scope growth) that fusion enables according to the paper.
    """
    if len(block) == 1:
        (name,) = block.vertices
        return graph.kernel(name)
    return FusedKernel(graph, block, simplify_body=simplify_body)


def fuse_partition(
    graph: KernelGraph,
    partition: Partition,
    simplify_body: bool = False,
) -> List[Kernel]:
    """Fuse every block of a partition.

    Returns the transformed kernel list in block order; the result is
    the "generated program" — one kernel launch per entry.
    """
    return [
        fuse_block(graph, block, simplify_body=simplify_body)
        for block in partition.blocks
    ]
