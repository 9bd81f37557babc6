"""Kernel distribution: splitting over-fused blocks (paper future work).

The paper's conclusion names *kernel distribution* — the inverse of
kernel fusion, analogous to loop distribution — as the next technique
to combine with fusion.  A natural use is repair: when a partition
block violates a resource or occupancy target (because a relaxed
threshold, a different device, or a hand-written partition produced
it), distribution splits the block back into smaller legal blocks while
losing as little fusion benefit as possible.

The split strategy mirrors Algorithm 1: a violating block is divided
along its weighted minimum cut, recursively, until every piece
satisfies the acceptance predicate — so the benefit lost to
distribution is the minimum cut weight, exactly the dual of the fusion
objective.

A second use is the opposite direction: :func:`maximal_partition`
distributes the *whole graph* under the target-independent half of
``IsLegal`` (:func:`structural_predicate`) — the largest blocks any
device could fuse, which a CPU, with no shared-memory budget to
respect, may run faster than the partition the GPU model picks.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List

from repro.analysis.explain import explain_structure
from repro.graph.dag import KernelGraph
from repro.graph.mincut import min_cut_partition
from repro.graph.partition import Partition, PartitionBlock
from repro.model.benefit import BenefitConfig, WeightedGraph, estimate_graph
from repro.model.hardware import GpuSpec
from repro.model.occupancy import occupancy
from repro.model.resources import (
    block_shared_bytes,
    estimated_registers_per_thread,
)

BlockPredicate = Callable[[FrozenSet[str]], bool]


def occupancy_predicate(
    weighted: WeightedGraph, min_occupancy: float = 0.5
) -> BlockPredicate:
    """Accept blocks whose fused kernel keeps occupancy above a floor.

    Occupancy is computed from the fused block's summed shared-memory
    tiles and a register estimate — the quantities Eq. (2) protects.
    """
    graph = weighted.graph

    def accept(vertices: FrozenSet[str]) -> bool:
        kernels = [graph.kernel(name) for name in vertices]
        bx, by = kernels[0].block_shape
        shared = block_shared_bytes(graph, vertices)
        if shared > weighted.gpu.shared_mem_per_block:
            return False
        registers = max(
            estimated_registers_per_thread(kernel) for kernel in kernels
        )
        result = occupancy(weighted.gpu, bx * by, shared, registers)
        return result.occupancy >= min_occupancy

    return accept


def legality_predicate(weighted: WeightedGraph) -> BlockPredicate:
    """Accept blocks that are legal under the full ``IsLegal`` oracle."""

    def accept(vertices: FrozenSet[str]) -> bool:
        return len(vertices) == 1 or weighted.is_legal_block(vertices)

    return accept


def structural_predicate(graph: KernelGraph) -> BlockPredicate:
    """Accept blocks that are connected, header-compatible and free of
    external dependences (:func:`~repro.analysis.explain.explain_structure`)
    — ``IsLegal`` without Eq. 2's resource limits and without FUS010's
    GPU benefit rule."""

    def accept(vertices: FrozenSet[str]) -> bool:
        return not explain_structure(graph, vertices)

    return accept


def distribute_block(
    weighted: WeightedGraph,
    block: PartitionBlock,
    accept: BlockPredicate,
) -> List[PartitionBlock]:
    """Split one block along minimum cuts until every piece is accepted.

    Singleton blocks are accepted unconditionally (there is nothing
    left to distribute).
    """
    graph = weighted.graph
    pending: List[FrozenSet[str]] = [frozenset(block.vertices)]
    accepted: List[FrozenSet[str]] = []
    while pending:
        vertices = pending.pop(0)
        if len(vertices) == 1 or accept(vertices):
            accepted.append(vertices)
            continue
        ordered = [n for n in graph.kernel_names if n in vertices]
        cut = min_cut_partition(graph, ordered, start=ordered[0])
        pending.append(cut.side_a)
        pending.append(cut.side_b)
    return [PartitionBlock(graph, vertices) for vertices in accepted]


def distribute(
    weighted: WeightedGraph,
    partition: Partition,
    accept: BlockPredicate | None = None,
) -> Partition:
    """Repair a partition: distribute every block failing ``accept``.

    The default predicate is full legality — useful to sanitize
    partitions produced under different model parameters or by hand.
    """
    if accept is None:
        accept = legality_predicate(weighted)
    blocks: List[PartitionBlock] = []
    for block in partition.blocks:
        blocks.extend(distribute_block(weighted, block, accept))
    return Partition(weighted.graph, blocks)


def maximal_partition(
    graph: KernelGraph, gpu: GpuSpec, config: BenefitConfig | None = None
) -> Partition:
    """The whole graph distributed until every block passes
    :func:`structural_predicate`: the largest legal blocks, cut along
    minimum cuts of the ``gpu`` model's benefit weights.  A partition of
    ``graph`` itself (not of its weighted copy)."""
    weighted = estimate_graph(graph, gpu, config)
    whole = PartitionBlock(weighted.graph, graph.kernel_names)
    blocks = distribute_block(weighted, whole, structural_predicate(graph))
    return Partition(
        graph, [PartitionBlock(graph, block.vertices) for block in blocks]
    )
