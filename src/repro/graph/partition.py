"""Partition blocks and partitions (Section II-A).

A *partition block* is a set of kernels that will be fused into one; a
*partition* is a set of blocks that is pairwise disjoint and covers the
graph.  The objective value β of a partition is the sum of the weights
of all edges *inside* blocks (Eq. 1) — equivalently, the total graph
weight minus the weight of all cut edges (Eq. 13).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.graph.dag import Edge, GraphError, KernelGraph


class PartitionBlock:
    """An immutable set of kernel names within a graph."""

    def __init__(self, graph: KernelGraph, vertices: Iterable[str]):
        names: FrozenSet[str] = frozenset(vertices)
        if not names:
            raise GraphError("partition block must be non-empty")
        unknown = [v for v in names if v not in graph]
        if unknown:
            raise GraphError(f"unknown kernels in block: {sorted(unknown)}")
        self.graph = graph
        self.vertices = names
        self._ordered: Tuple[str, ...] | None = None
        self._signature: Tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, name: str) -> bool:
        return name in self.vertices

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartitionBlock)
            and self.vertices == other.vertices
            and self.graph is other.graph
        )

    def __hash__(self) -> int:
        return hash(self.vertices)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """Edges with both endpoints in the block."""
        return self.graph.induced_edges(set(self.vertices))

    @property
    def weight(self) -> float:
        """The paper's ``w_P``: sum of intra-block edge weights."""
        return sum(e.weight or 0.0 for e in self.edges)

    def ordered_vertices(self) -> Tuple[str, ...]:
        """Block members in the graph's topological order (found once)."""
        ordered = self._ordered
        if ordered is None:
            vertices = self.vertices
            ordered = self._ordered = tuple(
                n for n in self.graph.kernel_names if n in vertices
            )
        return ordered

    def source_kernels(self) -> Tuple[str, ...]:
        """Members with no producer inside the block (the ``k_s`` role)."""
        return tuple(
            name
            for name in self.ordered_vertices()
            if not any(p in self.vertices for p in self.graph.predecessors(name))
        )

    def destination_kernels(self) -> Tuple[str, ...]:
        """Members whose output escapes the block (the ``k_d`` role).

        A kernel's output escapes if it is consumed outside the block or
        is an external output of the pipeline.  A legal block has
        exactly one destination (only the destination's output survives
        fusion, Listing 1).
        """
        escaping: List[str] = []
        for name in self.ordered_vertices():
            output = self.graph.kernel(name).output.name
            consumers = self.graph.consumers_of(output)
            external = [c for c in consumers if c not in self.vertices]
            if external or output in self.graph.external_outputs:
                escaping.append(name)
        return tuple(escaping)

    def external_input_images(self) -> Tuple[str, ...]:
        """Images read inside the block but produced outside it."""
        kernels = [self.graph.kernel(name) for name in self.ordered_vertices()]
        produced = {kernel.output.name for kernel in kernels}
        seen: Set[str] = set()
        ordered: List[str] = []
        for kernel in kernels:
            for image in kernel.input_names:
                if image not in produced and image not in seen:
                    seen.add(image)
                    ordered.append(image)
        return tuple(ordered)

    def intermediate_images(self) -> Tuple[str, ...]:
        """Images produced and consumed entirely inside the block.

        These are the images kernel fusion removes from global memory.
        """
        result: List[str] = []
        destinations = set(self.destination_kernels())
        for name in self.ordered_vertices():
            if name not in destinations:
                result.append(self.graph.kernel(name).output.name)
        return tuple(result)

    def is_connected(self) -> bool:
        return self.graph.is_connected(set(self.vertices))

    def signature(self) -> Tuple[str, ...]:
        """The block's members as a canonical sorted tuple.

        Hashable and independent of graph object identity; plan caches
        key compiled block tapes on it (sorted once).
        """
        signature = self._signature
        if signature is None:
            signature = self._signature = tuple(sorted(self.vertices))
        return signature

    def __repr__(self) -> str:
        return f"PartitionBlock({sorted(self.vertices)})"


class Partition:
    """A set of partition blocks forming a disjoint cover of the graph."""

    def __init__(self, graph: KernelGraph, blocks: Sequence[PartitionBlock]):
        covered: Set[str] = set()
        for block in blocks:
            if block.graph is not graph:
                raise GraphError("block belongs to a different graph")
            overlap = covered & set(block.vertices)
            if overlap:
                raise GraphError(
                    f"blocks overlap on kernels {sorted(overlap)}"
                )
            covered |= set(block.vertices)
        missing = set(graph.kernel_names) - covered
        if missing:
            raise GraphError(f"partition does not cover kernels {sorted(missing)}")
        self.graph = graph
        # Deterministic order: by first member in topological order.
        topo_index = {name: i for i, name in enumerate(graph.kernel_names)}
        self.blocks: Tuple[PartitionBlock, ...] = tuple(
            sorted(
                blocks,
                key=lambda b: min(topo_index[v] for v in b.vertices),
            )
        )

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    @property
    def benefit(self) -> float:
        """The objective β of Eq. (1)."""
        return sum(block.weight for block in self.blocks)

    @property
    def cut_weight(self) -> float:
        """Total weight of edges crossing blocks (``w_C`` in Eq. 13)."""
        return self.graph.total_weight - self.benefit

    def block_of(self, kernel_name: str) -> PartitionBlock:
        """The block containing ``kernel_name``."""
        for block in self.blocks:
            if kernel_name in block:
                return block
        raise KeyError(f"kernel {kernel_name!r} not in partition")

    def fused_block_count(self) -> int:
        """Number of blocks with more than one kernel."""
        return sum(1 for block in self.blocks if len(block) > 1)

    @classmethod
    def singletons(cls, graph: KernelGraph) -> "Partition":
        """The identity partition: every kernel in its own block.

        This is the *baseline* configuration of the evaluation — no
        fusion is applied.
        """
        return cls(graph, [PartitionBlock(graph, {n}) for n in graph.kernel_names])

    def signature(self) -> Tuple[Tuple[str, ...], ...]:
        """Canonical per-block signatures in deterministic block order.

        Two partitions of structurally identical graphs with the same
        block structure share one signature — the fusion-level half of
        the serving plan-cache key (the graph-level half is
        :meth:`repro.graph.dag.KernelGraph.structural_signature`).
        """
        return tuple(block.signature() for block in self.blocks)

    def describe(self) -> str:
        """Human-readable one-line-per-block summary."""
        lines = []
        for block in self.blocks:
            members = ", ".join(block.ordered_vertices())
            tag = "fused" if len(block) > 1 else "single"
            lines.append(f"[{tag}] {{{members}}} weight={block.weight:g}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        sizes = [len(b) for b in self.blocks]
        return f"Partition({len(self.blocks)} blocks, sizes={sizes})"
