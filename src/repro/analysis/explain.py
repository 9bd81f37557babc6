"""Fusion explainability: *why* a candidate block is (il)legal.

Structured counterparts of the legality checks in
:mod:`repro.model.legality` — one :class:`~repro.analysis.diagnostics.Diagnostic`
per violation, carrying the Fig. 2 scenario, the Eq. 2 budget
arithmetic, or the mismatching header fields in its ``details`` dict.
The message text is byte-identical to the strings the legality layer
has always produced (``check_*`` are now thin wrappers over these
passes), so log scrapers and tests matching on messages keep working
while new consumers match on codes.

The fusion engines surface these through their trace events
(:mod:`repro.fusion.mincut_fusion`, :mod:`repro.fusion.greedy_fusion`),
making every partition decision auditable.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analysis.diagnostics import Diagnostic, diag
from repro.dsl.kernel import ComputePattern
from repro.graph.dag import KernelGraph
from repro.graph.partition import PartitionBlock
from repro.model.hardware import GpuSpec
from repro.model.resources import (
    block_shared_bytes,
    kernel_shared_bytes,
    max_member_shared_bytes,
    shared_memory_ratio,
)


def explain_dependences(
    graph: KernelGraph, vertices: Iterable[str]
) -> List[Diagnostic]:
    """Fig. 2 external-dependence violations (scenarios c and d)."""
    block = PartitionBlock(graph, vertices)
    found: List[Diagnostic] = []

    destinations = block.destination_kernels()
    if len(destinations) > 1:
        found.append(
            diag(
                "FUS001",
                "external output dependence: outputs of "
                f"{sorted(destinations)} all escape the block (Fig. 2c)",
                scenario="fig2c",
                destinations=sorted(destinations),
                block=sorted(block.vertices),
            )
        )
    elif not destinations:
        found.append(
            diag(
                "FUS003",
                "block has no escaping output (dead code?)",
                block=sorted(block.vertices),
            )
        )

    source_inputs = set()
    for name in block.source_kernels():
        source_inputs.update(graph.kernel(name).input_names)
    produced = {graph.kernel(n).output.name for n in block.vertices}
    for name in block.ordered_vertices():
        for image in graph.kernel(name).input_names:
            if image in produced or image in source_inputs:
                continue
            found.append(
                diag(
                    "FUS002",
                    f"external input dependence: {name!r} reads {image!r}, "
                    "which no source kernel of the block reads (Fig. 2d)",
                    kernel=name,
                    scenario="fig2d",
                    image=image,
                    sources=sorted(block.source_kernels()),
                    block=sorted(block.vertices),
                )
            )
    return found


def explain_resources(
    graph: KernelGraph,
    vertices: Iterable[str],
    gpu: GpuSpec,
    c_mshared: float,
) -> List[Diagnostic]:
    """Eq. (2) and the absolute device limit, with the full arithmetic."""
    vertex_list = list(vertices)
    found: List[Diagnostic] = []
    footprints = {
        name: kernel_shared_bytes(graph.kernel(name)) for name in vertex_list
    }
    total = block_shared_bytes(graph, vertex_list)
    ratio = shared_memory_ratio(graph, vertex_list)
    if ratio > c_mshared:
        found.append(
            diag(
                "FUS004",
                f"shared memory ratio {ratio:.2f} exceeds "
                f"cMshared={c_mshared:g} (Eq. 2)",
                ratio=ratio,
                c_mshared=c_mshared,
                total_bytes=total,
                max_member_bytes=max_member_shared_bytes(graph, vertex_list),
                member_bytes=footprints,
                block=sorted(vertex_list),
            )
        )
    if total > gpu.shared_mem_per_block:
        found.append(
            diag(
                "FUS005",
                f"fused kernel needs {total} B shared memory, device limit "
                f"is {gpu.shared_mem_per_block} B",
                total_bytes=total,
                limit_bytes=gpu.shared_mem_per_block,
                member_bytes=footprints,
                block=sorted(vertex_list),
            )
        )
    return found


def explain_headers(
    graph: KernelGraph, vertices: Iterable[str]
) -> List[Diagnostic]:
    """Header-compatibility violations, naming the mismatching fields."""
    vertex_list = list(vertices)
    found: List[Diagnostic] = []
    kernels = [graph.kernel(name) for name in vertex_list]
    for kernel in kernels:
        if kernel.pattern is ComputePattern.GLOBAL and len(vertex_list) > 1:
            found.append(
                diag(
                    "FUS006",
                    f"{kernel.name!r} is a global operator and cannot fuse",
                    kernel=kernel.name,
                    reduction=kernel.reduction.value,
                    block=sorted(vertex_list),
                )
            )
    reference = kernels[0]
    for kernel in kernels[1:]:
        if not kernel.space.compatible_with(reference.space):
            found.append(
                diag(
                    "FUS007",
                    f"iteration space mismatch: {reference.name!r} is "
                    f"{reference.space}, {kernel.name!r} is {kernel.space}",
                    kernel=kernel.name,
                    reference=reference.name,
                    reference_space=str(reference.space),
                    kernel_space=str(kernel.space),
                )
            )
        if kernel.granularity != reference.granularity:
            found.append(
                diag(
                    "FUS008",
                    f"access granularity mismatch: {reference.name!r} has "
                    f"{reference.granularity}, {kernel.name!r} has "
                    f"{kernel.granularity}",
                    kernel=kernel.name,
                    reference=reference.name,
                    reference_granularity=reference.granularity,
                    kernel_granularity=kernel.granularity,
                )
            )
    return found


def explain_structure(
    graph: KernelGraph, vertices: Iterable[str]
) -> List[Diagnostic]:
    """The target-independent half of ``IsLegal``: connectivity, headers
    and external dependences — :func:`explain_block` without the device
    (no Eq. 2 shared-memory budget, no device limit).

    Empty for a block any target could fuse; singletons are always
    legal.
    """
    vertex_list = list(vertices)
    if len(vertex_list) == 1:
        return []
    found: List[Diagnostic] = []
    if not graph.is_connected(set(vertex_list)):
        found.append(
            diag(
                "FUS009",
                "block is not connected",
                block=sorted(vertex_list),
            )
        )
    found.extend(explain_headers(graph, vertex_list))
    found.extend(explain_dependences(graph, vertex_list))
    return found


def explain_block(
    graph: KernelGraph,
    vertices: Iterable[str],
    gpu: GpuSpec,
    c_mshared: float = 2.0,
) -> List[Diagnostic]:
    """Every legality violation of one candidate block:
    :func:`explain_structure`, then :func:`explain_resources` on
    ``gpu``.

    Empty for a legal block.  Singleton blocks are always legal —
    they express "no fusion here", which needs no justification.
    """
    vertex_list = list(vertices)
    if len(vertex_list) == 1:
        return []
    found = explain_structure(graph, vertex_list)
    found.extend(explain_resources(graph, vertex_list, gpu, c_mshared))
    return found
