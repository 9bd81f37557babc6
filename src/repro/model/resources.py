"""Shared-memory footprint estimation (Section II-B1).

Local operators stage their inputs in shared memory: a thread block of
shape ``(Bx, By)`` computing a kernel with window radius ``(rx, ry)``
loads a tile of ``(Bx + 2*rx) * (By + 2*ry)`` pixels per input.  Point
and global operators stream from global memory and use no shared
memory.

For a *fused* block, every member kernel that used shared memory still
stages its (now register/shared-resident) input tile, so footprints
add up.  This reproduces the paper's Harris analysis: five local
kernels fused into one consume five tiles — "the memory consumption
increases five times" — which violates Eq. (2) at the paper's threshold
``cMshared = 2``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.dsl.kernel import Kernel
from repro.graph.dag import KernelGraph


def tile_shape(
    block_shape: Tuple[int, int], radius: Tuple[int, int]
) -> Tuple[int, int]:
    """Shared-memory tile shape for a thread block and window radius."""
    bx, by = block_shape
    rx, ry = radius
    return bx + 2 * rx, by + 2 * ry


def input_tile_bytes(kernel: Kernel, image_name: str) -> int:
    """Bytes staged for one input image of a local kernel.

    The tile halo uses the extent of the kernel's reads *of that image*
    (a kernel may read one image through a window and another at a
    point).
    """
    offsets = kernel.reads().get(image_name, set())
    if not offsets:
        return 0
    rx = max(abs(dx) for dx, _ in offsets)
    ry = max(abs(dy) for _, dy in offsets)
    if rx == 0 and ry == 0:
        return 0  # point access streams through registers, no staging
    tx, ty = tile_shape(kernel.block_shape, (rx, ry))
    return tx * ty * kernel.accessor_for(image_name).image.bytes_per_pixel


def kernel_shared_bytes(kernel: Kernel) -> int:
    """The paper's ``fMshared(v)``: shared memory used by one kernel.

    Kept on the kernel under its ``block_shape`` and
    ``force_no_shared_memory``: both may be set after construction (a
    block-shape sweep, a resource ablation), and a changed one is a new
    footprint."""
    key = kernel.header_settings()
    cached = kernel.__dict__.get("_shared_bytes_cache")
    if cached is not None and cached[0] == key:
        return cached[1]
    footprint = 0
    if kernel.uses_shared_memory:
        footprint = sum(input_tile_bytes(kernel, name) for name in kernel.input_names)
    kernel._shared_bytes_cache = (key, footprint)
    return footprint


def block_shared_bytes(graph: KernelGraph, vertices: Iterable[str]) -> int:
    """``fMshared(v_P)``: shared memory of the fused kernel of a block.

    Each shared-memory-using member still stages one tile per windowed
    input after fusion (the data now lives in shared memory instead of
    global memory, but the staging buffer remains), so the fused
    footprint is the sum of the member footprints.
    """
    return sum(kernel_shared_bytes(graph.kernel(name)) for name in vertices)


def max_member_shared_bytes(graph: KernelGraph, vertices: Iterable[str]) -> int:
    """Denominator of Eq. (2): the largest member footprint."""
    return max(
        (kernel_shared_bytes(graph.kernel(name)) for name in vertices),
        default=0,
    )


def shared_memory_ratio(graph: KernelGraph, vertices: Iterable[str]) -> float:
    """Left-hand side of Eq. (2).

    Defined as 1.0 when no member uses shared memory (fusing pure point
    kernels never stresses the resource).
    """
    vertex_list = list(vertices)
    denominator = max_member_shared_bytes(graph, vertex_list)
    if denominator == 0:
        return 1.0
    return block_shared_bytes(graph, vertex_list) / denominator


def estimated_registers_per_thread(kernel: Kernel) -> int:
    """A coarse register-pressure estimate for the occupancy model.

    The paper observed no register-pressure increase from fusion
    (bodies are concatenated, intermediate values are consumed
    immediately); we model per-thread registers as a base cost plus one
    register per live input and a slowly growing term in the number of
    operations.
    """
    ops = kernel.op_counts.total
    return 16 + 2 * len(kernel.accessors) + min(ops // 8, 48)
