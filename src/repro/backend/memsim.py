"""Analytic GPU performance simulator.

The paper evaluates on three physical NVIDIA GPUs; this simulator
stands in for them.  It deliberately reuses the *same* cost vocabulary
as the benefit model (global/shared access cycles, ALU/SFU op costs),
extended with throughput and parallelism so that cycle counts become
milliseconds:

* **memory time** — global traffic divided by effective DRAM bandwidth.
  A kernel's traffic is derived from its body: one load per distinct
  externally-read pixel, with shared-memory staging amortizing windowed
  reads to one tile load (plus halo) per thread block;
* **compute time** — per-element cycles (ALU/SFU latencies plus
  shared-memory accesses, i.e. exactly the quantities of Eq. 6) divided
  by aggregate core throughput;
* **overlap** — GPUs hide latency by switching warps; the two times
  overlap by a device factor, scaled down when occupancy is too low to
  saturate the machine (this is where the resource-legality rule of
  Eq. 2 becomes *measurable*: over-fused kernels lose occupancy and slow
  down);
* **border handling** — halo pixels pay an extra per-pixel penalty that
  grows with the fused window radius, the effect Section IV warns
  about.

The simulator's purpose is to reproduce *relative* behaviour — who
wins, by what factor — not absolute milliseconds of the authors'
testbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.dsl.kernel import ComputePattern, Kernel
from repro.fusion.border import halo_pixel_count
from repro.fusion.fuser import FusedKernel
from repro.model.hardware import GpuSpec
from repro.model.occupancy import occupancy as compute_occupancy
from repro.model.resources import estimated_registers_per_thread, kernel_shared_bytes


@dataclass(frozen=True)
class KernelCostBreakdown:
    """Full cost accounting for one kernel launch."""

    name: str
    elements: int
    global_loads_per_element: float
    global_stores_per_element: float
    shared_accesses_per_element: float
    alu_per_element: int
    sfu_per_element: int
    occupancy: float
    time_memory_ms: float
    time_compute_ms: float
    time_ms: float

    @property
    def memory_bound(self) -> bool:
        return self.time_memory_ms >= self.time_compute_ms

    def describe(self) -> str:
        bound = "memory" if self.memory_bound else "compute"
        return (
            f"{self.name}: {self.time_ms:.3f} ms ({bound}-bound; "
            f"mem {self.time_memory_ms:.3f} / comp {self.time_compute_ms:.3f}; "
            f"occ {self.occupancy:.0%})"
        )


def kernel_traffic(kernel: Kernel) -> Tuple[float, float]:
    """Per-element (global_loads, shared_accesses) of a kernel.

    * a single-offset read stays in a register: 1 global load;
    * windowed reads of a shared-memory kernel are staged: the tile
      (with halo) is loaded once per block — slightly more than one
      global load per element — and each windowed read becomes a
      shared-memory access (plus one shared store per staged element);
    * windowed reads without staging hit global memory per offset.
    """
    bx, by = kernel.block_shape
    global_loads = 0.0
    shared_accesses = 0.0
    for image, offsets in kernel.reads().items():
        count = len(offsets)
        if count == 1:
            global_loads += 1.0
            continue
        rx = max(abs(dx) for dx, _ in offsets)
        ry = max(abs(dy) for _, dy in offsets)
        if kernel.uses_shared_memory:
            footprint = (bx + 2 * rx) * (by + 2 * ry) / (bx * by)
            global_loads += footprint
            shared_accesses += footprint  # stores into the staging tile
            shared_accesses += count  # windowed reads from the tile
        else:
            global_loads += count
    return global_loads, shared_accesses


def _shared_bytes(kernel: Kernel) -> int:
    """Shared memory of a launch; a fused kernel sums its members, each
    staged under the launch's block shape."""
    if isinstance(kernel, FusedKernel):
        return sum(
            kernel_shared_bytes(member.with_header(block_shape=kernel.block_shape))
            for member in kernel.members
        )
    return kernel_shared_bytes(kernel)


def analyze_kernel(kernel: Kernel, gpu: GpuSpec) -> KernelCostBreakdown:
    """Estimate the execution time of one kernel launch on ``gpu``."""
    elements = kernel.space.size
    loads, shared = kernel_traffic(kernel)
    stores = 1.0
    ops = kernel.op_counts

    bx, by = kernel.block_shape
    occ = compute_occupancy(
        gpu,
        threads_per_block=bx * by,
        shared_bytes_per_block=min(_shared_bytes(kernel), gpu.shared_mem_per_block),
        registers_per_thread=estimated_registers_per_thread(kernel),
    )
    utilization = min(1.0, occ.occupancy / gpu.occupancy_saturation)
    if utilization <= 0.0:
        utilization = 1.0 / gpu.max_warps_per_sm  # single resident warp

    # -- memory time --------------------------------------------------------
    bytes_per_element = kernel.output.bytes_per_pixel
    traffic_bytes = elements * bytes_per_element * (loads + stores)
    time_memory = traffic_bytes / (gpu.effective_bandwidth * utilization)

    # -- compute time -------------------------------------------------------
    cycles_per_element = (
        ops.alu * gpu.c_alu + ops.sfu * gpu.c_sfu + shared * gpu.t_shared
    )
    compute_cycles = elements * cycles_per_element

    if kernel.pattern is ComputePattern.LOCAL:
        rx, ry = kernel.window_radius
        halo = halo_pixel_count(
            kernel.space.width, kernel.space.height, (rx, ry)
        ) * kernel.space.channels
        compute_cycles += halo * gpu.border_penalty_cycles

    throughput = gpu.clock_hz * gpu.cuda_cores * utilization
    time_compute = compute_cycles / throughput

    # -- combine with partial overlap ---------------------------------------
    longer = max(time_memory, time_compute)
    shorter = min(time_memory, time_compute)
    total = longer + (1.0 - gpu.overlap) * shorter

    return KernelCostBreakdown(
        name=kernel.name,
        elements=elements,
        global_loads_per_element=loads,
        global_stores_per_element=stores,
        shared_accesses_per_element=shared,
        alu_per_element=ops.alu,
        sfu_per_element=ops.sfu,
        occupancy=occ.occupancy,
        time_memory_ms=time_memory * 1e3,
        time_compute_ms=time_compute * 1e3,
        time_ms=total * 1e3,
    )


def estimate_kernel_time(kernel: Kernel, gpu: GpuSpec) -> float:
    """Kernel execution time in milliseconds."""
    return analyze_kernel(kernel, gpu).time_ms
