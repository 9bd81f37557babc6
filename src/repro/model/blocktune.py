"""Thread-block shape tuning.

Hipacc exposes the CUDA block configuration per kernel; the choice
trades shared-memory tile overhead (wide halos favour larger blocks)
against occupancy (large blocks with big tiles exhaust shared memory).
This pass picks, per launch, the candidate block shape with the best
simulated time — a miniature version of the exploration an autotuner
would run on hardware.

Fusion interacts with the choice: a fused kernel's tile footprint is
the sum of its members', so the best block shape can shift after
fusion — the ablation bench records where it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.backend.memsim import analyze_kernel, estimate_kernel_time
from repro.dsl.kernel import Kernel
from repro.fusion.fuser import fuse_partition
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition
from repro.model.hardware import GpuSpec

#: Candidate shapes: powers of two, 64..1024 threads, GPU-typical.
DEFAULT_CANDIDATES: Tuple[Tuple[int, int], ...] = (
    (32, 2), (32, 4), (32, 8), (64, 4), (32, 16), (64, 8), (128, 4),
    (16, 16), (32, 32),
)


@dataclass(frozen=True)
class TuneResult:
    """Best block shape found for one kernel on one device."""

    kernel: str
    best_shape: Tuple[int, int]
    best_ms: float
    default_shape: Tuple[int, int]
    default_ms: float

    @property
    def gain(self) -> float:
        """Speedup of the tuned shape over the kernel's default."""
        return self.default_ms / self.best_ms

    def describe(self) -> str:
        bx, by = self.best_shape
        return (
            f"{self.kernel}: best {bx}x{by} at {self.best_ms:.4f} ms "
            f"({self.gain:.2f}x over default "
            f"{self.default_shape[0]}x{self.default_shape[1]})"
        )


def tune_kernel(
    kernel: Kernel,
    gpu: GpuSpec,
    candidates: Sequence[Tuple[int, int]] = DEFAULT_CANDIDATES,
) -> TuneResult:
    """Pick the simulated-best block shape for one kernel."""
    default_ms = estimate_kernel_time(kernel, gpu)
    best_shape = kernel.block_shape
    best_ms = default_ms
    for shape in candidates:
        bx, by = shape
        if bx * by > gpu.max_threads_per_block:
            continue
        candidate_ms = analyze_kernel(kernel.with_header(block_shape=shape), gpu).time_ms
        if candidate_ms < best_ms - 1e-12:
            best_shape = shape
            best_ms = candidate_ms
    return TuneResult(
        kernel=kernel.name,
        best_shape=best_shape,
        best_ms=best_ms,
        default_shape=kernel.block_shape,
        default_ms=default_ms,
    )


def tune_partition(
    graph: KernelGraph,
    partition: Partition,
    gpu: GpuSpec,
    candidates: Sequence[Tuple[int, int]] = DEFAULT_CANDIDATES,
) -> List[TuneResult]:
    """Tune every launch of a partitioned pipeline."""
    return [
        tune_kernel(kernel, gpu, candidates)
        for kernel in fuse_partition(graph, partition)
    ]


def tuned_total_ms(results: Sequence[TuneResult]) -> float:
    """Pipeline kernel time under the tuned shapes."""
    return sum(result.best_ms for result in results)
