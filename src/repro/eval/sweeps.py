"""Parameter sweep utilities.

The evaluation beyond the paper's fixed geometry: sweep image sizes,
model constants, or thresholds and watch where behaviour changes.  The
flagship sweep is image size: fusion eliminates per-pixel memory
traffic (a benefit that scales with the image) while the launch
overhead it saves is constant — so at small images launch savings
dominate, at large images traffic savings dominate, and the measured
speedup curves have a characteristic shape the artifact records.  The
model-constant sweeps ablate Eq. (2)'s ``cMshared``, the
locality-vs-recomputation trade of Eqs. (8)/(11) from both sides
(``t_g``, producer cost) and Eq. (12)'s ε.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.apps import AppSpec
from repro.apps.common import GAUSS3_UNNORM
from repro.backend.launch import simulate_partition
from repro.dsl.functional import convolve
from repro.dsl.image import Image
from repro.dsl.kernel import Kernel
from repro.dsl.pipeline import Pipeline
from repro.eval.figures import figure3_trace
from repro.fusion import partition_for
from repro.ir.expr import Const
from repro.model.benefit import BenefitConfig, EdgeEstimate, estimate_graph
from repro.model.hardware import GpuSpec


@dataclass(frozen=True)
class SweepPoint:
    """One configuration of a sweep."""

    value: float
    baseline_ms: float
    optimized_ms: float

    @property
    def speedup(self) -> float:
        return self.baseline_ms / self.optimized_ms


def size_sweep(
    build: Callable[[int, int], Pipeline],
    gpu: GpuSpec,
    sizes: Sequence[int],
    config: BenefitConfig | None = None,
) -> List[SweepPoint]:
    """Simulated speedup of min-cut fusion across square image sizes."""
    points = []
    for size in sizes:
        graph = build(size, size).build()
        baseline = partition_for(graph, gpu, "baseline", config)
        optimized = partition_for(graph, gpu, "optimized", config)
        points.append(
            SweepPoint(
                value=float(size),
                baseline_ms=simulate_partition(graph, baseline, gpu).total_ms,
                optimized_ms=simulate_partition(
                    graph, optimized, gpu
                ).total_ms,
            )
        )
    return points


def threshold_sweep(
    spec: AppSpec,
    gpu: GpuSpec,
    thresholds: Sequence[float],
) -> Dict[float, Tuple[int, float, float]]:
    """(launches, benefit β, simulated ms) per ``cMshared`` threshold."""
    graph = spec.pipeline().build()
    result: Dict[float, Tuple[int, float, float]] = {}
    for threshold in thresholds:
        config = BenefitConfig(c_mshared=threshold)
        partition = partition_for(graph, gpu, "optimized", config)
        timing = simulate_partition(graph, partition, gpu)
        result[threshold] = (len(partition), partition.benefit, timing.total_ms)
    return result


def t_global_sweep(
    spec: AppSpec, gpu: GpuSpec, latencies: Sequence[float], block: Iterable[str]
) -> Dict[float, bool]:
    """Whether min-cut fusion forms ``block`` at each global-memory
    latency ``t_g`` — the price of *not* fusing."""
    graph = spec.pipeline().build()
    wanted = tuple(sorted(block))
    return {
        t_global: wanted in partition_for(
            graph, gpu.with_costs(t_global=float(t_global)), "optimized"
        ).signature()
        for t_global in latencies
    }


def producer_cost_sweep(
    gpu: GpuSpec, extra_ops: Sequence[int]
) -> Dict[int, EdgeEstimate]:
    """The estimate of a point→local edge whose producer does ``n``
    extra multiply-adds, per ``n``: φ grows with the producer's cost
    until recomputing it per tap outweighs the saved round trip."""
    result: Dict[int, EdgeEstimate] = {}
    for ops in extra_ops:

        def producer(a, ops=ops):
            expr = a()
            for i in range(ops):
                expr = expr * Const(1.0001) + Const(0.0001 * (i + 1))
            return expr

        src, mid, out = (Image.create(n, 64, 64) for n in ("src", "mid", "out"))
        pipe = Pipeline("tunable")
        pipe.add(Kernel.from_function("producer", [src], mid, producer))
        pipe.add(Kernel.from_function(
            "consumer", [mid], out, lambda a: convolve(a, GAUSS3_UNNORM)
        ))
        result[ops] = estimate_graph(pipe.build(), gpu).estimate(
            "producer", "consumer"
        )
    return result


def epsilon_sweep(epsilons: Sequence[float]) -> Dict[float, frozenset]:
    """The Fig. 3 Harris partition (its block set) per ε of Eq. (12)."""
    return {
        epsilon: frozenset(
            figure3_trace(config=BenefitConfig(epsilon=epsilon))
            .partition.signature()
        )
        for epsilon in epsilons
    }


def render_size_sweep(
    app_name: str, gpu_name: str, points: Sequence[SweepPoint]
) -> str:
    """Text table of a size sweep."""
    lines = [
        f"SIZE SWEEP: {app_name} on {gpu_name}",
        f"{'size':>6}{'baseline ms':>13}{'optimized ms':>14}{'speedup':>9}",
    ]
    for point in points:
        lines.append(
            f"{int(point.value):>6}{point.baseline_ms:>13.4f}"
            f"{point.optimized_ms:>14.4f}{point.speedup:>8.2f}x"
        )
    return "\n".join(lines)
