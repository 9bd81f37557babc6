#!/usr/bin/env python3
"""The Unsharp diamond: where min-cut fusion beats pairwise fusion.

All four Unsharp kernels read the source image (the paper's Fig. 2b
shape).  The prior-work pairwise engine treats every pair's extra input
as an external dependence and fuses nothing; the min-cut engine checks
the *whole block*, finds it legal, and collapses the pipeline into one
kernel — the paper's headline 2.52x geomean speedup.

This example runs both engines, verifies on real pixels that the fused
kernel computes the same image, prints the generated CUDA for the fused
kernel, and simulates all three devices.

Run:  python examples/unsharp_showdown.py
"""

import numpy as np

from repro.apps.unsharp import build_pipeline
from repro.backend.codegen_cuda import generate_cuda_pipeline
from repro.backend.launch import simulate_partition
from repro.api import ExecutionOptions, run
from repro.fusion.basic_fusion import basic_fusion
from repro.fusion.mincut_fusion import mincut_fusion
from repro.graph.partition import Partition
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680, GTX745, K20C


def synthetic_photo(width: int, height: int) -> np.ndarray:
    """A soft gradient with a sharp box — something worth sharpening."""
    ys, xs = np.mgrid[0:height, 0:width]
    base = 80.0 + 60.0 * np.sin(xs / 17.0) * np.cos(ys / 23.0)
    base[height // 4 : height // 2, width // 4 : width // 2] += 70.0
    return np.clip(base, 0.0, 255.0)


def main() -> None:
    graph = build_pipeline(2048, 2048).build()
    weighted = estimate_graph(graph, GTX680)

    basic = basic_fusion(weighted)
    optimized = mincut_fusion(weighted)
    print("basic (prior work [12]) partition:")
    print(basic.partition.describe())
    print()
    print("optimized (min-cut) partition:")
    print(optimized.partition.describe())
    print()

    # Correctness on real pixels (small geometry to keep it quick).
    small_graph = build_pipeline(64, 64).build()
    data = synthetic_photo(64, 64)
    staged = run(
        small_graph, {"input": data}, options=ExecutionOptions(fuse=False)
    )
    small_weighted = estimate_graph(small_graph, GTX680)
    small_partition = mincut_fusion(small_weighted).partition
    fused = run(
        small_graph, {"input": data},
        options=ExecutionOptions(partition=small_partition),
    )
    error = np.abs(fused["sharpened"] - staged["sharpened"]).max()
    print(f"fused vs staged max abs error: {error:.2e}")
    print()

    # Simulated times across the paper's device roster.
    print(f"{'device':<8}{'baseline':>10}{'basic':>10}{'optimized':>11}"
          f"{'speedup':>9}")
    for gpu in (GTX745, GTX680, K20C):
        times = {}
        for label, partition in (
            ("baseline", Partition.singletons(graph)),
            ("basic", basic.partition),
            ("optimized", optimized.partition),
        ):
            times[label] = simulate_partition(graph, partition, gpu).total_ms
        print(
            f"{gpu.name:<8}{times['baseline']:>9.3f} {times['basic']:>9.3f} "
            f"{times['optimized']:>10.3f}"
            f"{times['baseline'] / times['optimized']:>8.2f}x"
        )
    print()

    print("generated CUDA for the fused pipeline:")
    print(generate_cuda_pipeline(graph, optimized.partition))


if __name__ == "__main__":
    main()
