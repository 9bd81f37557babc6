#!/usr/bin/env python3
"""Building your own pipeline with the DSL.

A difference-of-Gaussians blob detector with thresholding and a global
maximum reduction — demonstrating point, local, *and* global operators,
runtime parameters, per-accessor boundary modes, and how the fusion
engine handles a pipeline it has never seen: the global reduction never
fuses, everything else is considered on its merits.

Run:  python examples/custom_pipeline.py
"""

import numpy as np

from repro.backend.launch import simulate_partition
from repro.api import ExecutionOptions, run
from repro.dsl.boundary import BoundaryMode
from repro.dsl.functional import convolve
from repro.dsl.image import Image
from repro.dsl.kernel import Accessor, Kernel, ReductionKind
from repro.dsl.mask import Mask
from repro.dsl.pipeline import Pipeline
from repro.fusion.mincut_fusion import mincut_fusion
from repro.graph.partition import Partition
from repro.ir import ops
from repro.ir.expr import InputAt, Param
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680


def build_dog_detector(width: int = 512, height: int = 512) -> Pipeline:
    pipe = Pipeline("dog-detector")
    src = Image.create("input", width, height)
    narrow = Image.create("narrow", width, height)
    wide = Image.create("wide", width, height)
    dog = Image.create("dog", width, height)
    blobs = Image.create("blobs", width, height)
    peak = Image.create("peak", 1, 1)

    narrow_mask = Mask.gaussian(1, sigma=0.8)
    wide_mask = Mask.gaussian(2, sigma=1.6)

    pipe.add(Kernel.from_function(
        "blur_narrow", [src], narrow,
        lambda a: convolve(a, narrow_mask),
        boundary=BoundaryMode.MIRROR,
    ))
    pipe.add(Kernel.from_function(
        "blur_wide", [src], wide,
        lambda a: convolve(a, wide_mask),
        boundary=BoundaryMode.MIRROR,
    ))
    pipe.add(Kernel.from_function(
        "difference", [narrow, wide], dog, lambda n, w: n() - w()
    ))
    pipe.add(Kernel.from_function(
        "threshold", [dog], blobs,
        lambda d: ops.select(ops.absolute(d()) > Param("tau"), d(), 0.0),
    ))
    pipe.add(Kernel(
        "peak", [Accessor(blobs)], peak, ops.absolute(InputAt("blobs")),
        reduction=ReductionKind.MAX,
    ))
    return pipe


def main() -> None:
    graph = build_dog_detector().build()
    print(f"pipeline: {graph}")
    weighted = estimate_graph(graph, GTX680)
    print()
    print("edge estimates:")
    print(weighted.describe_edges())
    print()

    result = mincut_fusion(weighted)
    print("fusion outcome:")
    print(result.partition.describe())
    print()

    # Execute both ways on a blob image and compare.
    rng = np.random.default_rng(3)
    data = rng.uniform(0, 30, size=(512, 512))
    data[100:108, 200:208] += 180.0  # a blob
    params = {"tau": 4.0}
    staged = run(
        graph, {"input": data}, params, options=ExecutionOptions(fuse=False)
    )
    fused = run(
        graph, {"input": data}, params,
        options=ExecutionOptions(partition=result.partition),
    )
    error = np.abs(fused["blobs"] - staged["blobs"]).max()
    print(f"fused vs staged max abs error: {error:.2e}")
    print(f"peak response (global reduction): {float(fused['peak'][0, 0]):.2f}")
    print()

    baseline = simulate_partition(graph, Partition.singletons(graph), GTX680)
    optimized = simulate_partition(graph, result.partition, GTX680)
    print(f"simulated on {GTX680.name}: baseline {baseline.total_ms:.3f} ms "
          f"-> optimized {optimized.total_ms:.3f} ms "
          f"({baseline.total_ms / optimized.total_ms:.2f}x)")


if __name__ == "__main__":
    main()
