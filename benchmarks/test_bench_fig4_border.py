"""Figure 4: local-to-local body fusion and border correctness.

Regenerates every number of the paper's worked example (intermediate
82/98/93..., interior 992, clamp border 763 correct vs naive wrong)
and benchmarks the fused executor with index exchange against staged
execution on a realistic image size.
"""

import numpy as np
import pytest

from conftest import write_report

from helpers import STAGED

from repro.api import run, run_block
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.functional import convolve
from repro.dsl.image import Image
from repro.dsl.kernel import Kernel
from repro.dsl.mask import Mask
from repro.dsl.pipeline import Pipeline
from repro.eval.figures import figure4_example
from repro.graph.partition import PartitionBlock

GAUSS = Mask([[1, 2, 1], [2, 4, 2], [1, 2, 1]])


def double_conv_graph(size: int):
    pipe = Pipeline("double-conv")
    src = Image.create("src", size, size)
    mid = Image.create("mid", size, size)
    out = Image.create("out", size, size)
    clamp = BoundarySpec(BoundaryMode.CLAMP)
    pipe.add(Kernel.from_function(
        "conv1", [src], mid, lambda a: convolve(a, GAUSS), boundary=clamp))
    pipe.add(Kernel.from_function(
        "conv2", [mid], out, lambda a: convolve(a, GAUSS), boundary=clamp))
    return pipe.build()


def test_bench_figure4_worked_example(benchmark, output_dir):
    fig4 = benchmark(figure4_example)

    np.testing.assert_allclose(
        fig4.intermediate_center,
        [[82, 98, 93], [66, 61, 51], [43, 34, 32]],
    )
    assert fig4.interior_value == 992.0
    assert fig4.staged_border_value == 763.0
    assert fig4.fused_border_value == 763.0
    assert fig4.naive_border_value != 763.0

    report = "\n".join([
        "FIGURE 4: LOCAL-TO-LOCAL FUSION ON THE PAPER'S 5x5 MATRIX",
        "",
        f"intermediate window:\n{fig4.intermediate_center.astype(int)}",
        f"interior fused value (paper: 992): {fig4.interior_value:.0f}",
        f"staged clamp border  (paper: 763): {fig4.staged_border_value:.0f}",
        f"fused + index exchange           : {fig4.fused_border_value:.0f}",
        f"fused naive (Fig. 4b, incorrect) : {fig4.naive_border_value:.0f}",
    ])
    write_report(output_dir, "figure4_border.txt", report)


def test_bench_fused_execution_with_exchange(benchmark):
    graph = double_conv_graph(128)
    rng = np.random.default_rng(0)
    data = {"src": rng.uniform(0, 255, size=(128, 128))}
    block = PartitionBlock(graph, {"conv1", "conv2"})

    fused = benchmark(run_block, graph, block, data)
    staged = run(graph, data, options=STAGED)["out"]
    np.testing.assert_allclose(fused, staged, rtol=1e-9)


def test_bench_staged_execution_reference(benchmark):
    graph = double_conv_graph(128)
    rng = np.random.default_rng(0)
    data = {"src": rng.uniform(0, 255, size=(128, 128))}
    env = benchmark(run, graph, data, options=STAGED)
    assert env["out"].shape == (128, 128)
