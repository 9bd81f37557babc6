"""Reference-executor throughput.

Measures the NumPy executor itself: staged pipelines, fused execution
(with its per-consumer recomputation and two-stage border resolution),
and the effect of the evaluator's expression memoization (the runtime
analogue of register reuse).
"""

import numpy as np
import pytest

from helpers import STAGED, chain_pipeline, random_image

from repro.api import ExecutionOptions, run, run_block
from repro.apps.harris import build_pipeline as build_harris
from repro.apps.unsharp import build_pipeline as build_unsharp
from repro.eval.runner import partition_for
from repro.graph.partition import PartitionBlock
from repro.model.hardware import GTX680

SIZE = 256


@pytest.fixture(scope="module")
def harris_setup():
    graph = build_harris(SIZE, SIZE).build()
    data = {"input": random_image(SIZE, SIZE, seed=0)}
    partition = partition_for(graph, GTX680, "optimized")
    return graph, data, partition


def test_bench_staged_harris(benchmark, harris_setup):
    graph, data, _ = harris_setup
    env = benchmark(run, graph, data, options=STAGED)
    assert env["corners"].shape == (SIZE, SIZE)


def test_bench_fused_harris(benchmark, harris_setup):
    graph, data, partition = harris_setup
    env = benchmark(
        run, graph, data, options=ExecutionOptions(partition=partition)
    )
    staged = run(graph, data, options=STAGED)
    np.testing.assert_allclose(env["corners"], staged["corners"],
                               rtol=1e-9)


def test_bench_fused_unsharp_whole_block(benchmark):
    graph = build_unsharp(SIZE, SIZE).build()
    data = {"input": random_image(SIZE, SIZE, seed=1)}
    block = PartitionBlock(graph, set(graph.kernel_names))
    out = benchmark(run_block, graph, block, data)
    assert out.shape == (SIZE, SIZE)


def test_bench_local_to_local_exchange(benchmark):
    # The heaviest executor path: recursive producer evaluation with
    # index exchange at every consumer tap.
    graph = chain_pipeline(("l", "l"), SIZE, SIZE).build()
    data = {"img0": random_image(SIZE, SIZE, seed=2)}
    block = PartitionBlock(graph, {"k0", "k1"})
    out = benchmark(run_block, graph, block, data)
    staged = run(graph, data, options=STAGED)["img2"]
    np.testing.assert_allclose(out, staged, rtol=1e-9)
