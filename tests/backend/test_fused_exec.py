"""Fused-execution semantics: fused blocks must match staged execution.

This is the core correctness property of kernel fusion — including at
image borders, where the index-exchange method is required.
"""

import numpy as np
import pytest

from helpers import (
    BLUR3,
    BLUR5,
    EDGE3,
    STAGED,
    chain_pipeline,
    diamond_pipeline,
    random_image,
)

from repro.api import ExecutionOptions, FusionSettings, run, run_block
from repro.backend.numpy_exec import ExecutionError
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.graph.partition import Partition, PartitionBlock


MODES = [
    BoundarySpec(BoundaryMode.CLAMP),
    BoundarySpec(BoundaryMode.MIRROR),
    BoundarySpec(BoundaryMode.REPEAT),
    BoundarySpec(BoundaryMode.CONSTANT, constant=3.5),
]


def fused_equals_staged(pipe, inputs, block_vertices, params=None):
    graph = pipe.build()
    staged = run(graph, inputs, params, options=STAGED)
    block = PartitionBlock(graph, block_vertices)
    destination = graph.kernel(block.destination_kernels()[0])
    fused = run_block(graph, block, inputs, params)
    np.testing.assert_allclose(
        fused, staged[destination.output.name], rtol=1e-10, atol=1e-9
    )
    return staged, fused


class TestPointChains:
    def test_two_point_kernels(self):
        data = random_image(6, 6, seed=1)
        pipe = chain_pipeline(("p", "p"), 6, 6)
        fused_equals_staged(pipe, {"img0": data}, {"k0", "k1"})

    def test_long_point_chain(self):
        data = random_image(6, 6, seed=2)
        pipe = chain_pipeline(("p", "p", "p", "p", "p"), 6, 6)
        fused_equals_staged(
            pipe, {"img0": data}, {"k0", "k1", "k2", "k3", "k4"}
        )


class TestLocalFusion:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
    def test_point_to_local(self, mode):
        data = random_image(8, 8, seed=3)
        pipe = chain_pipeline(("p", "l"), 8, 8, boundary=mode)
        fused_equals_staged(pipe, {"img0": data}, {"k0", "k1"})

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
    def test_local_to_point(self, mode):
        data = random_image(8, 8, seed=4)
        pipe = chain_pipeline(("l", "p"), 8, 8, boundary=mode)
        fused_equals_staged(pipe, {"img0": data}, {"k0", "k1"})

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
    def test_local_to_local_borders_exact(self, mode):
        # The hard case: the index exchange must reproduce the staged
        # boundary handling of the intermediate image.
        data = random_image(8, 8, seed=5)
        pipe = chain_pipeline(("l", "l"), 8, 8, boundary=mode)
        fused_equals_staged(pipe, {"img0": data}, {"k0", "k1"})

    def test_mixed_mask_sizes(self):
        data = random_image(10, 10, seed=6)
        pipe = chain_pipeline(
            ("l", "l"), 10, 10,
            boundary=BoundarySpec(BoundaryMode.MIRROR),
            masks=[BLUR3, BLUR5],
        )
        fused_equals_staged(pipe, {"img0": data}, {"k0", "k1"})

    def test_three_local_stages(self):
        data = random_image(12, 12, seed=7)
        pipe = chain_pipeline(
            ("l", "l", "l"), 12, 12,
            boundary=BoundarySpec(BoundaryMode.CLAMP),
            masks=[EDGE3, BLUR3, BLUR3],
        )
        fused_equals_staged(pipe, {"img0": data}, {"k0", "k1", "k2"})

    def test_mixed_boundary_modes_between_stages(self):
        # Producer clamps, consumer mirrors: each stage must resolve
        # with its own accessor's mode.
        from helpers import image, local_kernel
        from repro.dsl.pipeline import Pipeline

        pipe = Pipeline("mixed")
        src, mid, out = image("s", 8, 8), image("m", 8, 8), image("o", 8, 8)
        pipe.add(local_kernel("k0", src, mid, boundary=BoundaryMode.CLAMP))
        pipe.add(local_kernel("k1", mid, out, boundary=BoundaryMode.MIRROR))
        data = random_image(8, 8, seed=8)
        fused_equals_staged(pipe, {"s": data}, {"k0", "k1"})

    def test_naive_borders_differ_from_staged(self):
        data = random_image(8, 8, seed=9)
        graph = chain_pipeline(
            ("l", "l"), 8, 8, boundary=BoundarySpec(BoundaryMode.CLAMP)
        ).build()
        staged = run(graph, {"img0": data}, options=STAGED)
        block = PartitionBlock(graph, {"k0", "k1"})
        naive = run_block(
            graph, block, {"img0": data},
            options=ExecutionOptions(fusion=FusionSettings(naive_borders=True)),
        )
        # Interior agrees...
        np.testing.assert_allclose(naive[2:-2, 2:-2],
                                   staged["img2"][2:-2, 2:-2])
        # ... but the halo region does not (Fig. 4b).
        assert not np.allclose(naive, staged["img2"])


class TestDiamond:
    def test_shared_input_block(self):
        data = random_image(8, 8, seed=10)
        pipe = diamond_pipeline(8, 8)
        fused_equals_staged(pipe, {"src": data}, {"a", "b", "c"})


class TestExecutePartitioned:
    def test_partitioned_pipeline_full_agreement(self):
        data = random_image(8, 8, seed=11)
        graph = chain_pipeline(("p", "l", "p"), 8, 8).build()
        staged = run(graph, {"img0": data}, options=STAGED)
        partition = Partition(
            graph,
            [
                PartitionBlock(graph, {"k0", "k1"}),
                PartitionBlock(graph, {"k2"}),
            ],
        )
        env = run(
            graph, {"img0": data},
            options=ExecutionOptions(partition=partition),
        )
        np.testing.assert_allclose(env["img3"], staged["img3"])

    def test_eliminated_intermediates_not_materialized(self):
        data = random_image(6, 6, seed=12)
        graph = chain_pipeline(("p", "p"), 6, 6).build()
        partition = Partition(
            graph, [PartitionBlock(graph, {"k0", "k1"})]
        )
        env = run(
            graph, {"img0": data},
            options=ExecutionOptions(partition=partition),
        )
        assert "img1" not in env  # fused away
        assert "img2" in env

    def test_singleton_partition_equals_pipeline(self):
        data = random_image(6, 6, seed=13)
        graph = chain_pipeline(("l", "p"), 6, 6).build()
        staged = run(graph, {"img0": data}, options=STAGED)
        env = run(
            graph, {"img0": data},
            options=ExecutionOptions(partition=Partition.singletons(graph)),
        )
        for name, value in staged.items():
            np.testing.assert_allclose(env[name], value)


class TestErrors:
    def test_block_without_unique_destination(self):
        graph = chain_pipeline(("p", "p", "p"), 6, 6).build()
        block = PartitionBlock(graph, {"k0", "k2"})
        with pytest.raises(ExecutionError, match="destination"):
            run_block(graph, block, {"img0": np.zeros((6, 6))})
