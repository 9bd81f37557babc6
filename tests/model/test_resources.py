"""Unit tests for the shared-memory footprint model (Eq. 2 inputs)."""

from helpers import BLUR3, BLUR5, image, local_kernel, point_kernel

from repro.apps.harris import build_pipeline as build_harris
from repro.dsl.kernel import Kernel
from repro.model.resources import (
    block_shared_bytes,
    estimated_registers_per_thread,
    input_tile_bytes,
    kernel_shared_bytes,
    max_member_shared_bytes,
    shared_memory_ratio,
    tile_shape,
)


class TestTiles:
    def test_tile_shape(self):
        assert tile_shape((32, 8), (1, 1)) == (34, 10)
        assert tile_shape((32, 8), (0, 0)) == (32, 8)
        assert tile_shape((16, 16), (2, 2)) == (20, 20)

    def test_point_kernel_uses_no_shared_memory(self):
        kernel = point_kernel("k", image("a"), image("b"))
        assert kernel_shared_bytes(kernel) == 0

    def test_local_kernel_tile_bytes(self):
        kernel = local_kernel("k", image("a"), image("b"))  # 3x3, block 32x8
        expected = 34 * 10 * 4
        assert input_tile_bytes(kernel, "a") == expected
        assert kernel_shared_bytes(kernel) == expected

    def test_wider_mask_larger_tile(self):
        small = local_kernel("s", image("a"), image("b"), BLUR3)
        large = local_kernel("l", image("a"), image("c"), BLUR5)
        assert kernel_shared_bytes(large) > kernel_shared_bytes(small)

    def test_point_access_inside_local_kernel_not_staged(self):
        a, b, out = image("a"), image("b"), image("out")
        kernel = Kernel.from_function(
            "k", [a, b], out, lambda x, y: x(-1, 0) + x(1, 0) + y()
        )
        assert input_tile_bytes(kernel, "b") == 0
        assert input_tile_bytes(kernel, "a") > 0

    def test_forced_no_shared_memory(self):
        kernel = local_kernel("k", image("a"), image("b"))
        kernel = kernel.with_header(force_no_shared_memory=True)
        assert kernel_shared_bytes(kernel) == 0

    def test_a_footprint_follows_its_kernel_s_later_settings(self):
        """The footprint is kept on the kernel; a copy re-headed after it
        was read is a new footprint, and the original keeps its own."""
        kernel = local_kernel("k", image("a"), image("b"))  # 3x3, block 32x8
        assert kernel_shared_bytes(kernel) == 34 * 10 * 4
        unstaged = kernel.with_header(force_no_shared_memory=True)
        assert kernel_shared_bytes(unstaged) == 0
        restaged = unstaged.with_header(force_no_shared_memory=False)
        assert kernel_shared_bytes(restaged) == 34 * 10 * 4
        square = kernel.with_header(block_shape=(16, 16))
        assert kernel_shared_bytes(square) == 18 * 18 * 4
        assert kernel_shared_bytes(kernel) == 34 * 10 * 4


class TestBlockFootprint:
    def test_harris_whole_graph_ratio_is_five(self):
        # The paper: fusing the whole Harris DAG quintuples the
        # shared-memory consumption (five local kernels).
        graph = build_harris().build()
        ratio = shared_memory_ratio(graph, graph.kernel_names)
        assert ratio == 5.0

    def test_harris_pair_ratio_is_one(self):
        graph = build_harris().build()
        assert shared_memory_ratio(graph, ["sx", "gx"]) == 1.0

    def test_pure_point_block_ratio_is_one(self):
        graph = build_harris().build()
        assert shared_memory_ratio(graph, ["sx", "sxy"]) == 1.0

    def test_block_bytes_sum_members(self):
        graph = build_harris().build()
        total = block_shared_bytes(graph, ["gx", "gy"])
        single = block_shared_bytes(graph, ["gx"])
        assert total == 2 * single

    def test_max_member(self):
        graph = build_harris().build()
        assert max_member_shared_bytes(graph, ["sx", "gx"]) == (
            block_shared_bytes(graph, ["gx"])
        )
        assert max_member_shared_bytes(graph, ["sx"]) == 0


class TestRegisters:
    def test_register_estimate_grows_with_inputs_and_ops(self):
        small = point_kernel("s", image("a"), image("b"))
        graph = build_harris().build()
        heavy = graph.kernel("hc")
        assert estimated_registers_per_thread(heavy) >= (
            estimated_registers_per_thread(small)
        )

    def test_register_estimate_bounded(self):
        graph = build_harris().build()
        for name in graph.kernel_names:
            regs = estimated_registers_per_thread(graph.kernel(name))
            assert 16 <= regs <= 16 + 2 * 8 + 48
