"""Unit tests for the analytic performance simulator."""

import pytest

from helpers import image, local_kernel, point_kernel

from repro.apps.night import build_pipeline as build_night
from repro.apps.unsharp import build_pipeline as build_unsharp
from repro.apps.harris import build_pipeline as build_harris
from repro.backend.memsim import (
    _shared_bytes,
    analyze_kernel,
    estimate_kernel_time,
    kernel_traffic,
)
from repro.fusion.fuser import FusedKernel
from repro.graph.partition import PartitionBlock
from repro.model.hardware import GTX680, GTX745, K20C
from repro.model.resources import block_shared_bytes, kernel_shared_bytes


class TestTraffic:
    def test_point_kernel_one_load(self):
        kernel = point_kernel("k", image("a"), image("b"))
        loads, shared = kernel_traffic(kernel)
        assert loads == 1.0
        assert shared == 0.0

    def test_two_input_point_kernel(self):
        from repro.dsl.kernel import Kernel

        a, b, out = image("a"), image("b"), image("out")
        kernel = Kernel.from_function(
            "k", [a, b], out, lambda x, y: x() + y()
        )
        loads, _ = kernel_traffic(kernel)
        assert loads == 2.0

    def test_local_kernel_staged(self):
        kernel = local_kernel("k", image("a"), image("b"))  # 3x3, block 32x8
        loads, shared = kernel_traffic(kernel)
        footprint = (34 * 10) / (32 * 8)
        assert loads == pytest.approx(footprint)
        assert shared == pytest.approx(footprint + 9)

    def test_local_without_staging_pays_global(self):
        kernel = local_kernel("k", image("a"), image("b"))
        kernel = kernel.with_header(force_no_shared_memory=True)
        loads, shared = kernel_traffic(kernel)
        assert loads == 9.0
        assert shared == 0.0


class TestKernelTime:
    def test_breakdown_fields(self, any_gpu):
        kernel = point_kernel("k", image("a", 256, 256), image("b", 256, 256))
        breakdown = analyze_kernel(kernel, any_gpu)
        assert breakdown.time_ms > 0
        assert breakdown.elements == 256 * 256
        assert 0 < breakdown.occupancy <= 1.0
        assert breakdown.time_ms >= max(
            breakdown.time_memory_ms, breakdown.time_compute_ms
        ) - 1e-12

    def test_larger_image_takes_longer(self, gpu):
        small = point_kernel("k", image("a", 128, 128), image("b", 128, 128))
        large = point_kernel("k", image("a", 512, 512), image("b", 512, 512))
        assert estimate_kernel_time(large, gpu) > estimate_kernel_time(small, gpu)

    def test_gtx745_slowest_device(self):
        kernel = point_kernel(
            "k", image("a", 1024, 1024), image("b", 1024, 1024)
        )
        t745 = estimate_kernel_time(kernel, GTX745)
        t680 = estimate_kernel_time(kernel, GTX680)
        tk20 = estimate_kernel_time(kernel, K20C)
        assert t745 > t680 and t745 > tk20

    def test_point_kernels_memory_bound(self, gpu):
        kernel = point_kernel(
            "k", image("a", 1024, 1024), image("b", 1024, 1024)
        )
        assert analyze_kernel(kernel, gpu).memory_bound

    def test_night_atrous_compute_bound(self, gpu):
        # Section V-C: the Night filter kernels are compute-bound.
        graph = build_night().build()
        breakdown = analyze_kernel(graph.kernel("atrous0"), gpu)
        assert not breakdown.memory_bound

    def test_fused_kernel_time_below_sum_of_members(self, gpu):
        graph = build_unsharp().build()
        block = PartitionBlock(graph, set(graph.kernel_names))
        fused = FusedKernel(graph, block)
        fused_time = estimate_kernel_time(fused, gpu)
        member_sum = sum(
            estimate_kernel_time(graph.kernel(n), gpu)
            for n in graph.kernel_names
        )
        assert fused_time < member_sum

    @pytest.mark.parametrize(
        "shape, member_bytes", [((32, 8), 1360), ((32, 32), 4624), ((32, 2), 544)]
    )
    def test_a_re_shaped_fused_launch_stages_at_its_own_shape(
        self, shape, member_bytes
    ):
        """Harris's ``gx`` (3x3 local) fused with the point ``hc``: the
        launch stages ``gx``'s tile at the launch's block shape, not at
        the shape ``gx`` was built with."""
        graph = build_harris(256, 256).build()
        fused = FusedKernel(graph, PartitionBlock(graph, {"gx", "hc"}))
        launch = fused.with_header(block_shape=shape)
        member = graph.kernel("gx").with_header(block_shape=shape)
        assert kernel_shared_bytes(member) == member_bytes
        assert _shared_bytes(launch) == member_bytes
        assert _shared_bytes(fused) == block_shared_bytes(graph, ["gx", "hc"])

    def test_describe_mentions_bound(self, gpu):
        kernel = point_kernel("k", image("a", 64, 64), image("b", 64, 64))
        assert "bound" in analyze_kernel(kernel, gpu).describe()

    def test_rgb_elements_scale(self, gpu):
        from repro.dsl.image import Image
        from repro.dsl.kernel import Kernel

        gray_in = image("a", 256, 256)
        gray_out = image("b", 256, 256)
        rgb_in = Image.create("c", 256, 256, channels=3)
        rgb_out = Image.create("d", 256, 256, channels=3)
        gray = Kernel.from_function("g", [gray_in], gray_out, lambda a: a() * 2.0)
        rgb = Kernel.from_function("r", [rgb_in], rgb_out, lambda a: a() * 2.0)
        assert estimate_kernel_time(rgb, gpu) > 2.5 * estimate_kernel_time(
            gray, gpu
        )
