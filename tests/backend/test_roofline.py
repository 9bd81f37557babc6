"""Tests for the roofline analyzer."""

import pytest

from helpers import image, point_kernel

from repro.apps import APPLICATIONS
from repro.apps.night import build_pipeline as build_night
from repro.apps.sobel import build_pipeline as build_sobel
from repro.apps.unsharp import build_pipeline as build_unsharp
from repro.backend.roofline import (
    analyze_roofline,
    device_balance,
    pipeline_roofline,
    render_roofline_report,
)
from repro.eval.runner import partition_for
from repro.graph.partition import Partition
from repro.model.hardware import GTX680, GTX745


class TestDeviceBalance:
    def test_positive(self):
        assert device_balance(GTX680) > 0

    def test_gtx745_has_higher_balance(self):
        # Weak DRAM relative to compute -> kernels go compute-bound
        # later... the *balance point* is compute/bandwidth, so GTX745's
        # tiny bandwidth with few cores: compute 384*1.03e9, bw 21.6e9
        # vs GTX680 1536*1.058e9 / 144e9.
        assert device_balance(GTX745) > device_balance(GTX680)


class TestKernelClassification:
    def test_point_kernel_memory_bound(self, gpu):
        kernel = point_kernel("k", image("a", 64, 64), image("b", 64, 64))
        point = analyze_roofline(kernel, gpu)
        assert not point.compute_bound
        assert point.intensity < point.balance

    def test_night_atrous_compute_bound(self, gpu):
        # Section V-C: "compute-bound applications benefit less".
        graph = build_night().build()
        point = analyze_roofline(graph.kernel("atrous0"), gpu)
        assert point.compute_bound

    def test_sobel_kernels_memory_bound(self, gpu):
        graph = build_sobel().build()
        for name in graph.kernel_names:
            assert not analyze_roofline(graph.kernel(name), gpu).compute_bound

    def test_describe(self, gpu):
        graph = build_sobel().build()
        text = analyze_roofline(graph.kernel("dx"), gpu).describe()
        assert "bound" in text and "cycles/B" in text


class TestPipelineRoofline:
    def test_fusion_raises_intensity_of_memory_bound_pipelines(self, gpu):
        graph = build_unsharp().build()
        baseline = pipeline_roofline(
            graph, Partition.singletons(graph), gpu
        )
        optimized = pipeline_roofline(
            graph, partition_for(graph, gpu, "optimized"), gpu
        )
        # One fused launch, with higher arithmetic intensity than any
        # baseline launch (same work over far less traffic).
        assert len(optimized) == 1
        assert optimized[0].intensity > max(p.intensity for p in baseline)

    def test_paper_apps_sit_where_section_vc_says(self):
        # What roofline.txt characterizes, at paper geometry on GTX680.
        balance = device_balance(GTX680)
        intensities = {}
        for name, spec in APPLICATIONS.items():
            graph = spec.pipeline().build()
            points = pipeline_roofline(
                graph, Partition.singletons(graph), GTX680
            )
            intensities[name] = [p.intensity for p in points]
        # Night: every kernel deep in the compute-bound region — why
        # fusion cannot help it.
        assert all(i > 2.0 * balance for i in intensities["Night"])
        # The detection / filtering apps sit near or below the knee,
        # most of their launches memory-bound.
        for app in ("Sobel", "Unsharp", "Harris", "ShiTomasi"):
            assert max(intensities[app]) < 1.5 * balance, app
            below = sum(1 for i in intensities[app] if i <= balance)
            assert below >= len(intensities[app]) / 2, app
        # Enhancement is mixed: an SFU-heavy producer above the knee
        # feeding memory-bound point stages (Eq. 5: fusion still pays).
        assert max(intensities["Enhance"]) > 2.0 * balance
        assert min(intensities["Enhance"]) < balance

    def test_report_contains_both_sections(self, gpu):
        graph = build_unsharp().build()
        text = render_roofline_report(
            graph,
            Partition.singletons(graph),
            partition_for(graph, gpu, "optimized"),
            gpu,
        )
        assert "baseline launches:" in text
        assert "optimized launches:" in text
        assert "balance point" in text
