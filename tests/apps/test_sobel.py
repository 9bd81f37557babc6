"""Tests for the Sobel application."""

import numpy as np
import pytest

from helpers import STAGED, random_image

from repro.api import ExecutionOptions, run
from repro.apps.sobel import build_pipeline
from repro.dsl.kernel import ComputePattern
from repro.fusion.basic_fusion import basic_fusion
from repro.fusion.mincut_fusion import mincut_fusion
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680
from repro.model.resources import shared_memory_ratio


@pytest.fixture(scope="module")
def graph():
    return build_pipeline(16, 16).build()


class TestStructure:
    def test_three_kernels(self, graph):
        assert set(graph.kernel_names) == {"dx", "dy", "mag"}
        assert graph.kernel("dx").pattern is ComputePattern.LOCAL
        assert graph.kernel("mag").pattern is ComputePattern.POINT

    def test_resource_ratio_exactly_at_threshold(self, graph):
        # Two local kernels: ratio 2.0 == the paper's cMshared -> legal.
        assert shared_memory_ratio(graph, graph.kernel_names) == 2.0


class TestSemantics:
    def test_magnitude_formula(self, graph):
        data = random_image(16, 16, seed=1)
        env = run(graph, {"input": data}, options=STAGED)
        expected = np.sqrt(env["Ix"] ** 2 + env["Iy"] ** 2)
        np.testing.assert_allclose(env["magnitude"], expected)

    def test_vertical_edge_detected_by_dx_only(self, graph):
        data = np.zeros((16, 16))
        data[:, 8:] = 100.0
        env = run(graph, {"input": data}, options=STAGED)
        assert abs(env["Ix"][8, 8]) > 0
        np.testing.assert_allclose(env["Iy"][2:-2, 2:-2], 0.0)

    def test_flat_image_zero_magnitude(self, graph):
        env = run(graph, {"input": np.full((16, 16), 42.0)}, options=STAGED)
        np.testing.assert_allclose(env["magnitude"], 0.0, atol=1e-9)

    def test_fused_equals_staged(self, graph):
        data = random_image(16, 16, seed=2)
        staged = run(graph, {"input": data}, options=STAGED)
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        assert partition.fused_block_count() == 1
        fused = run(
            graph, {"input": data},
            options=ExecutionOptions(partition=partition),
        )
        np.testing.assert_allclose(
            fused["magnitude"], staged["magnitude"], rtol=1e-10
        )


class TestFusionDecisions:
    def test_optimized_fuses_basic_does_not(self, graph):
        weighted = estimate_graph(graph, GTX680)
        optimized = mincut_fusion(weighted).partition
        basic = basic_fusion(weighted).partition
        assert len(optimized) == 1
        assert len(basic) == 3
