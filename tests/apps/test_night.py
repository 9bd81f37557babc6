"""Tests for the Night filter (the paper's compute-bound negative result)."""

import numpy as np
import pytest

from helpers import STAGED, random_image

from repro.api import ExecutionOptions, run
from repro.apps.night import build_pipeline
from repro.dsl.kernel import ComputePattern
from repro.fusion.mincut_fusion import mincut_fusion
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680


@pytest.fixture(scope="module")
def graph():
    return build_pipeline(12, 10).build()


class TestStructure:
    def test_three_kernel_chain(self, graph):
        assert graph.kernel_names == ("atrous0", "atrous1", "scoto")

    def test_default_geometry_is_rgb_1920x1200(self):
        graph = build_pipeline().build()
        space = graph.kernel("scoto").space
        assert (space.width, space.height, space.channels) == (1920, 1200, 3)

    def test_atrous_window_sizes(self, graph):
        # Level 0: dense 3x3; level 1: 9 taps spread over 5x5.
        assert graph.kernel("atrous0").window_size == 9
        assert graph.kernel("atrous1").window_size == 25
        assert graph.kernel("scoto").pattern is ComputePattern.POINT

    def test_atrous1_taps_have_holes(self, graph):
        offsets = graph.kernel("atrous1").reads()["smooth0"]
        assert (2, 2) in offsets
        assert (1, 1) not in offsets  # hole

    def test_kernels_are_heavy(self, graph):
        # ~68 ALU ops for the bilateral passes, ~89 for the tone curve.
        assert graph.kernel("atrous0").op_counts.alu >= 50
        assert graph.kernel("atrous1").op_counts.alu >= 50
        assert graph.kernel("scoto").op_counts.alu >= 55


class TestSemantics:
    def test_bilateral_preserves_constant_image(self, graph):
        data = np.full((10, 12, 3), 80.0)
        env = run(graph, {"input": data}, options=STAGED)
        np.testing.assert_allclose(env["smooth0"], 80.0, rtol=1e-12)
        np.testing.assert_allclose(env["smooth1"], 80.0, rtol=1e-12)

    def test_bilateral_smooths_noise(self, graph):
        rng = np.random.default_rng(0)
        data = 100.0 + rng.normal(0.0, 5.0, size=(10, 12, 3))
        env = run(graph, {"input": data}, options=STAGED)
        assert env["smooth0"].std() < data.std()

    def test_bilateral_preserves_strong_edges(self, graph):
        data = np.zeros((10, 12, 3))
        data[:, 6:, :] = 200.0
        env = run(graph, {"input": data}, options=STAGED)
        smoothed = env["smooth0"]
        # The edge column must stay close to its original values: the
        # range weight suppresses averaging across the jump.
        assert smoothed[5, 5, 0] < 35.0
        assert smoothed[5, 6, 0] > 165.0

    def test_fused_equals_staged(self, graph):
        data = random_image(12, 10, channels=3, seed=1)
        staged = run(graph, {"input": data}, options=STAGED)
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        fused = run(
            graph, {"input": data},
            options=ExecutionOptions(partition=partition),
        )
        np.testing.assert_allclose(fused["toned"], staged["toned"], rtol=1e-9)


class TestFusionDecisions:
    def test_atrous_pair_not_fused(self, graph):
        # The headline negative result of Section V-C.
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        blocks = {frozenset(b.vertices) for b in partition.blocks}
        assert blocks == {
            frozenset({"atrous0"}),
            frozenset({"atrous1", "scoto"}),
        }
