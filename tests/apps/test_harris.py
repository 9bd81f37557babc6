"""Tests for the Harris corner application (the paper's Fig. 3 example)."""

import numpy as np
import pytest

from helpers import STAGED, random_image

from repro.api import ExecutionOptions, run
from repro.apps.harris import HARRIS_K, NORM, build_pipeline
from repro.dsl.kernel import ComputePattern
from repro.fusion.mincut_fusion import mincut_fusion
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680


@pytest.fixture(scope="module")
def graph():
    return build_pipeline(16, 16).build()


class TestStructure:
    def test_nine_kernels_ten_edges(self, graph):
        # "Those nine kernels are connected by ten edges."
        assert len(graph) == 9
        assert len(graph.edges) == 10

    def test_patterns_match_paper(self, graph):
        local = {"dx", "dy", "gx", "gy", "gxy"}
        point = {"sx", "sy", "sxy", "hc"}
        for name in local:
            assert graph.kernel(name).pattern is ComputePattern.LOCAL
        for name in point:
            assert graph.kernel(name).pattern is ComputePattern.POINT

    def test_square_kernels_have_two_alu_ops(self, graph):
        # n_ALU = 2 in the paper's worked example.
        for name in ("sx", "sy", "sxy"):
            assert graph.kernel(name).op_counts.alu == 2

    def test_gaussian_window_size_nine(self, graph):
        for name in ("gx", "gy", "gxy"):
            assert graph.kernel(name).window_size == 9

    def test_default_geometry(self):
        graph = build_pipeline().build()
        assert graph.kernel("hc").space.width == 2048


class TestSemantics:
    def test_corner_response_formula(self, graph):
        data = random_image(16, 16, seed=1)
        env = run(graph, {"input": data}, options=STAGED)
        gxx, gyy, gxy = env["Gxx"], env["Gyy"], env["Gxy"]
        expected = (gxx * gyy - gxy * gxy) - HARRIS_K * (gxx + gyy) ** 2
        np.testing.assert_allclose(env["corners"], expected)

    def test_squares_normalized(self, graph):
        data = random_image(16, 16, seed=2)
        env = run(graph, {"input": data}, options=STAGED)
        np.testing.assert_allclose(env["Sxx"], env["Ix"] ** 2 * NORM)
        np.testing.assert_allclose(env["Sxy"], env["Ix"] * env["Iy"] * NORM)

    def test_corner_detection_on_synthetic_corner(self):
        # A bright square on dark background: response at the corner of
        # the square should far exceed the flat-region response.
        graph = build_pipeline(24, 24).build()
        data = np.zeros((24, 24))
        data[8:16, 8:16] = 200.0
        env = run(graph, {"input": data}, options=STAGED)
        corners = env["corners"]
        assert abs(corners[8, 8]) > 10 * abs(corners[4, 4])

    def test_fused_equals_staged(self, graph):
        data = random_image(16, 16, seed=3)
        staged = run(graph, {"input": data}, options=STAGED)
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        fused = run(
            graph, {"input": data},
            options=ExecutionOptions(partition=partition),
        )
        np.testing.assert_allclose(
            fused["corners"], staged["corners"], rtol=1e-10
        )
