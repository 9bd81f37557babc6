"""Tests for the Shi-Tomasi application."""

import numpy as np
import pytest

from helpers import STAGED, random_image

from repro.api import ExecutionOptions, run
from repro.apps.harris import build_pipeline as build_harris
from repro.apps.shitomasi import build_pipeline
from repro.fusion.mincut_fusion import mincut_fusion
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680


@pytest.fixture(scope="module")
def graph():
    return build_pipeline(16, 16).build()


class TestStructure:
    def test_same_shape_as_harris(self, graph):
        harris = build_harris(16, 16).build()
        assert len(graph) == len(harris) == 9
        assert len(graph.edges) == len(harris.edges) == 10

    def test_response_kernel_uses_sqrt(self, graph):
        assert graph.kernel("st").op_counts.sfu == 1


class TestSemantics:
    def test_minimum_eigenvalue_formula(self, graph):
        data = random_image(16, 16, seed=1)
        env = run(graph, {"input": data}, options=STAGED)
        gxx, gyy, gxy = env["Gxx"], env["Gyy"], env["Gxy"]
        half_trace = (gxx + gyy) / 2.0
        half_diff = (gxx - gyy) / 2.0
        expected = half_trace - np.sqrt(half_diff**2 + gxy**2)
        np.testing.assert_allclose(env["response"], expected)

    def test_response_is_true_min_eigenvalue(self, graph):
        # lambda_min of [[gxx, gxy], [gxy, gyy]] pointwise.
        data = random_image(16, 16, seed=2)
        env = run(graph, {"input": data}, options=STAGED)
        y, x = 7, 9
        matrix = np.array(
            [
                [env["Gxx"][y, x], env["Gxy"][y, x]],
                [env["Gxy"][y, x], env["Gyy"][y, x]],
            ]
        )
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert env["response"][y, x] == pytest.approx(eigenvalues.min())

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
            fused["response"], staged["response"], rtol=1e-10
        )


class TestFusionDecisions:
    def test_partition_mirrors_harris(self, graph):
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        fused_pairs = {
            frozenset(b.vertices) for b in partition.blocks if len(b) > 1
        }
        assert fused_pairs == {
            frozenset({"sx", "gx"}),
            frozenset({"sy", "gy"}),
            frozenset({"sxy", "gxy"}),
        }
