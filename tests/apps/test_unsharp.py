"""Tests for the cubic unsharp application (the Fig. 2b diamond)."""

import numpy as np
import pytest

from helpers import STAGED, random_image

from repro.api import ExecutionOptions, run
from repro.apps.unsharp import LAMBDA, NORM, build_pipeline
from repro.fusion.basic_fusion import basic_fusion
from repro.fusion.mincut_fusion import mincut_fusion
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680


@pytest.fixture(scope="module")
def graph():
    return build_pipeline(16, 16).build()


class TestStructure:
    def test_all_kernels_read_source(self, graph):
        # "all the four kernels require the source input image" — the
        # blur plus all three point kernels read `input`.
        readers = graph.consumers_of("input")
        assert set(readers) == {"blur", "high", "amp", "sharpen"}

    def test_four_kernels(self, graph):
        assert len(graph) == 4


class TestSemantics:
    def test_pipeline_formula(self, graph):
        data = random_image(16, 16, seed=1)
        env = run(graph, {"input": data}, options=STAGED)
        high = data - env["blurred"]
        amplified = high * data * data * NORM
        expected = data + LAMBDA * amplified
        np.testing.assert_allclose(env["sharpened"], expected)

    def test_sharpening_increases_contrast_at_edges(self, graph):
        data = np.zeros((16, 16))
        data[:, 8:] = 100.0
        env = run(graph, {"input": data}, options=STAGED)
        out = env["sharpened"]
        # Overshoot on the bright side of the edge.
        assert out[8, 8] > 100.0
        # Flat regions unchanged (blur == input there).
        assert out[8, 2] == pytest.approx(0.0, abs=1e-9)

    def test_fused_whole_pipeline_equals_staged(self, graph):
        data = random_image(16, 16, seed=2)
        staged = run(graph, {"input": data}, options=STAGED)
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        assert len(partition) == 1  # single fused kernel
        fused = run(
            graph, {"input": data},
            options=ExecutionOptions(partition=partition),
        )
        np.testing.assert_allclose(
            fused["sharpened"], staged["sharpened"], rtol=1e-10
        )


class TestFusionDecisions:
    def test_basic_rejects_everything(self, graph):
        # The paper: "the filter Unsharp has shared input ... rejected
        # by the basic kernel fusion algorithm."
        weighted = estimate_graph(graph, GTX680)
        basic = basic_fusion(weighted).partition
        assert all(len(b) == 1 for b in basic.blocks)

    def test_optimized_captures_full_benefit(self, graph):
        weighted = estimate_graph(graph, GTX680)
        optimized = mincut_fusion(weighted).partition
        assert optimized.benefit == pytest.approx(weighted.graph.total_weight)
