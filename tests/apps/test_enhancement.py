"""Tests for the WCE enhancement application."""

import numpy as np
import pytest

from helpers import STAGED, random_image

from repro.api import ExecutionOptions, run
from repro.apps.enhancement import build_pipeline
from repro.dsl.kernel import ComputePattern
from repro.fusion.basic_fusion import basic_fusion
from repro.fusion.mincut_fusion import mincut_fusion
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680

PARAMS = {"gamma": 0.8}


@pytest.fixture(scope="module")
def graph():
    return build_pipeline(16, 16).build()


class TestStructure:
    def test_chain_of_three(self, graph):
        assert graph.kernel_names == ("gmean", "gamma", "stretch")
        assert graph.kernel("gmean").pattern is ComputePattern.LOCAL
        assert graph.kernel("gamma").pattern is ComputePattern.POINT
        assert graph.kernel("stretch").pattern is ComputePattern.POINT

    def test_gmean_is_sfu_heavy(self, graph):
        counts = graph.kernel("gmean").op_counts
        assert counts.sfu == 10  # nine logs plus one exp

    def test_gamma_parameter_exposed(self, graph):
        assert graph.kernel("gamma").param_names == {"gamma"}


class TestSemantics:
    def test_geometric_mean_of_constant(self, graph):
        data = np.full((16, 16), 63.0)
        env = run(graph, {"input": data}, PARAMS, options=STAGED)
        np.testing.assert_allclose(env["denoised"], 63.0, rtol=1e-9)

    def test_geometric_mean_reduces_speckle(self, graph):
        data = np.full((16, 16), 100.0)
        data[8, 8] = 10000.0  # hot pixel
        env = run(graph, {"input": data}, PARAMS, options=STAGED)
        # The geometric mean is robust to the outlier: the denoised
        # neighbourhood stays well below the arithmetic mean (1200).
        assert env["denoised"][8, 8] < 300.0

    def test_gamma_brightens_midtones(self, graph):
        data = np.full((16, 16), 64.0)
        env = run(graph, {"input": data}, PARAMS, options=STAGED)
        # gamma < 1 lifts values: (64/255)^0.8 * 255 > 64.
        assert env["corrected"][8, 8] > 64.0

    def test_stretch_clamps_to_display_range(self, graph):
        env = run(
            graph, {"input": np.full((16, 16), 255.0)}, PARAMS,
            options=STAGED,
        )
        assert env["enhanced"].max() <= 255.0
        env = run(
            graph, {"input": np.full((16, 16), 1.0)}, PARAMS,
            options=STAGED,
        )
        assert env["enhanced"].min() >= 0.0

    def test_fused_equals_staged(self, graph):
        data = random_image(16, 16, seed=1) + 1.0
        staged = run(graph, {"input": data}, PARAMS, options=STAGED)
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        fused = run(
            graph, {"input": data}, PARAMS,
            options=ExecutionOptions(partition=partition),
        )
        np.testing.assert_allclose(
            fused["enhanced"], staged["enhanced"], rtol=1e-9
        )


class TestFusionDecisions:
    def test_both_engines_collapse_the_chain(self, graph):
        # Enhancement is the best case for basic fusion too (paper:
        # 1.41-1.79 for basic).
        weighted = estimate_graph(graph, GTX680)
        assert len(mincut_fusion(weighted).partition) == 1
        assert len(basic_fusion(weighted).partition) == 1

    def test_expensive_producer_does_not_block_point_fusion(self, graph):
        # Point-based scenario (Eq. 5): no phi term even though the
        # geometric mean is SFU-heavy.
        weighted = estimate_graph(graph, GTX680)
        est = weighted.estimate("gmean", "gamma")
        assert est.phi == 0.0
        assert est.profitable
