"""Tests for the Canny-lite extension application."""

import numpy as np
import pytest

from helpers import STAGED, random_image

from repro.api import ExecutionOptions, run
from repro.apps.canny import build_pipeline
from repro.fusion.exhaustive import exhaustive_fusion
from repro.fusion.mincut_fusion import mincut_fusion
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680

PARAMS = {"threshold": 100.0}


@pytest.fixture(scope="module")
def graph():
    return build_pipeline(24, 24).build()


class TestStructure:
    def test_six_kernels(self, graph):
        assert graph.kernel_names == (
            "dx", "dy", "mag", "orient", "nms", "thresh"
        )

    def test_threshold_parameter(self, graph):
        assert graph.kernel("thresh").param_names == {"threshold"}

    def test_nms_is_local_on_magnitude_only(self, graph):
        reads = graph.kernel("nms").reads()
        assert len(reads["magnitude"]) == 5  # center + 4 neighbours
        assert reads["orientation"] == {(0, 0)}


class TestSemantics:
    def test_vertical_edge_detected(self, graph):
        data = np.zeros((24, 24))
        data[:, 12:] = 200.0
        env = run(graph, {"input": data}, PARAMS, options=STAGED)
        edges = env["edges"]
        # Edge response near the discontinuity, none in flat regions.
        assert edges[12, 11:13].max() == 255.0
        assert edges[12, 2] == 0.0 and edges[12, 20] == 0.0

    def test_edges_are_binary(self, graph):
        data = random_image(24, 24, seed=1)
        env = run(graph, {"input": data}, PARAMS, options=STAGED)
        assert set(np.unique(env["edges"])) <= {0.0, 255.0}

    def test_nms_thins_edges(self, graph):
        # A smooth Gaussian bump: the gradient magnitude is a wide ring,
        # non-maximum suppression keeps only its crest.
        ys, xs = np.mgrid[0:24, 0:24]
        data = 200.0 * np.exp(-((xs - 12.0) ** 2 + (ys - 12.0) ** 2) / 30.0)
        env = run(graph, {"input": data}, PARAMS, options=STAGED)
        raw = env["magnitude"][2:-2, 2:-2]
        kept = env["suppressed"][2:-2, 2:-2]
        assert np.count_nonzero(kept > 1.0) < np.count_nonzero(raw > 1.0)

    def test_threshold_scales_edge_count(self, graph):
        data = random_image(24, 24, seed=2)
        low = run(graph, {"input": data}, {"threshold": 10.0}, options=STAGED)
        high = run(
            graph, {"input": data}, {"threshold": 10000.0},
            options=STAGED,
        )
        assert np.count_nonzero(low["edges"]) >= np.count_nonzero(
            high["edges"]
        )


class TestFusion:
    def test_mincut_fuses_the_tail(self, graph):
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        blocks = {frozenset(b.vertices) for b in partition.blocks}
        assert frozenset({"nms", "thresh"}) in blocks

    def test_exhaustive_finds_the_diamond_block(self, graph):
        # The per-edge weights mark (mag, nms) and (orient, nms) with
        # epsilon (pairwise-illegal: nms needs both producers), so the
        # recursive min-cut never assembles the four-kernel block — but
        # the block IS legal and the enumerated optimum takes it.  The
        # gap is bounded by the epsilon weights by construction.
        weighted = estimate_graph(graph, GTX680)
        optimal = exhaustive_fusion(weighted)
        blocks = {frozenset(b.vertices) for b in optimal.partition.blocks}
        assert frozenset({"mag", "orient", "nms", "thresh"}) in blocks
        heuristic = mincut_fusion(weighted)
        gap = optimal.benefit - heuristic.benefit
        assert 0.0 <= gap <= 4 * weighted.config.epsilon

    @pytest.mark.parametrize("engine", ["mincut", "exhaustive"])
    def test_fused_semantics(self, graph, engine):
        data = random_image(24, 24, seed=3)
        staged = run(graph, {"input": data}, PARAMS, options=STAGED)
        weighted = estimate_graph(graph, GTX680)
        fn = mincut_fusion if engine == "mincut" else exhaustive_fusion
        partition = fn(weighted).partition
        env = run(
            graph, {"input": data}, PARAMS,
            options=ExecutionOptions(partition=partition),
        )
        np.testing.assert_allclose(env["edges"], staged["edges"])
