"""Tests for the block-coalescing post-pass."""

import numpy as np
import pytest

from helpers import STAGED, chain_pipeline, random_image

from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS
from repro.apps.canny import build_pipeline as build_canny
from repro.fusion.coalesce import coalesce_partition, coalesced_fusion
from repro.fusion.exhaustive import exhaustive_fusion
from repro.fusion.mincut_fusion import mincut_fusion
from repro.graph.partition import Partition
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680


def weighted_for(pipe):
    return estimate_graph(pipe.build(), GTX680)


class TestCanny:
    """The motivating case: the diamond block hidden from Algorithm 1."""

    @pytest.fixture(scope="class")
    def weighted(self):
        return weighted_for(build_canny(24, 24))

    def test_recovers_the_diamond_block(self, weighted):
        result = coalesced_fusion(weighted)
        blocks = {frozenset(b.vertices) for b in result.partition.blocks}
        assert frozenset({"mag", "orient", "nms", "thresh"}) in blocks

    def test_matches_the_enumerated_optimum(self, weighted):
        coalesced = coalesced_fusion(weighted)
        optimal = exhaustive_fusion(weighted)
        assert coalesced.benefit == pytest.approx(optimal.benefit)

    def test_strictly_improves_on_mincut(self, weighted):
        assert (
            coalesced_fusion(weighted).benefit
            > mincut_fusion(weighted).benefit
        )

    def test_trace_records_the_merge(self, weighted):
        result = coalesced_fusion(weighted)
        coalesce_events = [
            e for e in result.trace if e.reasons and "coalesced" in e.reasons[0]
        ]
        assert len(coalesce_events) == 1
        assert set(coalesce_events[0].block) == {
            "mag", "orient", "nms", "thresh"
        }

    def test_semantics_preserved(self):
        graph = build_canny(24, 24).build()
        weighted = estimate_graph(graph, GTX680)
        partition = coalesced_fusion(weighted).partition
        data = random_image(24, 24, seed=1)
        params = {"threshold": 200.0}
        staged = run(graph, {"input": data}, params, options=STAGED)
        fused = run(
            graph, {"input": data}, params,
            options=ExecutionOptions(partition=partition),
        )
        np.testing.assert_allclose(fused["edges"], staged["edges"])


class TestNoOpOnPaperApps:
    @pytest.mark.parametrize("app_name", sorted(APPLICATIONS))
    def test_paper_apps_unchanged(self, app_name):
        # Algorithm 1 is already optimal on the six paper applications;
        # the post-pass must not disturb it.
        weighted = estimate_graph(
            APPLICATIONS[app_name].build(32, 32).build(), GTX680
        )
        base = mincut_fusion(weighted).partition
        improved = coalesced_fusion(weighted).partition
        assert {frozenset(b.vertices) for b in improved.blocks} == {
            frozenset(b.vertices) for b in base.blocks
        }


class TestDominance:
    def test_never_worse_than_input_partition(self):
        weighted = weighted_for(chain_pipeline(("p", "l", "p", "l")))
        singletons = Partition.singletons(weighted.graph)
        improved, _ = coalesce_partition(weighted, singletons)
        assert improved.benefit >= singletons.benefit

    def test_all_result_blocks_legal(self):
        weighted = weighted_for(build_canny(24, 24))
        improved, _ = coalesce_partition(
            weighted, Partition.singletons(weighted.graph)
        )
        for block in improved.blocks:
            assert weighted.is_legal_block(block.vertices)

    def test_from_singletons_reaches_mincut_quality(self):
        # Starting from no fusion at all, coalescing alone finds at
        # least as much benefit as Algorithm 1 on the paper apps.
        for app_name in ("Harris", "Unsharp", "Enhance"):
            weighted = estimate_graph(
                APPLICATIONS[app_name].build(32, 32).build(), GTX680
            )
            improved, _ = coalesce_partition(
                weighted, Partition.singletons(weighted.graph)
            )
            assert improved.benefit >= mincut_fusion(weighted).benefit - 1e-9
