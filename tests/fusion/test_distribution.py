"""Tests for the kernel distribution pass."""

import numpy as np
import pytest

from helpers import STAGED, chain_pipeline, random_image

from repro.api import ExecutionOptions, run
from repro.apps.harris import build_pipeline as build_harris
from repro.fusion.distribution import (
    distribute,
    distribute_block,
    legality_predicate,
    occupancy_predicate,
)
from repro.fusion.mincut_fusion import mincut_fusion
from repro.graph.partition import Partition, PartitionBlock
from repro.model.benefit import BenefitConfig, estimate_graph
from repro.model.hardware import GTX680


def overfused_harris():
    """Harris fused under a relaxed threshold: one mega-block appears."""
    graph = build_harris(16, 16).build()
    relaxed = estimate_graph(graph, GTX680, BenefitConfig(c_mshared=8.0))
    partition = mincut_fusion(relaxed).partition
    assert partition.fused_block_count() == 1
    assert max(len(b) for b in partition.blocks) == 9
    strict = estimate_graph(graph, GTX680, BenefitConfig(c_mshared=2.0))
    return graph, strict, partition


class TestDistribute:
    def test_repairs_overfused_harris_to_paper_partition(self):
        graph, strict, partition = overfused_harris()
        repaired = distribute(strict, partition)
        blocks = {frozenset(b.vertices) for b in repaired.blocks}
        assert blocks == {
            frozenset({"dx"}), frozenset({"dy"}), frozenset({"hc"}),
            frozenset({"sx", "gx"}), frozenset({"sy", "gy"}),
            frozenset({"sxy", "gxy"}),
        }

    def test_result_is_valid_partition(self):
        graph, strict, partition = overfused_harris()
        repaired = distribute(strict, partition)
        covered = set()
        for block in repaired.blocks:
            covered |= set(block.vertices)
        assert covered == set(graph.kernel_names)

    def test_acceptable_partition_unchanged(self):
        graph = chain_pipeline(("p", "p", "p")).build()
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        repaired = distribute(weighted, partition)
        assert {frozenset(b.vertices) for b in repaired.blocks} == {
            frozenset(b.vertices) for b in partition.blocks
        }

    def test_distribution_loses_minimal_benefit(self):
        graph, strict, partition = overfused_harris()
        repaired = distribute(strict, partition)
        # The repaired partition keeps the three profitable pairs: beta
        # is the paper's 912 (only epsilon edges were cut).
        assert repaired.benefit == pytest.approx(912.0, abs=0.1)

    def test_semantics_preserved_after_distribution(self):
        graph, strict, partition = overfused_harris()
        repaired = distribute(strict, partition)
        data = random_image(16, 16, seed=5)
        staged = run(graph, {"input": data}, options=STAGED)
        env = run(
            graph, {"input": data},
            options=ExecutionOptions(partition=repaired),
        )
        np.testing.assert_allclose(
            env["corners"], staged["corners"], rtol=1e-10
        )


class TestPredicates:
    def test_legality_predicate(self):
        graph = build_harris(16, 16).build()
        weighted = estimate_graph(graph, GTX680)
        accept = legality_predicate(weighted)
        assert accept(frozenset({"sx", "gx"}))
        assert not accept(frozenset(graph.kernel_names))
        assert accept(frozenset({"dx"}))  # singletons always pass

    def test_occupancy_predicate_rejects_fat_blocks(self):
        graph = build_harris(16, 16).build()
        weighted = estimate_graph(graph, GTX680)
        # An absurd occupancy floor rejects any shared-memory block.
        accept = occupancy_predicate(weighted, min_occupancy=1.01)
        assert not accept(frozenset({"sx", "gx"}))

    def test_occupancy_predicate_accepts_lean_blocks(self):
        graph = build_harris(16, 16).build()
        weighted = estimate_graph(graph, GTX680)
        accept = occupancy_predicate(weighted, min_occupancy=0.25)
        assert accept(frozenset({"sx", "gx"}))


class TestDistributeBlock:
    def test_splits_to_singletons_under_impossible_predicate(self):
        graph = chain_pipeline(("p", "p", "p")).build()
        weighted = estimate_graph(graph, GTX680)
        block = PartitionBlock(graph, set(graph.kernel_names))
        pieces = distribute_block(weighted, block, lambda v: False)
        assert all(len(p) == 1 for p in pieces)
        assert len(pieces) == 3

    def test_keeps_block_under_permissive_predicate(self):
        graph = chain_pipeline(("p", "p")).build()
        weighted = estimate_graph(graph, GTX680)
        block = PartitionBlock(graph, set(graph.kernel_names))
        pieces = distribute_block(weighted, block, lambda v: True)
        assert len(pieces) == 1
