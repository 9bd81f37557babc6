"""Tests for the DoG blob-detection extension application."""

import numpy as np
import pytest

from helpers import STAGED, random_image

from repro.api import ExecutionOptions, run
from repro.apps import testimages
from repro.apps.dog import build_pipeline
from repro.eval.runner import partition_for
from repro.dsl.kernel import ComputePattern
from repro.model.hardware import GTX680
from repro.model.resources import shared_memory_ratio

PARAMS = {"tau": 3.0}


@pytest.fixture(scope="module")
def graph():
    return build_pipeline(24, 24).build()


class TestStructure:
    def test_five_kernels_with_global_tail(self, graph):
        assert graph.kernel("peak").pattern is ComputePattern.GLOBAL
        assert graph.kernel("blur_narrow").window_size == 9
        assert graph.kernel("blur_wide").window_size == 25

    def test_fusible_block_sits_at_the_eq2_threshold(self, graph):
        ratio = shared_memory_ratio(
            graph, ["blur_narrow", "blur_wide", "difference", "threshold"]
        )
        # Asymmetric tiles: the wide blur's tile is larger, so the sum
        # over both is less than twice the max.
        assert 1.0 < ratio <= 2.0


class TestSemantics:
    def test_blob_detected(self, graph):
        data = testimages.gaussian_blob(24, 24, sigma=1.2)
        env = run(graph, {"input": data}, PARAMS, options=STAGED)
        # The DoG response peaks at the blob centre.
        assert abs(env["response"][12, 12]) > abs(env["response"][4, 4])
        assert float(env["peak"][0, 0]) > 0.0

    def test_flat_image_no_response(self, graph):
        env = run(
            graph, {"input": testimages.constant(24, 24)}, PARAMS,
            options=STAGED,
        )
        np.testing.assert_allclose(env["blobs"], 0.0, atol=1e-9)
        assert float(env["peak"][0, 0]) == pytest.approx(0.0, abs=1e-9)

    def test_threshold_gates_output(self, graph):
        data = testimages.gaussian_blob(24, 24, sigma=1.2)
        strict = run(graph, {"input": data}, {"tau": 1e6}, options=STAGED)
        np.testing.assert_allclose(strict["blobs"], 0.0)


class TestFusion:
    def test_mincut_fuses_everything_but_the_reduction(self, graph):
        partition = partition_for(graph, GTX680, "optimized")
        blocks = {frozenset(b.vertices) for b in partition.blocks}
        assert blocks == {
            frozenset({"blur_narrow", "blur_wide", "difference",
                       "threshold"}),
            frozenset({"peak"}),
        }

    def test_basic_fuses_only_the_point_tail(self, graph):
        partition = partition_for(graph, GTX680, "basic")
        blocks = {frozenset(b.vertices) for b in partition.blocks}
        assert frozenset({"difference", "threshold"}) in blocks
        assert frozenset({"blur_narrow"}) in blocks

    def test_fused_equals_staged_including_reduction(self, graph):
        data = random_image(24, 24, seed=1)
        staged = run(graph, {"input": data}, PARAMS, options=STAGED)
        partition = partition_for(graph, GTX680, "optimized")
        env = run(
            graph, {"input": data}, PARAMS,
            options=ExecutionOptions(partition=partition),
        )
        np.testing.assert_allclose(env["blobs"], staged["blobs"], rtol=1e-9)
        assert float(env["peak"][0, 0]) == pytest.approx(
            float(staged["peak"][0, 0])
        )
