"""Tests for the block-shape tuner."""

import pytest

from helpers import image, local_kernel, point_kernel

from repro.apps.unsharp import build_pipeline as build_unsharp
from repro.backend.memsim import estimate_kernel_time
from repro.eval.runner import partition_for
from repro.graph.partition import Partition
from repro.model.blocktune import (
    DEFAULT_CANDIDATES,
    tune_kernel,
    tune_partition,
    tuned_total_ms,
)


class TestTuneKernel:
    def test_never_worse_than_default(self, any_gpu):
        kernel = local_kernel(
            "blur", image("a", 512, 512), image("b", 512, 512)
        )
        result = tune_kernel(kernel, any_gpu)
        assert result.best_ms <= result.default_ms + 1e-12
        assert result.gain >= 1.0

    def test_best_shape_is_a_candidate_or_default(self, gpu):
        kernel = point_kernel("k", image("a", 256, 256), image("b", 256, 256))
        result = tune_kernel(kernel, gpu)
        assert (
            result.best_shape in DEFAULT_CANDIDATES
            or result.best_shape == kernel.block_shape
        )

    def test_oversized_candidates_skipped(self, gpu):
        kernel = point_kernel("k", image("a", 64, 64), image("b", 64, 64))
        result = tune_kernel(
            kernel, gpu, candidates=[(64, 64)]  # 4096 threads: illegal
        )
        assert result.best_shape == kernel.block_shape

    def test_kernel_object_not_mutated(self, gpu):
        kernel = local_kernel(
            "blur", image("a", 256, 256), image("b", 256, 256)
        )
        original_shape = kernel.block_shape
        tune_kernel(kernel, gpu)
        assert kernel.block_shape == original_shape

    def test_best_ms_matches_reanalysis(self, gpu):
        kernel = local_kernel(
            "blur", image("a", 256, 256), image("b", 256, 256)
        )
        result = tune_kernel(kernel, gpu)
        clone = kernel.with_header(block_shape=result.best_shape)
        assert estimate_kernel_time(clone, gpu) == pytest.approx(
            result.best_ms
        )

    def test_describe(self, gpu):
        kernel = point_kernel("k", image("a", 64, 64), image("b", 64, 64))
        assert "best" in tune_kernel(kernel, gpu).describe()


class TestTunePartition:
    def test_tunes_every_launch(self, gpu):
        graph = build_unsharp(256, 256).build()
        partition = Partition.singletons(graph)
        results = tune_partition(graph, partition, gpu)
        assert [r.kernel for r in results] == list(graph.kernel_names)

    def test_tuned_total_no_worse_than_defaults(self, gpu):
        graph = build_unsharp(256, 256).build()
        partition = partition_for(graph, gpu, "optimized")
        results = tune_partition(graph, partition, gpu)
        default_total = sum(r.default_ms for r in results)
        assert tuned_total_ms(results) <= default_total + 1e-12
