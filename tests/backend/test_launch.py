"""Unit tests for simulated pipeline launches and run distributions."""

import numpy as np
import pytest

from helpers import chain_pipeline

from repro.backend.launch import simulate_kernels, simulate_partition, simulate_runs
from repro.fusion.mincut_fusion import mincut_fusion
from repro.graph.partition import Partition
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680


@pytest.fixture
def graph():
    return chain_pipeline(("p", "l", "p"), width=256, height=256).build()


class TestSimulatePartition:
    def test_baseline_one_launch_per_kernel(self, graph):
        timing = simulate_partition(graph, Partition.singletons(graph), GTX680)
        assert timing.launches == 3
        assert timing.total_ms > 0
        assert timing.launch_overhead_ms == pytest.approx(
            3 * GTX680.launch_overhead_us * 1e-3
        )

    def test_fused_fewer_launches_and_faster(self, graph):
        weighted = estimate_graph(graph, GTX680)
        partition = mincut_fusion(weighted).partition
        baseline = simulate_partition(graph, Partition.singletons(graph), GTX680)
        fused = simulate_partition(graph, partition, GTX680)
        assert fused.launches < baseline.launches
        assert fused.total_ms < baseline.total_ms

    def test_total_is_kernel_time_plus_overhead(self, graph):
        timing = simulate_partition(graph, Partition.singletons(graph), GTX680)
        assert timing.total_ms == pytest.approx(
            timing.kernel_time_ms + timing.launch_overhead_ms
        )
        assert timing.kernel_time_ms == pytest.approx(
            sum(kernel.time_ms for kernel in timing.kernels)
        )

    def test_describe_lists_kernels(self, graph):
        timing = simulate_partition(graph, Partition.singletons(graph), GTX680)
        text = timing.describe()
        assert "k0" in text and "k1" in text and "k2" in text

    def test_simulate_kernels_order_preserved(self, graph):
        timing = simulate_kernels(list(graph.kernels()), GTX680)
        assert [k.name for k in timing.kernels] == ["k0", "k1", "k2"]


class TestRunDistributions:
    def test_seeded_reproducibility(self, graph):
        timing = simulate_partition(graph, Partition.singletons(graph), GTX680)
        runs_a = simulate_runs(timing, runs=100, seed=7)
        runs_b = simulate_runs(timing, runs=100, seed=7)
        np.testing.assert_array_equal(runs_a, runs_b)

    def test_different_seeds_differ(self, graph):
        timing = simulate_partition(graph, Partition.singletons(graph), GTX680)
        assert not np.array_equal(
            simulate_runs(timing, runs=100, seed=1),
            simulate_runs(timing, runs=100, seed=2),
        )

    def test_median_close_to_estimate(self, graph):
        timing = simulate_partition(graph, Partition.singletons(graph), GTX680)
        runs = simulate_runs(timing, runs=500, seed=0)
        assert np.median(runs) == pytest.approx(timing.total_ms, rel=0.02)

    def test_spikes_are_positive_outliers(self, graph):
        # Fig. 6's long upper whiskers: max deviates more than min.
        timing = simulate_partition(graph, Partition.singletons(graph), GTX680)
        runs = simulate_runs(timing, runs=500, seed=0)
        median = np.median(runs)
        assert runs.max() - median > median - runs.min()

    def test_run_count(self, graph):
        timing = simulate_partition(graph, Partition.singletons(graph), GTX680)
        assert simulate_runs(timing, runs=42).shape == (42,)

    def test_zero_runs_rejected(self, graph):
        timing = simulate_partition(graph, Partition.singletons(graph), GTX680)
        with pytest.raises(ValueError):
            simulate_runs(timing, runs=0)
