"""Tests for the sweep utilities."""

import pytest

from repro.apps import APPLICATIONS
from repro.apps.unsharp import build_pipeline as build_unsharp
from repro.eval.ablations import (
    EPSILONS,
    PRODUCER_OPS,
    SIZES,
    T_GLOBALS,
    THRESHOLDS,
)
from repro.eval.sweeps import (
    SweepPoint,
    epsilon_sweep,
    producer_cost_sweep,
    render_size_sweep,
    size_sweep,
    t_global_sweep,
    threshold_sweep,
)
from repro.model.hardware import GTX680


class TestSizeSweep:
    def test_points_cover_sizes(self):
        points = size_sweep(build_unsharp, GTX680, [64, 256, 1024])
        assert [p.value for p in points] == [64.0, 256.0, 1024.0]
        assert all(p.baseline_ms > 0 and p.optimized_ms > 0 for p in points)

    def test_speedup_converges_to_the_traffic_ratio(self):
        # Two regimes: at tiny images, the speedup reflects the launch
        # count ratio (Unsharp: 4 launches -> 1); at large images it
        # converges to the traffic-elimination ratio.  For Unsharp the
        # launch ratio (4.0) exceeds the traffic ratio (~3.4), so the
        # curve decreases monotonically toward its asymptote.
        points = size_sweep(
            build_unsharp, GTX680, [64, 256, 1024, 2048, 4096]
        )
        speedups = [p.speedup for p in points]
        assert speedups == sorted(speedups, reverse=True)
        assert speedups[0] == pytest.approx(4.0, abs=0.3)  # launch regime
        # Convergence: the last two sizes agree closely.
        assert speedups[-1] == pytest.approx(speedups[-2], rel=0.02)

    def test_fusion_never_hurts_in_the_sweep(self):
        points = size_sweep(build_unsharp, GTX680, [32, 128, 512])
        assert all(p.speedup >= 0.99 for p in points)

    def test_artifact_curves_of_the_three_characteristic_apps(self):
        # What ablation_size_sweep.txt records: Unsharp decays from the
        # launch ratio (4.0) to a traffic ratio above 3; Harris has the
        # same shape, smaller; Night keeps only the launch saving (3 -> 2)
        # and flattens to ~1 at the paper's geometry (compute-bound).
        unsharp, harris, night = (
            [p.speedup for p in size_sweep(
                APPLICATIONS[name].build, GTX680, SIZES
            )]
            for name in ("Unsharp", "Harris", "Night")
        )
        assert unsharp[-1] > 3.0
        assert max(harris) < max(unsharp)
        assert all(speedup >= 0.99 for speedup in harris)
        assert night == sorted(night, reverse=True)
        assert night[-1] == pytest.approx(1.0, abs=0.08)

    def test_render(self):
        points = [SweepPoint(64, 1.0, 0.5), SweepPoint(128, 4.0, 1.0)]
        text = render_size_sweep("Unsharp", "GTX680", points)
        assert "SIZE SWEEP" in text
        assert "2.00x" in text and "4.00x" in text


class TestThresholdSweep:
    def test_harris_threshold_behaviour(self):
        result = threshold_sweep(APPLICATIONS["Harris"], GTX680, THRESHOLDS)
        assert result[2.0][0] == 6  # the paper's partition
        # cMshared = 1 forbids combining shared-memory kernels, but each
        # {s*, g*} pair holds one local kernel (ratio 1.0): still legal.
        assert result[1.0][0] == 6
        assert result[5.0][0] == 1  # mega-block once Eq. 2 is relaxed
        assert result[5.0][1] >= result[2.0][1]  # ...with a higher beta
        for launches, _beta, ms in result.values():
            assert launches >= 1 and ms > 0

    def test_sobel_threshold_behaviour(self):
        # Sobel's fused block has ratio exactly 2.0: legal at the
        # paper's threshold, illegal at 1.0.
        result = threshold_sweep(APPLICATIONS["Sobel"], GTX680, THRESHOLDS)
        assert result[2.0][0] == 1
        assert result[1.0][0] == 3


class TestTradeoffSweeps:
    """Eqs. (8)/(11) from both sides, and Eq. (12)'s epsilon."""

    def test_night_fuses_once_memory_is_expensive_enough(self):
        fused = t_global_sweep(
            APPLICATIONS["Night"], GTX680, T_GLOBALS,
            ("atrous0", "atrous1", "scoto"),
        )
        assert fused[400] is False  # the paper's regime (Section V-C)
        assert fused[4_000_000] is True
        decisions = list(fused.values())
        assert decisions == sorted(decisions)  # monotone in t_g

    def test_producer_cost_flips_the_decision(self):
        # phi = (2 * ops * c_ALU) * 9 taps against delta = 400: the flip
        # sits where 72 * ops > 400, between 5 and 6 multiply-adds.
        estimates = producer_cost_sweep(GTX680, PRODUCER_OPS)
        assert {ops: est.profitable for ops, est in estimates.items()} == {
            0: True, 2: True, 5: True, 6: False, 10: False, 40: False
        }

    def test_partition_is_invariant_under_epsilon(self):
        # "Arbitrarily small": nine orders of magnitude change nothing,
        # and even an epsilon comparable to real weights does not —
        # cuts through three 256+ edges never win on Harris.
        rows = epsilon_sweep((*EPSILONS, 100.0))
        assert len(set(rows.values())) == 1
