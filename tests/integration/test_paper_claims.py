"""The paper's evaluation claims, checked against the simulated matrix.

These are *shape* assertions: who wins, where fusion is refused, which
application benefits most.  Absolute factors differ from the paper's
testbed (see EXPERIMENTS.md) but orderings and crossovers must hold.
"""

import pytest

from repro.eval.runner import run_matrix
from repro.eval.tables import GPU_ORDER, table1, table2


@pytest.fixture(scope="module")
def results():
    # Full paper geometry; the simulator is analytic, so this is cheap.
    return run_matrix(runs=100)


@pytest.fixture(scope="module")
def t2(results):
    return table2(results)


class TestTable2Shape:
    def test_unsharp_is_the_headline_win(self, t2):
        optimized = t2["optimized/baseline"]
        assert optimized["Unsharp"] == max(optimized.values())
        assert optimized["Unsharp"] > 2.0
        # The published ordering of the other rows holds too.
        assert optimized["Unsharp"] > optimized["Enhance"]
        assert optimized["Enhance"] > optimized["Harris"] > optimized["Night"]

    def test_night_gains_nothing(self, t2):
        # Compute-bound: at most a couple of percent (paper: <= 1.02).
        assert t2["optimized/baseline"]["Night"] == pytest.approx(1.0, abs=0.08)
        assert t2["basic/baseline"]["Night"] == pytest.approx(1.0, abs=0.08)

    def test_basic_fails_on_sobel_and_unsharp(self, t2):
        # Both are rejected by the pairwise baseline (paper: 1.000/1.002).
        assert t2["basic/baseline"]["Sobel"] == pytest.approx(1.0, abs=0.02)
        assert t2["basic/baseline"]["Unsharp"] == pytest.approx(1.0, abs=0.02)

    def test_optimized_beats_basic_exactly_where_the_paper_says(self, t2):
        gap = t2["optimized/basic"]
        assert gap["Sobel"] > 1.1
        assert gap["Unsharp"] > 2.0
        assert gap["Night"] == pytest.approx(1.0, abs=0.05)

    def test_harris_and_shitomasi_gain_modestly(self, t2):
        for app in ("Harris", "ShiTomasi"):
            value = t2["optimized/baseline"][app]
            assert 1.02 < value < 1.5

    def test_harris_shitomasi_agree(self, t2):
        # Structurally identical pipelines -> near-identical speedups
        # (paper: 1.208 vs 1.211).
        a = t2["optimized/baseline"]["Harris"]
        b = t2["optimized/baseline"]["ShiTomasi"]
        assert a == pytest.approx(b, rel=0.05)

    def test_enhancement_strong_for_both_engines(self, t2):
        assert t2["optimized/baseline"]["Enhance"] > 1.3
        assert t2["basic/baseline"]["Enhance"] > 1.3

    def test_optimized_never_loses(self, t2):
        for app, value in t2["optimized/baseline"].items():
            assert value > 0.97, app
        for app, value in t2["optimized/basic"].items():
            assert value > 0.97, app


class TestTable1Shape:
    def test_shape_holds_on_every_gpu(self, results):
        t1 = table1(results)
        for gpu in GPU_ORDER:
            row = t1["optimized/baseline"][gpu]
            assert row["Unsharp"] == max(row.values()), gpu
            assert row["Night"] == pytest.approx(1.0, abs=0.08), gpu
            assert row["Unsharp"] > 2.0, gpu  # Fig. 6: under half the time
            basic_row = t1["basic/baseline"][gpu]
            assert basic_row["Sobel"] == pytest.approx(1.0, abs=0.03), gpu
            assert basic_row["Unsharp"] == pytest.approx(1.0, abs=0.03), gpu
            # The optimized engine's edge over basic concentrates on the
            # two applications the prior work rejects.
            gap = t1["optimized/basic"][gpu]
            assert gap["Sobel"] > 1.1 and gap["Unsharp"] > 1.5, gpu
            assert gap["Night"] == pytest.approx(1.0, abs=0.05), gpu
            for engine_row in (row, basic_row):
                assert 1.0 < engine_row["Harris"] < 1.6, gpu
                assert 1.0 < engine_row["ShiTomasi"] < 1.6, gpu
                assert engine_row["Enhance"] > 1.3, gpu


class TestFigure6Shape:
    def test_gtx745_is_the_slowest_device(self, results):
        for app in ("Harris", "Sobel", "Unsharp"):
            t745 = results[(app, "GTX745", "baseline")].median_ms
            t680 = results[(app, "GTX680", "baseline")].median_ms
            tk20 = results[(app, "K20c", "baseline")].median_ms
            assert t745 > t680 and t745 > tk20, app

    def test_night_is_the_longest_running_app_on_fast_gpus(self, results):
        # Fig. 6: Night dominates the runtime charts on GTX680/K20c
        # despite the smaller image — it is compute-bound.
        night = results[("Night", "GTX680", "baseline")].median_ms
        sobel = results[("Sobel", "GTX680", "baseline")].median_ms
        assert night > sobel

    def test_launch_counts_match_partitions(self, results):
        assert results[("Harris", "GTX680", "baseline")].launches == 9
        assert results[("Harris", "GTX680", "optimized")].launches == 6
        assert results[("Unsharp", "GTX680", "optimized")].launches == 1
        assert results[("Night", "GTX680", "optimized")].launches == 2
        for (app, gpu, version), result in results.items():
            if version == "optimized":
                unfused = results[(app, gpu, "baseline")]
                assert 1 <= result.launches <= unfused.launches, (app, gpu)
