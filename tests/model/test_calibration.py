"""Tests for simulator calibration."""

import pytest

from repro.eval.tables import GPU_ORDER, PAPER_TABLE1
from repro.model.calibration import (
    KNOB_BOUNDS,
    CalibrationResult,
    calibrate,
    simulated_table1,
    table1_loss,
)


class TestSimulatedTable:
    def test_covers_all_cells(self):
        table = simulated_table1()
        for label in ("optimized/baseline", "basic/baseline"):
            for gpu in GPU_ORDER:
                assert set(table[label][gpu]) == set(
                    PAPER_TABLE1[label][gpu]
                )

    def test_all_speedups_positive(self):
        table = simulated_table1()
        for label, per_gpu in table.items():
            for per_app in per_gpu.values():
                assert all(v > 0 for v in per_app.values())

    def test_knobs_change_the_table(self):
        default = simulated_table1()
        tweaked = simulated_table1({"launch_overhead_us": 50.0})
        assert default != tweaked


class TestLoss:
    def test_nonnegative(self):
        assert table1_loss(simulated_table1()) >= 0.0

    def test_zero_on_perfect_match(self):
        # Feeding the paper's own table gives zero loss.
        paper_subset = {
            label: PAPER_TABLE1[label]
            for label in ("optimized/baseline", "basic/baseline")
        }
        assert table1_loss(paper_subset) == pytest.approx(0.0)

    def test_worse_tables_have_higher_loss(self):
        base = simulated_table1()
        bad = {
            label: {
                gpu: {app: value * 5.0 for app, value in per_app.items()}
                for gpu, per_app in per_gpu.items()
            }
            for label, per_gpu in base.items()
        }
        assert table1_loss(bad) > table1_loss(base)


class TestCalibrate:
    def test_improves_or_keeps_the_fit(self):
        result = calibrate(
            knob_names=("launch_overhead_us", "overlap"),
            max_evaluations=40,
        )
        assert result.loss_after <= result.loss_before + 1e-12
        assert result.evaluations <= 45

    def test_default_knobs_fit_table1_noticeably_better(self):
        # The fit calibration.txt records (four knobs, 150 evaluations).
        result = calibrate(max_evaluations=150)
        assert result.loss_after <= result.loss_before
        assert result.improvement > 0.15

    def test_knobs_stay_in_bounds(self):
        result = calibrate(
            knob_names=("dram_efficiency",), max_evaluations=25
        )
        lo, hi = KNOB_BOUNDS["dram_efficiency"]
        assert lo <= result.knobs["dram_efficiency"] <= hi

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown calibration knob"):
            calibrate(knob_names=("warp_size",))

    def test_describe(self):
        result = CalibrationResult(
            knobs={"overlap": 0.5}, loss_before=0.1, loss_after=0.05,
            evaluations=10,
        )
        assert "50% better" in result.describe()
        assert result.improvement == pytest.approx(0.5)
