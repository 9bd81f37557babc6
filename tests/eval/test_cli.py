"""Tests for the command-line interface."""

import json
import zlib

import numpy as np
import pytest

from repro.api import ExecutionOptions, FusionSettings, run
from repro.apps import APPLICATIONS, request_inputs
from repro.cli import build_parser, main
from repro.model.benefit import BenefitConfig
from repro.serve.registry import DEFAULT_APP_PARAMS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fuse_defaults(self):
        args = build_parser().parse_args(["fuse", "Harris"])
        assert args.engine == "mincut"
        assert args.gpu == "GTX680"
        assert args.cmshared == 2.0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for app in ("Harris", "Sobel", "Unsharp", "ShiTomasi",
                    "Enhance", "Night"):
            assert app in out
        assert "1920x1200x3" in out  # Night geometry

    def test_list_shows_extensions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Canny" in out and "DoG" in out
        assert "extension" in out and "paper" in out

    def test_fuse_extension_app_with_coalesced_engine(self, capsys):
        assert main(["fuse", "Canny", "--engine", "coalesced"]) == 0
        out = capsys.readouterr().out
        assert "{mag, orient, nms, thresh}" in out

    def test_artifact_command(self, capsys, tmp_path):
        out_dir = tmp_path / "artifact"
        assert main(["artifact", "--out", str(out_dir), "--runs", "5"]) == 0
        assert (out_dir / "table2_geomean.txt").exists()
        assert "wrote" in capsys.readouterr().out

    def test_fuse_with_trace(self, capsys):
        assert main(["fuse", "Harris", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "w=328" in out
        assert "min-cut" in out
        assert "{sx, gx}" in out
        assert "benefit beta = 912" in out

    def test_fuse_engine_selection(self, capsys):
        assert main(["fuse", "Unsharp", "--engine", "basic"]) == 0
        out = capsys.readouterr().out
        assert out.count("[single]") == 4  # basic fuses nothing

    def test_fuse_threshold_flag(self, capsys):
        assert main(["fuse", "Harris", "--cmshared", "8"]) == 0
        out = capsys.readouterr().out
        assert "[fused] {dx, dy, sx, sy, sxy, gx, gy, gxy, hc}" in out

    def test_fuse_unknown_app(self):
        with pytest.raises(SystemExit, match="unknown application"):
            main(["fuse", "Nope"])

    def test_serve_reports_the_fusion_it_was_given(self, capsys):
        assert main([
            "serve", "--apps", "Sobel", "--requests", "2", "--version",
            "basic", "--gpu", "K20c", "--cmshared", "8", "--json",
        ]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["fusion"] == {
            "version": "basic",
            "gpu_name": "K20c",
            "benefit": vars(BenefitConfig(c_mshared=8.0)),
            "naive_borders": False,
        }
        assert snapshot["counters"]["requests_completed"] == 2

    @pytest.mark.parametrize("flags, fusion", [
        (["--naive-borders"], FusionSettings(naive_borders=True)),
        (["--version", "baseline"], FusionSettings(version="baseline")),
    ], ids=["naive-borders", "baseline"])
    def test_run_fusion_flags_are_the_api_call(self, capsys, flags, fusion):
        assert main(["run", "Sobel", *flags, "--json"]) == 0
        digests = json.loads(capsys.readouterr().out)
        spec = APPLICATIONS["Sobel"]
        env = run(
            spec.build(96, 64).build(),
            request_inputs(spec, 96, 64, seed=0),
            DEFAULT_APP_PARAMS.get("Sobel"),
            options=ExecutionOptions(fusion=fusion),
        )
        assert {name: d["crc32"] for name, d in digests.items()} == {
            name: zlib.crc32(np.ascontiguousarray(array).tobytes())
            for name, array in env.items()
        }

    def test_fuse_unknown_gpu(self):
        with pytest.raises(SystemExit, match="unknown GPU"):
            main(["fuse", "Harris", "--gpu", "H100"])

    def test_codegen(self, capsys):
        assert main(["codegen", "Sobel"]) == 0
        out = capsys.readouterr().out
        assert "__global__ void fused_dx_dy_mag" in out

    def test_codegen_none_engine(self, capsys):
        assert main(["codegen", "Sobel", "--engine", "none"]) == 0
        out = capsys.readouterr().out
        assert out.count("__global__ void") == 3

    def test_codegen_c_target(self, capsys):
        # The C the native engine runs: one function per fused block.
        assert main(["codegen", "Sobel", "--target", "c"]) == 0
        out = capsys.readouterr().out
        assert "void repro_block_0_magnitude(double *restrict out" in out
        assert "#pragma omp parallel for" in out
        assert "runs on the tape engine" not in out

    def test_codegen_c_names_blocks_left_to_the_tape(self, capsys):
        assert main(
            ["codegen", "DoG", "--target", "c", "--engine", "none"]
        ) == 0
        out = capsys.readouterr().out
        assert "void repro_block_3_blobs(" in out
        assert (
            "/* block 4 (peak) runs on the tape engine: global operator"
            in out
        )

    def test_dot(self, capsys):
        assert main(["dot", "Harris"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph pipeline {")
        assert 'label="328"' in out
        assert "subgraph cluster_" in out

    def test_dot_without_partition(self, capsys):
        assert main(["dot", "Harris", "--engine", "none"]) == 0
        assert "subgraph" not in capsys.readouterr().out

    def test_codegen_opencl_target(self, capsys):
        assert main(["codegen", "Sobel", "--target", "opencl"]) == 0
        out = capsys.readouterr().out
        assert "__kernel void fused_dx_dy_mag(" in out
        assert "get_global_id(0)" in out

    def test_roofline(self, capsys):
        assert main(["roofline", "Night"]) == 0
        out = capsys.readouterr().out
        assert "compute-bound" in out
        assert "balance point" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "Unsharp"]) == 0
        out = capsys.readouterr().out
        for gpu in ("GTX745", "GTX680", "K20c"):
            assert gpu in out
        assert "x" in out  # speedups

    def test_evaluate_small(self, capsys):
        assert main(["evaluate", "--runs", "10"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out and "TABLE II" in out
        assert "(paper)" in out

    def test_evaluate_no_paper(self, capsys):
        assert main(["evaluate", "--runs", "10", "--no-paper"]) == 0
        assert "(paper)" not in capsys.readouterr().out

    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "w=328" in out and "w=256" in out

    def test_figure4(self, capsys):
        assert main(["figure4"]) == 0
        out = capsys.readouterr().out
        assert "992" in out and "763" in out

    def test_tiling(self, capsys):
        assert main(["tiling"]) == 0
        out = capsys.readouterr().out
        assert "host caches:" in out and "L1d=" in out
        # Sobel's single fused block tiles; Harris's single-kernel
        # gradient blocks report why they are row bands.
        assert "tile " in out and "scratch " in out
        assert (
            "row band, nothing materialized: single-kernel blocks have no "
            "intermediates" in out
        )
        assert " kernel objects (" in out and " plan records (" in out

    def test_tiling_json(self, capsys):
        import json

        assert main(["tiling", "Sobel", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "L1d=" in report["caches"]
        (entry,) = report["apps"]["Sobel"]
        assert entry["choice"]["tile"][0] >= 1
        assert entry["choice"]["scratch_bytes"] > 0
        assert report["compile_cache"]["records"] >= 0
