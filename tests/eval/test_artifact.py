"""Tests for the one-command artifact builder."""

import json

import pytest

from repro.eval.artifact import build_artifact


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifact")
    build_artifact(out, runs=10)
    return out


EXPECTED_FILES = [
    "table1_speedups.txt",
    "table2_geomean.txt",
    "figure6_exec_times.txt",
    "figure6_ascii.txt",
    "figure3_trace.txt",
    "figure4_border.txt",
    "results.json",
    "conformance_report.txt",
    "roofline.txt",
    "generated_harris_fused.cu",
    "generated_harris_fused.cl",
    "generated_harris_fused.c",
    "graph_harris.dot",
]


@pytest.mark.parametrize("name", EXPECTED_FILES)
def test_expected_files_written(artifact_dir, name):
    path = artifact_dir / name
    assert path.exists(), name
    assert path.stat().st_size > 0, name


def test_results_json_parses(artifact_dir):
    payload = json.loads((artifact_dir / "results.json").read_text())
    assert len(payload) == 54  # 6 apps x 3 gpus x 3 versions
    assert {entry["version"] for entry in payload} == {
        "baseline", "basic", "optimized"
    }


def test_figure3_contains_paper_weights(artifact_dir):
    text = (artifact_dir / "figure3_trace.txt").read_text()
    assert "w=328" in text and "w=256" in text


def test_conformance_has_no_failures(artifact_dir):
    text = (artifact_dir / "conformance_report.txt").read_text()
    assert "0 fail" in text


def test_generated_c_is_what_the_native_engine_compiles(artifact_dir):
    from repro.apps import APPLICATIONS
    from repro.backend.native_exec import lower_partition_source
    from repro.eval.runner import partition_for
    from repro.model.hardware import GTX680

    graph = APPLICATIONS["Harris"].pipeline().build()
    partition = partition_for(graph, GTX680, "optimized")
    text = (artifact_dir / "generated_harris_fused.c").read_text()
    assert text == lower_partition_source(graph, partition) + "\n"
    assert text.count("\nvoid repro_block_") == len(partition)


def test_sources_can_be_skipped(tmp_path):
    written = build_artifact(tmp_path / "lean", runs=5,
                             include_sources=False)
    names = {path.name for path in written}
    assert "table1_speedups.txt" in names
    assert not any(name.startswith("generated_") for name in names)


def test_dot_file_is_valid_dotish(artifact_dir):
    text = (artifact_dir / "graph_harris.dot").read_text()
    assert text.startswith("digraph pipeline {")
    assert "subgraph cluster_" in text
