"""Tests for the one-command artifact builder.

``docs/artifact/`` is the tracked copy of ``build_artifact(runs=500)``;
the module fixture builds exactly that once and every test reads it.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.eval.ablations import REPORTS
from repro.eval.artifact import build_artifact
from repro.eval.tables import APP_ORDER

TRACKED = Path(__file__).resolve().parents[2] / "docs" / "artifact"

#: Lowered C is tuned to the host's caches, so it is not tracked.
HOST_TUNED = re.compile(r"generated_\w+_fused\.c")


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifact")
    build_artifact(out, runs=500)
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
    "generated_harris_fused.cu",
    "generated_harris_fused.cl",
    "generated_harris_fused.c",
    "graph_harris.dot",
    *REPORTS,
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


def test_tracked_copy_equals_a_fresh_build(artifact_dir):
    """Regenerate with ``python -m repro artifact --out docs/artifact``
    (and drop the ``generated_*_fused.c``)."""
    fresh = {
        path.name
        for path in artifact_dir.iterdir()
        if not HOST_TUNED.fullmatch(path.name)
    }
    tracked = {path.name for path in TRACKED.iterdir()}
    if not importlib.util.find_spec("scipy"):
        tracked.discard("calibration.txt")
    assert tracked == fresh
    for name in sorted(tracked):
        assert (TRACKED / name).read_bytes() == (
            artifact_dir / name
        ).read_bytes(), name


def test_conformance_has_no_failures(artifact_dir):
    text = (artifact_dir / "conformance_report.txt").read_text()
    summary = re.search(r"summary: (\d+) pass, \d+ deviation, 0 fail", text)
    assert summary and int(summary.group(1)) >= 30


def test_conformance_quotes_the_table2_it_sits_beside(artifact_dir):
    """One matrix feeds every report: each "measured x.xxx" of the
    conformance report's Table II lines is the cell table2_geomean.txt
    prints."""
    rows = {}
    for line in (artifact_dir / "table2_geomean.txt").read_text().splitlines():
        cells = line.split()
        if len(cells) == 7 and "/" in cells[0]:
            rows[cells[0]] = cells[1:]
    quoted = re.findall(
        r"Table II (\S+) (\w+) — measured (\d+\.\d{3})",
        (artifact_dir / "conformance_report.txt").read_text(),
    )
    assert len(quoted) == 8
    for label, app, measured in quoted:
        assert rows[label][APP_ORDER.index(app)] == measured, (label, app)


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
