"""Shared fixtures of the parked report emitters.

The repository's benchmark is ``benchmarks/ledger/`` (see
``BENCHMARK.json``).  The three ``test_bench_*.py`` files beside this
one measure what no ledger workload does yet; they *emit* a report into
the gitignored ``benchmarks/output/`` and assert correctness only —
no wall-clock floor (EXPERIMENTS.md, "One harness, one artifact",
records how far their readings spread on one host).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))
sys.setrecursionlimit(20000)


@pytest.fixture(scope="session")
def output_dir() -> Path:
    path = Path(__file__).parent / "output"
    path.mkdir(exist_ok=True)
    return path


def write_bench_json(output_dir: Path, name: str, report: dict) -> None:
    """Write a ``BENCH_*.json`` report with the host cache hierarchy
    stamped in, so a reading can be read against its machine."""
    from repro.model.hardware import detect_cpu_caches

    report = {"machine": detect_cpu_caches().describe(), **report}
    (output_dir / name).write_text(json.dumps(report, indent=2) + "\n")
