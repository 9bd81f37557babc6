"""Harness tests for the perf ledger.

Not collected by tier-1 (``testpaths = ["tests"]``); run with

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from measure import (  # noqa: E402
    ReferenceClock,
    geomean_of_medians,
    layer_self_ms,
    percentile,
    self_times,
)
from oracle import Checker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def flip_one_pixel(env: dict, inputs: dict) -> dict:
    """``env`` with one pixel of its last produced image off by one."""
    name = sorted(n for n in env if n not in inputs)[-1]
    damaged = np.array(env[name], copy=True)
    damaged.flat[0] += 1.0
    return {**env, name: damaged}


# -- arithmetic -------------------------------------------------------------


def test_geomean_of_medians_moves_with_one_class():
    base = {"a": [1.0, 2.0, 3.0], "b": [8.0, 8.0, 8.0]}
    assert geomean_of_medians(base) == pytest.approx(4.0)  # sqrt(2 * 8)
    faster = {"a": [0.5, 0.5, 0.5], "b": [8.0, 8.0, 8.0]}
    assert geomean_of_medians(faster) == pytest.approx(2.0)
    # A class that took no measurable time has no place in the product.
    assert geomean_of_medians({**base, "idle": [0.0, 0.0]}) == pytest.approx(4.0)
    assert geomean_of_medians({}) == 0.0


def test_pooled_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 90.0) == 90
    assert percentile(samples, 50.0) == 50
    assert percentile([5.0], 90.0) == 5.0
    assert percentile([3.0, 1.0, 2.0], 100.0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 90.0)


def test_span_self_time_subtracts_children():
    spans = [
        ["api.request", 0.0, 10.0, None, 7],
        ["fusion.partition", 1.0, 3.0, 0, 7],
        ["backend.native_exec.execute", 3.0, 9.0, 0, 7],
        ["inner", 4.0, 5.0, 2, 7],
    ]
    assert self_times(spans) == [2.0, 2.0, 5.0, 1.0]
    table = layer_self_ms(spans, {7: "Harris@8x8"})
    assert table["api.request"]["Harris@8x8"] == [2000.0]
    assert table["backend.native_exec.execute"]["Harris@8x8"] == [5000.0]


def test_reference_clock_states_intervals_at_nominal_speed():
    clock = ReferenceClock()
    # A host at nominal speed for one second, then slowing to a third.
    clock.marks = [(10.0, 1.0), (11.0, 1.0), (13.0, 3.0)]
    assert clock.interval == 2  # the interval the last mark opened
    assert clock.scales() == [1.0, 0.5]
    assert clock.nominal_seconds() == pytest.approx(1.0 + 2.0 * 0.5)
    assert clock.median_sample_ms() == 1.0
    tally = workloads.Tally(clock=clock)
    tally.untraced = {"a": [4.0, 4.0]}
    tally.intervals = {"a": [0, 1]}
    assert tally.nominal_untraced() == {"a": [4.0, 2.0]}


# -- seeds --------------------------------------------------------------------


def test_request_stream_follows_the_seed():
    class_stream = workloads.class_stream
    assert class_stream(3, 18, 40) == class_stream(3, 18, 40)
    assert class_stream(3, 18, 40) != class_stream(4, 18, 40)
    stream = class_stream(0, 18, 5)
    for block in range(5):  # the mix is exact: one request per class per block
        assert sorted(stream[block * 18:(block + 1) * 18]) == list(range(18))


# -- the oracle check -----------------------------------------------------------


def test_checker_catches_one_flipped_pixel():
    rng = np.random.default_rng(0)
    inputs = {"src": rng.uniform(0, 255, (6, 8))}
    reference = {"out": inputs["src"] * 2.0}
    checker = Checker(reference, None, ["out"])
    good = {"src": inputs["src"], "out": inputs["src"] * 2.0}
    assert checker.check(good, inputs) == (1, 0)
    assert checker.check(flip_one_pixel(good, inputs), inputs) == (1, 1)
    assert checker.check({"src": inputs["src"]}, inputs) == (1, 1)  # missing
    # The pinned tolerance admits an ulp, not a pixel.
    loose = Checker(reference, (1e-12, 1e-12), ["out"])
    nudged = {"out": np.nextafter(reference["out"], np.inf)}
    assert loose.check(nudged, inputs) == (1, 0)
    assert loose.check(flip_one_pixel(nudged, inputs), inputs) == (1, 1)


# -- the contract -----------------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert len(text.encode()) <= 64 * 1024
    doc = json.loads(text)
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert len(doc["workloads"]) == 4
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in doc[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    # Every run fits the driver's budget: outside its window a run costs
    # ~11 s on average (import, oracle, three warm-ups; serve_mixed 20 s).
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 15) <= 3420


# -- end to end -----------------------------------------------------------------


def test_smoke_runs_every_workload_and_reports_every_metric():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.monotonic()
    process = ledger("--smoke", "--trace", "0")
    assert time.monotonic() - started < 20.0
    assert process.returncode == 0, process.stdout + process.stderr
    for workload in contract["workloads"]:
        assert f"== {workload['name']}" in process.stdout
    assert process.stdout.count("mismatched=0") == 4
    for metric in contract["end_to_end"]:
        assert process.stdout.count(f" {metric['name']} ") == 4


def test_traced_smoke_prints_the_driver_line():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    process = ledger("--workload", "warm_restart", "--smoke", "--trace", "1")
    assert process.returncode == 0, process.stdout + process.stderr
    line = last_json(process.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in contract["per_layer"]}
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    assert metrics["mismatch_share"] == 0 and metrics["failed_share"] == 0
    assert metrics["backend.cpu_exec.cc_ms"] == 0  # the .so cache is kept
    assert metrics["analysis.native_check_ms"] > 0
    trace = json.loads((HERE / "out" / "trace_warm_restart.json").read_text())
    assert trace["fields"] == ["name", "start", "end", "parent", "request_id"]
    roots = [s for s in trace["spans"] if s[3] is None]
    assert roots and all(s[0] == "api.request" for s in roots)


def test_one_flipped_pixel_fails_the_command(monkeypatch, tmp_path, capsys):
    """The command with a worker whose every output has one pixel flipped
    before the check (the worker runs in this process so that the test,
    not the benchmark, holds the switch)."""
    real_check = Checker.check

    def check_damaged(self, env, inputs):
        return real_check(self, flip_one_pixel(env, inputs), inputs)

    def worker_in_process(workload, seed, seconds, trace, smoke=False):
        return workloads.run_worker(
            argparse.Namespace(
                workload=workload, seed=seed, seconds=seconds, trace=trace,
                smoke=smoke, t0=time.monotonic(), scratch=str(tmp_path),
                out=str(tmp_path / "result.json"),
            )
        )

    monkeypatch.setattr(Checker, "check", check_damaged)
    monkeypatch.setattr(run, "run_workload", worker_in_process)
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))  # restored afterwards
    code = run.main(["--workload", "warm_restart", "--smoke", "--trace", "1"])
    assert code != 0
    line = last_json(capsys.readouterr().out)
    assert line["correct"] is False
    assert line["metrics"]["mismatch_share"]["value"] > 0
