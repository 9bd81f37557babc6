"""Sharded serving scaling: 1/2/4 worker processes, bit-identical.

Runs the six paper applications through :class:`repro.serve.sharding.
ShardedRuntime` fleets of 1, 2, and 4 worker processes and records the
scaling curve, plus one resilience spot check: an injected
``worker.kill`` mid-stream must lose **zero** requests (the dispatcher
retries on a sibling shard and respawns the worker).

Emits ``BENCH_sharded.json`` into ``benchmarks/output/``.

Bit-identity and zero-failed-requests are asserted unconditionally.
The throughput floor — >= 3x at 4 processes over the single-process
runtime — only holds when the host actually has cores to scale onto,
so it is gated on
``len(os.sched_getaffinity(0)) >= 4``; the JSON records the CPU count
either way so the curve is interpretable downstream.
"""

import os
import time

from conftest import write_bench_json

from repro.serve import ShardedRuntime, fault_injection
from repro.serve.bench import run_serving_benchmark, request_inputs

REQUESTS_PER_APP = 12
WIDTH, HEIGHT = 64, 48
PROCESS_COUNTS = (1, 2, 4)

CPUS = len(os.sched_getaffinity(0))


def _scaling_curve():
    curve = {}
    for processes in PROCESS_COUNTS:
        report = run_serving_benchmark(
            requests_per_app=REQUESTS_PER_APP,
            width=WIDTH,
            height=HEIGHT,
            client_threads=8,
            scheduler_workers=2,
            processes=processes,
        )
        assert report["bit_identical"], (
            f"{report['mismatches']} sharded results diverged at "
            f"{processes} processes"
        )
        curve[str(processes)] = {
            "throughput_rps": report["serving"]["throughput_rps"],
            "seconds": report["serving"]["seconds"],
            "hit_rate": report["serving"]["hit_rate"],
            "latency_ms": report["serving"]["latency_ms"],
            "speedup_vs_baseline": report["speedup"],
            "bit_identical": report["bit_identical"],
        }
    return curve


def _kill_recovery():
    from repro.apps import APPLICATIONS

    with ShardedRuntime(["Sobel", "Harris"], processes=2) as runtime:
        workload = [
            (name, request_inputs(APPLICATIONS[name], WIDTH, HEIGHT, seed=s))
            for s in range(12)
            for name in ("Sobel", "Harris")
        ]
        runtime.execute(*workload[0])  # warm so the kill hits hot paths
        failures = 0
        with fault_injection("worker.kill", "error", times=1):
            for name, inputs in workload:
                try:
                    runtime.execute(name, inputs)
                except Exception:
                    failures += 1
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            snapshot = runtime.metrics_snapshot()
            if snapshot["counters"].get("workers_respawned"):
                break
            time.sleep(0.25)
        counters = snapshot["counters"]
    return {
        "requests": len(workload),
        "failed": failures,
        "worker_deaths": counters.get("worker_deaths", 0),
        "workers_respawned": counters.get("workers_respawned", 0),
        "sibling_retries": counters.get("requests_retried_on_sibling", 0),
    }


def test_bench_sharded(output_dir):
    curve = _scaling_curve()
    recovery = _kill_recovery()

    report = {
        "benchmark": "sharded-serving",
        "cpus": CPUS,
        "config": {
            "apps": 6,
            "requests_per_app": REQUESTS_PER_APP,
            "width": WIDTH,
            "height": HEIGHT,
            "process_counts": list(PROCESS_COUNTS),
        },
        "scaling": curve,
        "kill_recovery": recovery,
    }
    write_bench_json(output_dir, "BENCH_sharded.json", report)

    # --- unconditional: fidelity and resilience -------------------------
    assert all(point["bit_identical"] for point in curve.values())
    assert recovery["failed"] == 0, (
        f"{recovery['failed']} requests failed across an injected "
        "worker kill"
    )
    assert recovery["worker_deaths"] >= 1
    assert recovery["workers_respawned"] >= 1

    # --- gated on real cores: the scaling floor -------------------------
    if CPUS >= 4:
        scaling = (
            curve["4"]["throughput_rps"] / curve["1"]["throughput_rps"]
        )
        assert scaling >= 3.0, (
            f"4-process fleet only {scaling:.2f}x over one process on "
            f"{CPUS} CPUs (floor 3x)"
        )
