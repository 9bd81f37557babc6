"""Resilience layer: no-fault overhead and faulted recovery latency.

Two measurements, one report (``BENCH_resilience.json``):

* **Overhead** — what the resilience machinery (breaker routing, retry
  accounting, fault-site probes) costs on the no-fault hot path,
  measured against :meth:`ResiliencePolicy.disabled` (the PR-4
  behaviour: one attempt, no breakers, no quarantine).  Both policies
  are timed on *one* runtime — the policy is swapped between the two
  halves of every round — so the two request streams share worker
  threads, plan cache, and CPU frequency state; the median across
  rounds of the per-round median-latency ratio then cancels the
  thread-handoff jitter and load drift that dwarf the
  microsecond-scale cost under measurement.  A reading, not a floor:
  on the reference container it spreads -1.5 %..+5.2 % across six runs
  (EXPERIMENTS.md); ROADMAP item 1 makes it a ledger metric.
* **Recovery** — with a deterministic 10% native-compile failure rate
  (``native.compile:error@10``), every request still completes and
  matches the tape reference (bit-identically on the degraded rungs,
  under the native engine's pinned libm tolerance otherwise), and the
  faulted stream's latency distribution is reported.
"""

import time

import numpy as np
import pytest

from conftest import write_bench_json

from repro.apps import APPLICATIONS, request_inputs
from repro.serve import ResiliencePolicy, ServingRuntime, faultinject

WIDTH, HEIGHT = 64, 48
WARMUP = 40
REQUESTS = 200
ROUNDS = 6

#: Geometries for the recovery stream: each (app, geometry) pair is a
#: distinct plan-cache key, so each costs one native compile attempt —
#: the site the 10% fault rate targets.
GEOMETRIES = ((48, 32), (64, 48), (80, 56), (96, 64), (112, 72))


def _paired_overhead(inputs):
    """No-fault overhead of the full policy vs the disabled baseline.

    One runtime serves both streams; the policy is swapped between the
    two halves of each round, so every disabled/full pair shares
    threads, cache state, and whatever the machine is doing that
    second.  Each round contributes one ratio of per-request latency
    medians; the median ratio across rounds cancels both thread-handoff
    jitter (within a round) and machine-load drift (across rounds).
    Returns ``(overhead, disabled_median_s, full_median_s)``.
    """
    policies = {
        "disabled": ResiliencePolicy.disabled(),
        "full": ResiliencePolicy(),
    }
    latencies = {name: [] for name in policies}
    ratios = []
    with ServingRuntime() as runtime:
        for _ in range(WARMUP):
            runtime.execute("Sobel", inputs)
        for _ in range(ROUNDS):
            round_median = {}
            for name, policy in policies.items():
                runtime.resilience = policy
                samples = []
                for _ in range(REQUESTS):
                    started = time.perf_counter()
                    runtime.execute("Sobel", inputs)
                    samples.append(time.perf_counter() - started)
                round_median[name] = float(np.median(samples))
                latencies[name].extend(samples)
            ratios.append(round_median["full"] / round_median["disabled"])
    return (
        float(np.median(ratios)) - 1.0,
        float(np.median(latencies["disabled"])),
        float(np.median(latencies["full"])),
    )


def test_bench_resilience(output_dir):
    faultinject.clear()
    inputs = request_inputs(APPLICATIONS["Sobel"], WIDTH, HEIGHT, seed=0)

    # -- no-fault overhead: full policy vs the disabled (PR-4) baseline
    overhead, baseline_s, resilient_s = _paired_overhead(inputs)

    # -- recovery under a deterministic 10% native-compile failure rate
    from repro.backend.native_exec import LIBM_ATOL, LIBM_RTOL, native_available

    recovery = {"skipped": "no C compiler on PATH"}
    if native_available():
        workload = [
            (name, width, height)
            for width, height in GEOMETRIES
            for name in sorted(APPLICATIONS)
        ]
        arrays = {
            (name, width, height): request_inputs(
                APPLICATIONS[name], width, height, seed=11
            )
            for name, width, height in workload
        }
        with ServingRuntime(engine="tape") as reference_runtime:
            references = {
                key: reference_runtime.execute(key[0], arrays[key])
                for key in workload
            }
        latencies = []
        rule = faultinject.inject(
            "native.compile", "error", times=None, every=10
        )
        try:
            with ServingRuntime(engine="native") as runtime:
                for key in workload:
                    started = time.perf_counter()
                    served = runtime.execute(key[0], arrays[key])
                    latencies.append(
                        (time.perf_counter() - started) * 1e3
                    )
                    for image, expected in references[key].items():
                        # Faulted requests serve on tape (bit-identical);
                        # un-faulted ones serve natively, under the
                        # engine's pinned libm tolerance.
                        np.testing.assert_allclose(
                            served[image], expected,
                            rtol=LIBM_RTOL, atol=LIBM_ATOL,
                            err_msg=f"{key} diverged under faults",
                        )
                snapshot = runtime.metrics_snapshot()
        finally:
            faultinject.remove(rule)
        counters = snapshot["counters"]
        assert "requests_failed" not in counters, counters
        assert counters["requests_completed"] == len(workload)
        injected = snapshot["resilience"]["faults"].get("native.compile", 0)
        assert injected >= 1, "the 10% fault rate never fired"
        assert counters.get("degraded_to_tape", 0) >= injected
        recovery = {
            "requests": len(workload),
            "injected_native_compile_failures": injected,
            "degraded_to_tape": counters.get("degraded_to_tape", 0),
            "request_retries": counters.get("request_retries", 0),
            "requests_failed": 0,
            "matches_reference": True,
            "latency_ms": {
                "p50": float(np.percentile(latencies, 50)),
                "p95": float(np.percentile(latencies, 95)),
                "p99": float(np.percentile(latencies, 99)),
                "max": float(np.max(latencies)),
            },
            "breakers": snapshot["resilience"]["breakers"],
        }

    report = {
        "geometry": f"{WIDTH}x{HEIGHT}",
        "requests": REQUESTS,
        "rounds": ROUNDS,
        "overhead": {
            "disabled_policy_median_s": baseline_s,
            "full_policy_median_s": resilient_s,
            "relative": overhead,
        },
        "recovery": recovery,
    }
    write_bench_json(output_dir, "BENCH_resilience.json", report)
