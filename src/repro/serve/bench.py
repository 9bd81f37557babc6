"""Serving throughput benchmark: cached plans vs per-request recompilation.

The serving runtime's value proposition is that fusing and
tape-compiling a pipeline is pure overhead to repeat per request: the
result depends only on structure, geometry, and configuration.  This
module measures exactly that claim:

* **baseline** — every request rebuilds the pipeline, re-runs fusion
  (:func:`repro.eval.runner.partition_for`), re-compiles the
  instruction tapes against a fresh grid store, then executes.  This
  is the cost model of a process that treats every request as the
  first.
* **serving** — the same request stream submitted concurrently to a
  :class:`~repro.serve.runtime.ServingRuntime`: the first request per
  (pipeline, geometry) compiles, every later one hits the plan cache.

Both paths execute every request with the same tape engine, and the
report records that their outputs are **bit-identical** — the speedup
is bookkeeping removed, not arithmetic skipped.

:func:`run_serving_benchmark` returns a JSON-ready report; the
``serve-bench`` CLI and ``benchmarks/test_bench_serving.py`` both wrap
it.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps import ALL_APPS, AppSpec
from repro.backend.numpy_exec import Arrays
from repro.backend.plan import GridStore, PartitionPlan
from repro.eval.runner import partition_for
from repro.serve.plancache import FusionSettings
from repro.serve.registry import DEFAULT_APP_PARAMS, default_registry
from repro.serve.runtime import ServingRuntime

__all__ = ["DEFAULT_BENCH_APPS", "request_inputs", "run_serving_benchmark"]

#: The paper's six applications, the default serving workload.
DEFAULT_BENCH_APPS: Tuple[str, ...] = (
    "Harris",
    "Sobel",
    "Unsharp",
    "ShiTomasi",
    "Enhance",
    "Night",
)


def request_inputs(
    spec: AppSpec, width: int, height: int, seed: int
) -> Arrays:
    """Deterministic random input arrays for one request."""
    graph = spec.build(width, height).build()
    rng = np.random.default_rng(seed)
    shape: Tuple[int, ...] = (height, width)
    if spec.channels > 1:
        shape = shape + (spec.channels,)
    return {
        name: rng.uniform(0.0, 255.0, size=shape)
        for name in graph.pipeline_inputs()
    }


def _baseline_once(
    spec: AppSpec,
    width: int,
    height: int,
    inputs: Arrays,
    fusion: FusionSettings,
) -> Arrays:
    """One request the expensive way: rebuild, re-fuse, re-plan, run."""
    graph = spec.build(width, height).build()
    partition = partition_for(
        graph, fusion.gpu, fusion.version, fusion.benefit_config
    )
    plan = PartitionPlan(
        graph,
        partition,
        naive_borders=fusion.naive_borders,
        store=GridStore(),
    )
    return plan.execute(inputs, DEFAULT_APP_PARAMS.get(spec.name))


def run_serving_benchmark(
    apps: Sequence[str] = DEFAULT_BENCH_APPS,
    requests_per_app: int = 20,
    width: int = 64,
    height: int = 48,
    client_threads: int = 8,
    scheduler_workers: int = 2,
    fusion: Optional[FusionSettings] = None,
    check_identity: bool = True,
    engine: str = "tape",
    processes: int = 1,
    cache_keying: str = "shape",
) -> Dict[str, Any]:
    """Measure serving throughput against per-request recompilation.

    Fires ``requests_per_app`` requests per application (each with its
    own deterministic random inputs) through both paths and reports
    wall-clock throughput, the achieved cache hit rate, latency
    percentiles, and — when ``check_identity`` — whether every serving
    result matched its baseline result bit for bit.  ``engine`` selects
    the runtime's execution engine; with ``"native"`` the identity
    check uses the pinned native tolerance
    (:data:`repro.backend.native_exec.LIBM_RTOL`) instead of bitwise
    equality, since transcendental libm calls lowered to C may differ
    from NumPy in the last ulp.

    ``processes > 1`` serves the stream through a
    :class:`~repro.serve.sharding.ShardedRuntime` of that many worker
    processes instead of the in-process runtime — the same request
    surface, the same bit-identity contract, with requests routed by
    plan signature so each worker's cache stays hot.
    """
    fusion = fusion or FusionSettings()
    specs = [ALL_APPS[name] for name in apps]
    workload: List[Tuple[AppSpec, Arrays]] = [
        (spec, request_inputs(spec, width, height, seed=1000 * i + n))
        for i, spec in enumerate(specs)
        for n in range(requests_per_app)
    ]

    started = time.perf_counter()
    baseline_results = [
        _baseline_once(spec, width, height, inputs, fusion)
        for spec, inputs in workload
    ]
    baseline_seconds = time.perf_counter() - started

    if processes > 1:
        from repro.serve.sharding import ShardedRuntime

        if cache_keying != "shape":
            raise ValueError(
                "sharded serving routes requests by shape-specialized "
                "plan signature; cache_keying='structure' needs the "
                "single-process runtime"
            )
        runtime_cm: Any = ShardedRuntime(
            apps,
            processes=processes,
            fusion=fusion,
            worker_threads=scheduler_workers,
            engine=engine,
        )
    else:
        registry = default_registry(include_extensions=True, apps=set(apps))
        runtime_cm = ServingRuntime(
            registry,
            fusion=fusion,
            workers=scheduler_workers,
            engine=engine,
            cache_keying=cache_keying,
        )
    mismatches = 0
    with runtime_cm as runtime:
        with ThreadPoolExecutor(max_workers=client_threads) as clients:
            started = time.perf_counter()
            futures = [
                clients.submit(runtime.execute, spec.name, inputs)
                for spec, inputs in workload
            ]
            served_results = [future.result() for future in futures]
            serving_seconds = time.perf_counter() - started
        snapshot = runtime.metrics_snapshot()

    if check_identity:
        if snapshot["engine"]["active"] == "native":
            from repro.backend.native_exec import LIBM_ATOL, LIBM_RTOL

            def _matches(a: np.ndarray, b: np.ndarray) -> bool:
                return np.allclose(
                    a, b, rtol=LIBM_RTOL, atol=LIBM_ATOL, equal_nan=True
                )

        else:
            _matches = np.array_equal
        for reference, served in zip(baseline_results, served_results):
            if set(reference) != set(served) or any(
                not _matches(reference[name], served[name])
                for name in reference
            ):
                mismatches += 1

    total = len(workload)
    baseline_rps = total / baseline_seconds if baseline_seconds else 0.0
    serving_rps = total / serving_seconds if serving_seconds else 0.0
    latency = snapshot["histograms"].get("total_ms", {})
    return {
        "benchmark": "serving",
        "config": {
            "apps": list(apps),
            "requests_per_app": requests_per_app,
            "requests_total": total,
            "width": width,
            "height": height,
            "client_threads": client_threads,
            "scheduler_workers": scheduler_workers,
            "processes": processes,
            "fusion_version": fusion.version,
            "gpu": fusion.gpu_name,
            "engine": snapshot["engine"],
        },
        "baseline": {
            "seconds": baseline_seconds,
            "throughput_rps": baseline_rps,
        },
        "serving": {
            "seconds": serving_seconds,
            "throughput_rps": serving_rps,
            "hit_rate": snapshot["plan_cache"]["hit_rate"],
            "cache": snapshot["plan_cache"],
            "latency_ms": {
                "p50": latency.get("p50", 0.0),
                "p95": latency.get("p95", 0.0),
                "p99": latency.get("p99", 0.0),
                "mean": latency.get("mean", 0.0),
            },
        },
        "speedup": (serving_rps / baseline_rps) if baseline_rps else 0.0,
        "bit_identical": (mismatches == 0) if check_identity else None,
        "mismatches": mismatches if check_identity else None,
    }
