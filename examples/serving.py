#!/usr/bin/env python3
"""Serving: run the fused pipelines as a long-lived, cached service.

Fusion and tape compilation depend only on a pipeline's structure, the
image geometry, and the configuration — so a process that executes the
same pipelines repeatedly should pay them once.  This example stands up
a :class:`repro.serve.ServingRuntime`, floods it with concurrent
requests across the six paper applications, verifies the results are
bit-identical to direct one-shot execution, and prints the metrics the
runtime collected along the way: cache hit rate, latency percentiles,
queue wait, per-stage compile costs.

Run:  python examples/serving.py
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS
from repro.eval.runner import partition_for
from repro.model.hardware import GTX680
from repro.serve import ServingRuntime
from repro.apps import request_inputs
from repro.serve.registry import DEFAULT_APP_PARAMS

WIDTH, HEIGHT = 96, 64
REQUESTS = 120


def main() -> None:
    # 1. A runtime with the paper's six applications pre-registered.
    runtime = ServingRuntime(workers=4)
    names = sorted(runtime.registry.names())
    print(f"registered pipelines: {', '.join(names)}")
    print()

    # 2. Fire a concurrent request stream (round-robin over the apps,
    #    fresh input arrays per request).
    workload = [
        (names[i % len(names)],
         request_inputs(APPLICATIONS[names[i % len(names)]],
                        WIDTH, HEIGHT, seed=i))
        for i in range(REQUESTS)
    ]
    with runtime, ThreadPoolExecutor(max_workers=16) as clients:
        futures = [
            clients.submit(runtime.execute, name, inputs)
            for name, inputs in workload
        ]
        served = [future.result() for future in futures]

        # 3. Spot-check bit-identity against direct one-shot execution.
        name, inputs = workload[0]
        spec = APPLICATIONS[name]
        graph = spec.build(WIDTH, HEIGHT).build()
        partition = partition_for(graph, GTX680, "optimized")
        direct = run(
            graph, inputs, DEFAULT_APP_PARAMS.get(name),
            options=ExecutionOptions(partition=partition),
        )
        assert all(
            np.array_equal(served[0][image], direct[image])
            for image in direct
        ), "serving diverged from direct execution"
        print(f"{REQUESTS} requests served; first result bit-identical "
              f"to direct execution of {name}")
        print()

        # 4. What the runtime measured.
        snapshot = runtime.metrics_snapshot()

    cache = snapshot["plan_cache"]
    print(f"plan cache: {cache['hits']} hits / {cache['misses']} misses "
          f"-> hit rate {cache['hit_rate']:.3f} "
          f"({cache['coalesced']} coalesced builds)")
    latency = snapshot["histograms"]["total_ms"]
    print(f"latency   : p50 {latency['p50']:.2f} ms, "
          f"p95 {latency['p95']:.2f} ms, p99 {latency['p99']:.2f} ms")
    wait = snapshot["histograms"]["queue_wait_ms"]
    print(f"queue wait: p50 {wait['p50']:.2f} ms, "
          f"p95 {wait['p95']:.2f} ms over {wait['count']} dispatches")
    fuse = snapshot["histograms"].get("compile_fuse_ms")
    plan = snapshot["histograms"].get("compile_plan_ms")
    if fuse and plan:
        print(f"compiles  : {fuse['count']} (min-cut fuse mean "
              f"{fuse['mean']:.2f} ms, tape plan mean "
              f"{plan['mean']:.2f} ms) — paid once per pipeline, "
              f"amortized over {REQUESTS} requests")


if __name__ == "__main__":
    main()
