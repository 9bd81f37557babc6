"""End-to-end serving smoke: register, flood, verify.

The acceptance gate of the serving subsystem: the six paper apps
registered once, 100 requests fired concurrently, every result
bit-identical to direct (non-serving) execution of the same fused
configuration, and the plan cache absorbing all repeat traffic
(hit rate > 0.9).
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import ExecutionOptions, FusionSettings, run
from repro.apps import APPLICATIONS
from repro.eval.runner import execute_configuration, partition_for
from repro.model.hardware import KNOWN_GPUS
from repro.serve import (
    DeadlineExceeded,
    RegistryError,
    RuntimeClosed,
    ServingRuntime,
    default_registry,
)
from repro.apps import request_inputs
from repro.serve.registry import DEFAULT_APP_PARAMS

from helpers import chain_pipeline, random_image

WIDTH, HEIGHT = 48, 32
GPU = KNOWN_GPUS["GTX680"]


def _direct(name, inputs):
    """The reference: fuse and execute outside the serving stack."""
    spec = APPLICATIONS[name]
    graph = spec.build(WIDTH, HEIGHT).build()
    return run(
        graph,
        inputs,
        DEFAULT_APP_PARAMS.get(name),
        options=ExecutionOptions(fusion=FusionSettings(gpu_name=GPU.name)),
    )


class TestServingSmoke:
    def test_hundred_concurrent_requests_bit_identical(self):
        names = sorted(APPLICATIONS)
        workload = [
            (names[i % len(names)], i) for i in range(100)
        ]
        references = {}
        request_arrays = {}
        for name, seed in workload:
            arrays = request_inputs(
                APPLICATIONS[name], WIDTH, HEIGHT, seed=seed
            )
            request_arrays[(name, seed)] = arrays
            references[(name, seed)] = _direct(name, arrays)

        with ServingRuntime(workers=4) as runtime:
            with ThreadPoolExecutor(max_workers=16) as clients:
                futures = {
                    (name, seed): clients.submit(
                        runtime.execute,
                        name,
                        request_arrays[(name, seed)],
                    )
                    for name, seed in workload
                }
                served = {
                    key: future.result(timeout=120)
                    for key, future in futures.items()
                }
            stats = runtime.cache.stats()

        for key, reference in references.items():
            result = served[key]
            assert set(result) == set(reference), key
            for image_name in reference:
                assert np.array_equal(
                    result[image_name], reference[image_name]
                ), (key, image_name)

        # Six apps at one geometry = six compiles out of 100 requests.
        assert stats["misses"] == len(names)
        assert stats["hit_rate"] > 0.9

    def test_unknown_pipeline_rejected(self):
        with ServingRuntime() as runtime:
            with pytest.raises(RegistryError, match="Nope"):
                runtime.execute(
                    "Nope", {"input": random_image(WIDTH, HEIGHT)}
                )

    def test_expired_deadline_fails_request(self):
        with ServingRuntime() as runtime:
            spec = APPLICATIONS["Sobel"]
            inputs = request_inputs(spec, WIDTH, HEIGHT, seed=0)
            handle = runtime.submit("Sobel", inputs, deadline_s=-0.001)
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=30)

    def test_submit_after_close_raises(self):
        runtime = ServingRuntime()
        runtime.close()
        with pytest.raises(RuntimeClosed):
            runtime.submit(
                "Sobel",
                request_inputs(APPLICATIONS["Sobel"], WIDTH, HEIGHT, seed=0),
            )

    def test_metrics_snapshot_shape(self):
        with ServingRuntime() as runtime:
            runtime.execute(
                "Sobel",
                request_inputs(APPLICATIONS["Sobel"], WIDTH, HEIGHT, seed=1),
            )
            snap = runtime.metrics_snapshot()
        assert snap["counters"]["requests_completed"] == 1
        assert snap["plan_cache"]["misses"] == 1
        assert "total_ms" in snap["histograms"]
        assert snap["fusion"]["version"] == "optimized"
        assert snap["scheduler"]["max_queue"] >= 1

    def test_geometry_generic_serving(self):
        spec = APPLICATIONS["Sobel"]
        with ServingRuntime() as runtime:
            small = runtime.execute(
                "Sobel", request_inputs(spec, 32, 24, seed=3)
            )
            large = runtime.execute(
                "Sobel", request_inputs(spec, 64, 40, seed=3)
            )
            stats = runtime.cache.stats()
        assert small["magnitude"].shape != large["magnitude"].shape
        assert stats["misses"] == 2  # one plan per geometry


class TestExecutionRouting:
    def test_staged_run_through_runtime(self):
        graph = chain_pipeline(("l", "p", "l")).build()
        inputs = {"img0": random_image()}
        direct = run(graph, inputs, options=ExecutionOptions(fuse=False))
        with ServingRuntime() as runtime:
            staged = ExecutionOptions(fuse=False, runtime=runtime)
            served = run(graph, inputs, options=staged)
            # A structurally identical graph built separately reuses
            # the cached plan.
            rebuilt = chain_pipeline(("l", "p", "l")).build()
            again = run(rebuilt, inputs, options=staged)
            stats = runtime.cache.stats()
        assert set(served) == set(direct)
        for name in direct:
            assert np.array_equal(served[name], direct[name])
        for name in direct:
            assert np.array_equal(again[name], direct[name])
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_partitioned_run_through_runtime(self):
        graph = chain_pipeline(("l", "p", "l")).build()
        partition = partition_for(graph, GPU, "optimized")
        inputs = {"img0": random_image()}
        direct = run(
            graph, inputs, options=ExecutionOptions(partition=partition)
        )
        with ServingRuntime() as runtime:
            served = run(
                graph,
                inputs,
                options=ExecutionOptions(
                    partition=partition, runtime=runtime
                ),
            )
        assert set(served) == set(direct)
        for name in direct:
            assert np.array_equal(served[name], direct[name])

    def test_execute_configuration_through_runtime(self):
        spec = APPLICATIONS["Sobel"]
        direct = execute_configuration(
            spec, GPU, "optimized", width=WIDTH, height=HEIGHT
        )
        with ServingRuntime() as runtime:
            served = execute_configuration(
                spec,
                GPU,
                "optimized",
                width=WIDTH,
                height=HEIGHT,
                runtime=runtime,
            )
        assert set(served) == set(direct)
        for name in direct:
            assert np.array_equal(served[name], direct[name])
