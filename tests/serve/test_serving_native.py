"""Serving smoke with the native engine: compile once, serve compiled.

The native-engine counterpart of ``test_serving_smoke``: requests
served through ``ServingRuntime(engine="native")`` must match direct
tape execution under the pinned native tolerance policy
(:mod:`repro.backend.native_exec`), the plan cache must carry the
compiled artifact (one ``native_compile_ms`` observation per distinct
plan, not per request), and hosts without a C compiler must downgrade
to the tape engine instead of failing.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.backend.native_exec import (
    LIBM_ATOL,
    LIBM_RTOL,
    native_available,
)
from repro.api import ExecutionOptions, FusionSettings, run
from repro.model.hardware import KNOWN_GPUS
from repro.serve import ServingRuntime
from repro.apps import request_inputs
from repro.serve.registry import DEFAULT_APP_PARAMS

needs_cc = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

WIDTH, HEIGHT = 48, 32
GPU = KNOWN_GPUS["GTX680"]


def _direct_tape(name, inputs):
    spec = APPLICATIONS[name]
    graph = spec.build(WIDTH, HEIGHT).build()
    return run(
        graph,
        inputs,
        DEFAULT_APP_PARAMS.get(name),
        options=ExecutionOptions(
            engine="tape", fusion=FusionSettings(gpu_name=GPU.name)
        ),
    )


@needs_cc
class TestServingNative:
    def test_concurrent_requests_match_tape_within_policy(self):
        names = sorted(APPLICATIONS)
        workload = [(names[i % len(names)], i) for i in range(36)]
        request_arrays = {
            key: request_inputs(APPLICATIONS[key[0]], WIDTH, HEIGHT, seed=key[1])
            for key in workload
        }
        references = {
            key: _direct_tape(key[0], arrays)
            for key, arrays in request_arrays.items()
        }

        with ServingRuntime(workers=4, engine="native") as runtime:
            with ThreadPoolExecutor(max_workers=8) as clients:
                futures = {
                    key: clients.submit(
                        runtime.execute, key[0], request_arrays[key]
                    )
                    for key in workload
                }
                served = {
                    key: future.result(timeout=300)
                    for key, future in futures.items()
                }
            snapshot = runtime.metrics_snapshot()

        for key, reference in references.items():
            result = served[key]
            assert set(result) == set(reference), key
            for image_name in reference:
                np.testing.assert_allclose(
                    result[image_name],
                    reference[image_name],
                    rtol=LIBM_RTOL,
                    atol=LIBM_ATOL,
                    err_msg=f"{key}/{image_name}",
                )

        assert snapshot["engine"] == {
            "requested": "native",
            "active": "native",
        }
        # Every request executed natively, and the compile ran once per
        # distinct plan (six apps, one geometry), not once per request.
        counters = snapshot["counters"]
        assert counters.get("engine_native_executions", 0) == len(workload)
        native_ms = snapshot["histograms"]["compile_native_compile_ms"]
        assert native_ms["count"] == len(names)
        assert counters.get("native_blocks_compiled", 0) >= len(names)
        assert snapshot["plan_cache"]["hit_rate"] > 0.8

    def test_cache_hit_skips_native_compile(self):
        inputs = request_inputs(APPLICATIONS["Harris"], WIDTH, HEIGHT, seed=7)
        with ServingRuntime(engine="native") as runtime:
            runtime.execute("Harris", inputs)
            first = runtime.metrics_snapshot()
            runtime.execute("Harris", inputs)
            second = runtime.metrics_snapshot()
        compile_counts = (
            first["histograms"]["compile_native_compile_ms"]["count"],
            second["histograms"]["compile_native_compile_ms"]["count"],
        )
        assert compile_counts == (1, 1)  # hit skipped fuse+plan+compile
        assert second["plan_cache"]["hits"] >= 1


class TestEngineDowngrade:
    def test_no_compiler_downgrades_to_tape(self, monkeypatch):
        from repro.backend import native_exec

        monkeypatch.setattr(native_exec, "native_available", lambda: False)
        inputs = request_inputs(APPLICATIONS["Sobel"], WIDTH, HEIGHT, seed=3)
        with ServingRuntime(engine="native") as runtime:
            served = runtime.execute("Sobel", inputs)
            snapshot = runtime.metrics_snapshot()
        assert snapshot["engine"] == {
            "requested": "native",
            "active": "tape",
        }
        reference = _direct_tape("Sobel", inputs)
        for name in reference:
            np.testing.assert_array_equal(served[name], reference[name])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ServingRuntime(engine="warp")
