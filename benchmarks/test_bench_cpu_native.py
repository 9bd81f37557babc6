"""Native CPU: measured wall-clock effect of kernel fusion.

Everything in ``docs/artifact/`` prices the GPU analytically; this
emitter runs Unsharp and Sobel through the native engine (compiled C,
float64) on this machine, unfused and fused, and records the measured
speedup in ``BENCH_cpu_native.json``.  Fusion on a CPU buys the same
thing as on a GPU — intermediate images stop travelling through memory.
Asserts bit-identity only; the speedup is a reading, not a floor.

Skipped when no C compiler is on PATH.
"""

import time

import numpy as np
import pytest

from conftest import write_bench_json

from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS, request_inputs
from repro.backend.native_exec import native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler on PATH"
)

SIZE = 1024
REPEATS = 5

BASELINE = ExecutionOptions(engine="native", fuse=False)
FUSED = ExecutionOptions(engine="native")


def _best_of(graph, data, options):
    env = run(graph, data, options=options)  # compile outside the timing
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run(graph, data, options=options)
        best = min(best, time.perf_counter() - start)
    return best, env


def test_bench_cpu_native(output_dir):
    apps = {}
    for name in ("Unsharp", "Sobel"):
        spec = APPLICATIONS[name]
        graph = spec.build(SIZE, SIZE).build()
        data = request_inputs(spec, SIZE, SIZE, seed=0)
        unfused_s, unfused = _best_of(graph, data, BASELINE)
        fused_s, fused = _best_of(graph, data, FUSED)
        for image in graph.external_outputs:
            np.testing.assert_array_equal(fused[image], unfused[image])
        apps[name] = {
            "unfused_s": unfused_s,
            "fused_s": fused_s,
            "speedup": unfused_s / fused_s,
        }
    write_bench_json(
        output_dir,
        "BENCH_cpu_native.json",
        {"size": SIZE, "repeats": REPEATS, "apps": apps},
    )
