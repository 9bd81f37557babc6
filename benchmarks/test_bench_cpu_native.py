"""Native CPU benchmarks: real wall-clock effects of kernel fusion.

Everything else in the harness prices the GPU analytically; this bench
runs the pipelines through the native engine (compiled C, float64) on
this machine and *measures* them.  Fusion on a CPU buys the same thing
as on a GPU — intermediate images stop travelling through memory — so
the fused Unsharp pipeline must beat the unfused one in measured
wall-clock, not just in the model.

Skipped when no C compiler is on PATH.
"""

import time

import numpy as np
import pytest

from conftest import write_report

from repro.api import ExecutionOptions, run
from repro.apps.unsharp import build_pipeline as build_unsharp
from repro.apps.sobel import build_pipeline as build_sobel
from repro.backend.native_exec import native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler on PATH"
)

SIZE = 1024

BASELINE = ExecutionOptions(engine="native", fuse=False)
FUSED = ExecutionOptions(engine="native")


@pytest.fixture(scope="module")
def unsharp_setup():
    graph = build_unsharp(SIZE, SIZE).build()
    rng = np.random.default_rng(0)
    data = {"input": rng.uniform(0, 255, size=(SIZE, SIZE))}
    for options in (BASELINE, FUSED):  # compile outside the timed region
        run(graph, data, options=options)
    return graph, data


def test_bench_cpu_unsharp_baseline(benchmark, unsharp_setup):
    graph, data = unsharp_setup
    env = benchmark(run, graph, data, options=BASELINE)
    assert env["sharpened"].shape == (SIZE, SIZE)


def test_bench_cpu_unsharp_fused(benchmark, unsharp_setup):
    graph, data = unsharp_setup
    env = benchmark(run, graph, data, options=FUSED)
    reference = run(graph, data, options=BASELINE)
    np.testing.assert_array_equal(env["sharpened"], reference["sharpened"])


def _best_of(graph, data, options, repeats):
    run(graph, data, options=options)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run(graph, data, options=options)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_cpu_measured_speedup(benchmark, unsharp_setup, output_dir):
    """Measure unfused vs fused directly and record the real speedup."""
    graph, data = unsharp_setup

    def both():
        return (
            _best_of(graph, data, BASELINE, 5),
            _best_of(graph, data, FUSED, 5),
        )

    base_s, fused_s = benchmark.pedantic(both, iterations=1, rounds=3)
    # Fusion eliminates three intermediate images; on any machine with
    # a memory hierarchy this must not be slower, and is typically
    # clearly faster.
    assert base_s / fused_s > 0.9

    sobel = build_sobel(SIZE, SIZE).build()
    sobel_base_s = _best_of(sobel, data, BASELINE, 3)
    sobel_fused_s = _best_of(sobel, data, FUSED, 3)

    write_report(
        output_dir,
        "cpu_native_speedups.txt",
        "\n".join([
            "NATIVE ENGINE: MEASURED WALL-CLOCK (compiled C, float64, "
            f"{SIZE}x{SIZE})",
            f"{'app':<10}{'unfused s':>12}{'fused s':>12}{'speedup':>9}",
            f"{'Unsharp':<10}{base_s:>12.4f}{fused_s:>12.4f}"
            f"{base_s / fused_s:>8.2f}x",
            f"{'Sobel':<10}{sobel_base_s:>12.4f}{sobel_fused_s:>12.4f}"
            f"{sobel_base_s / sobel_fused_s:>8.2f}x",
        ]),
    )
