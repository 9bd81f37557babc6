"""Execution-engine comparison: recursive vs. tape vs. native.

Times the fused-block executors head-to-head on the workloads where the
plan compiler matters most — deep local-to-local chains, where the
recursive engine re-derives every producer's coordinate grids at every
consumer tap while the tape engine interns them and deduplicates
producer evaluations at composed offsets, and where the native engine
then removes the tape's whole-image NumPy temporaries entirely by
touching each pixel once in registers.

Emits ``BENCH_exec_engines.json`` (recursive vs tape, plus native when
a C compiler is present) and ``BENCH_native_tape.json`` (the native
headline: three-way chain timings plus the six-app differential
equivalence record under the pinned tolerance policy) into
``benchmarks/output/``.  Acceptance figures: tape at least 2x over
recursive, native at least 3x over tape, both on the 2048x2048
local-to-local chain.
"""

import time
import zlib
from dataclasses import replace

import numpy as np
import pytest

from conftest import write_bench_json
from helpers import BLUR3, EDGE3, chain_pipeline, image, local_kernel, random_image

from repro.api import ExecutionOptions, run, run_block
from repro.apps import APPLICATIONS
from repro.backend.native_exec import (
    assert_native_equiv,
    native_available,
    native_plan_for_partition,
)
from repro.dsl.pipeline import Pipeline
from repro.eval.runner import partition_for
from repro.graph.partition import Partition, PartitionBlock
from repro.model.hardware import GTX680

#: (label, chain depth, image size) of the timed chain workloads.
CHAIN_CASES = (
    ("l2_2048", 2, 2048),
    ("l3_1024", 3, 1024),
)

REPEATS = 2

TAPE = ExecutionOptions(engine="tape")
RECURSIVE = ExecutionOptions(engine="recursive")


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _wide_pipeline(size, lanes=4):
    """One source feeding ``lanes`` independent two-kernel chains."""
    pipe = Pipeline("wide")
    src = image("src", size, size)
    for lane in range(lanes):
        mask = BLUR3 if lane % 2 == 0 else EDGE3
        mid = image(f"mid{lane}", size, size)
        out = image(f"out{lane}", size, size)
        pipe.add(local_kernel(f"a{lane}", src, mid, mask))
        pipe.add(local_kernel(f"b{lane}", mid, out, mask))
    return pipe.build()


def test_bench_exec_engines(output_dir):
    report = {"repeats": REPEATS, "chains": {}, "parallel": {}}

    for label, depth, size in CHAIN_CASES:
        graph = chain_pipeline(("l",) * depth, size, size).build()
        data = {"img0": random_image(size, size, seed=3)}
        block = PartitionBlock(graph, set(graph.kernel_names))
        run_block(graph, block, data, options=TAPE)  # compile once
        tape = _best_of(
            lambda: run_block(graph, block, data, options=TAPE)
        )
        recursive = _best_of(
            lambda: run_block(graph, block, data, options=RECURSIVE)
        )
        entry = {
            "depth": depth,
            "size": size,
            "recursive_s": recursive,
            "tape_s": tape,
            "speedup": recursive / tape,
        }
        if native_available():
            nplan = native_plan_for_partition(
                graph, Partition(graph, [block])
            )
            nplan.execute(dict(data))  # compile + strict verify once
            native = _best_of(lambda: nplan.execute(dict(data)))
            entry["native_s"] = native
            entry["native_over_tape"] = tape / native
        report["chains"][label] = entry

    size = 1024
    graph = _wide_pipeline(size)
    data = {"src": random_image(size, size, seed=4)}
    partition = Partition(
        graph,
        [
            PartitionBlock(graph, {f"a{lane}", f"b{lane}"})
            for lane in range(4)
        ],
    )
    serial_options = replace(TAPE, partition=partition)
    run(graph, data, options=serial_options)
    serial = _best_of(lambda: run(graph, data, options=serial_options))
    parallel_options = replace(serial_options, workers=4)
    parallel = _best_of(lambda: run(graph, data, options=parallel_options))
    report["parallel"] = {
        "size": size,
        "blocks": 4,
        "workers": 4,
        "serial_s": serial,
        "parallel_s": parallel,
        "speedup": serial / parallel,
    }

    write_bench_json(output_dir, "BENCH_exec_engines.json", report)

    headline = report["chains"]["l2_2048"]["speedup"]
    assert headline >= 2.0, (
        f"tape engine only {headline:.2f}x over recursive on the "
        "2048x2048 local-to-local chain (acceptance floor is 2x)"
    )


#: Runtime parameter bindings covering every app's ``Param`` reads.
APP_PARAMS = {"gamma": 0.8, "threshold": 100.0}

#: Differential-equivalence geometry (shrunk, border-heavy).
APP_GEOMETRY = {
    "Harris": (40, 28),
    "Sobel": (40, 28),
    "Unsharp": (40, 28),
    "ShiTomasi": (40, 28),
    "Enhance": (40, 28),
    "Night": (24, 18),
}


def test_bench_native_tape(output_dir):
    """The native headline: >= 3x over the tape on the 2048^2 chain,
    with all six apps differentially equivalent under the pinned
    tolerance policy."""
    if not native_available():
        pytest.skip("no C compiler on PATH")

    report = {"repeats": REPEATS, "chains": {}, "apps": {}}

    for label, depth, size in CHAIN_CASES:
        graph = chain_pipeline(("l",) * depth, size, size).build()
        data = {"img0": random_image(size, size, seed=3)}
        block = PartitionBlock(graph, set(graph.kernel_names))
        partition = Partition(graph, [block])
        nplan = native_plan_for_partition(graph, partition)
        compile_ms = nplan.compile_ms
        nplan.execute(dict(data))  # warm: strict differential verify
        native = _best_of(lambda: nplan.execute(dict(data)))
        run_block(graph, block, data, options=TAPE)
        tape = _best_of(
            lambda: run_block(graph, block, data, options=TAPE)
        )
        recursive = _best_of(
            lambda: run_block(graph, block, data, options=RECURSIVE)
        )
        report["chains"][label] = {
            "depth": depth,
            "size": size,
            "recursive_s": recursive,
            "tape_s": tape,
            "native_s": native,
            "native_compile_ms": compile_ms,
            "native_over_tape": tape / native,
            "native_over_recursive": recursive / native,
        }

    # Differential equivalence record: every paper app, the optimized
    # partition, native vs tape under the pinned tolerance policy.
    for app_name, (width, height) in APP_GEOMETRY.items():
        spec = APPLICATIONS[app_name]
        graph = spec.build(width, height).build()
        shape = (height, width)
        if spec.channels > 1:
            shape = shape + (spec.channels,)
        rng = np.random.default_rng(zlib.crc32(app_name.encode()))
        inputs = {
            name: rng.uniform(0.0, 255.0, size=shape)
            for name in graph.pipeline_inputs()
        }
        partition = partition_for(graph, GTX680, "optimized")
        nplan = native_plan_for_partition(graph, partition)
        native_env = nplan.execute(dict(inputs), APP_PARAMS)
        tape_env = run(
            graph, inputs, APP_PARAMS,
            options=replace(TAPE, partition=partition),
        )
        for name in tape_env:
            assert_native_equiv(
                tape_env[name],
                native_env[name],
                nplan.tolerance,
                f"{app_name}/{name}",
            )
        report["apps"][app_name] = {
            "geometry": [width, height],
            "native_blocks": nplan.native_block_count,
            "fallback_blocks": nplan.fallback_block_count,
            "tolerance": (
                "bit-identical"
                if nplan.tolerance is None
                else {"rtol": nplan.tolerance[0], "atol": nplan.tolerance[1]}
            ),
            "equivalent": True,
        }

    write_bench_json(output_dir, "BENCH_native_tape.json", report)

    headline = report["chains"]["l2_2048"]["native_over_tape"]
    assert headline >= 3.0, (
        f"native engine only {headline:.2f}x over the tape on the "
        "2048x2048 local-to-local chain (acceptance floor is 3x)"
    )
