"""Model-driven 2D overlapped tiling: measured effect of the tile shape.

The native engine's ``tile2d`` lowering partitions the plane into
halo-extended tiles whose fused-chain intermediates live in stack
scratch sized by the cost model (:mod:`repro.model.tiling`) against the
host cache hierarchy.  This bench measures what the model only prices:

* **tile sweep vs model pick** — a measured sweep over tile shapes on
  the depth-3 local chain at 2048x2048, with the achieved bandwidth
  against the minimal one-read-one-write traffic, recording how far the
  model's ``auto`` choice lands from the sweep best
  (``model_over_best``);
* **six-app bit-identity** — every paper app, native vs the tape
  engine, exact f64 equality under the default knobs.

Emits ``BENCH_tiling.json`` into ``benchmarks/output/``.  The ratio is
a reading, not a floor: on the reference container it spread 1.01-1.51
across six runs (EXPERIMENTS.md); ROADMAP item 1 turns it into a ledger
metric with a measured bound.  Bit-identity is asserted.
"""

import os
import time
import zlib

import numpy as np
import pytest

from conftest import write_bench_json
from helpers import chain_pipeline, random_image

from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS
from repro.backend.native_exec import (
    native_available,
    native_plan_for_partition,
)
from repro.eval.runner import partition_for
from repro.graph.partition import Partition, PartitionBlock
from repro.model.hardware import GTX680

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler on PATH"
)

SIZE = 2048
DEPTH = 3
REPEATS = 3

#: Forced shapes for the measured sweep (HxW); the model's auto pick is
#: appended at run time so the comparison always includes it.
SWEEP = ("8x64", "8x256", "16x128", "32x256", "64x512")

APP_PARAMS = {"gamma": 0.8, "threshold": 100.0}

APP_GEOMETRY = {
    "Harris": (40, 28),
    "Sobel": (40, 28),
    "Unsharp": (40, 28),
    "ShiTomasi": (40, 28),
    "Enhance": (40, 28),
    "Night": (24, 18),
}


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed_plan(graph, partition, data, knob):
    """Build and warm a native plan under a ``REPRO_NATIVE_TILE2D``
    setting, returning (best seconds, tile shape or None)."""
    old = os.environ.get("REPRO_NATIVE_TILE2D")
    os.environ["REPRO_NATIVE_TILE2D"] = knob
    try:
        nplan = native_plan_for_partition(graph, partition)
    finally:
        if old is None:
            os.environ.pop("REPRO_NATIVE_TILE2D", None)
        else:
            os.environ["REPRO_NATIVE_TILE2D"] = old
    nplan.execute(dict(data))  # compile + differential verify once
    native = next(n for _p, n in nplan.blocks if n is not None)
    return _best_of(lambda: nplan.execute(dict(data))), native.spec.tile2d


def test_bench_tiling(output_dir):
    graph = chain_pipeline(("l",) * DEPTH, SIZE, SIZE).build()
    data = {"img0": random_image(SIZE, SIZE, seed=3)}
    block = PartitionBlock(graph, set(graph.kernel_names))
    partition = Partition(graph, [block])

    # --- measured tile sweep vs the model pick ------------------------
    auto_s, auto_tile = _timed_plan(graph, partition, data, "auto")
    assert auto_tile is not None
    # Minimal traffic: the input plane in, the output plane out; every
    # chain intermediate stays in cache-resident scratch.
    min_bytes = 2 * SIZE * SIZE * 8
    roofline = {
        "depth": DEPTH,
        "size": SIZE,
        "tile2d_s": auto_s,
        "min_traffic_bytes": min_bytes,
        "tile2d_gbs": min_bytes / auto_s / 1e9,
        "tile": list(auto_tile),
    }
    model_shape = f"{auto_tile[0]}x{auto_tile[1]}"
    sweep = {}
    for knob in (*SWEEP, model_shape):
        if knob in sweep:
            continue
        forced_s, forced_tile = _timed_plan(graph, partition, data, knob)
        sweep[knob] = {"tile": list(forced_tile), "seconds": forced_s}
    best_knob = min(sweep, key=lambda k: sweep[k]["seconds"])
    best_s = sweep[best_knob]["seconds"]
    model_s = sweep[model_shape]["seconds"]

    # --- six-app bit-identity under the default (auto) knobs ----------
    apps = {}
    for app_name, (width, height) in APP_GEOMETRY.items():
        spec = APPLICATIONS[app_name]
        app_graph = spec.build(width, height).build()
        shape = (height, width)
        if spec.channels > 1:
            shape = shape + (spec.channels,)
        rng = np.random.default_rng(zlib.crc32(app_name.encode()))
        inputs = {
            name: rng.uniform(0.0, 255.0, size=shape)
            for name in app_graph.pipeline_inputs()
        }
        app_partition = partition_for(app_graph, GTX680, "optimized")
        nplan = native_plan_for_partition(app_graph, app_partition)
        native_env = nplan.execute(dict(inputs), APP_PARAMS)
        # The headline claim: staging moves work into scratch without
        # changing the result — against the tape engine, under the
        # pinned policy (some apps pin a tiny tolerance for
        # libm-scheduling differences).
        tape_env = run(
            app_graph, inputs, APP_PARAMS,
            options=ExecutionOptions(engine="tape", partition=app_partition),
        )
        for name in tape_env:
            if nplan.tolerance is None:
                assert np.array_equal(tape_env[name], native_env[name]), (
                    f"{app_name}/{name} diverged from the tape engine"
                )
            else:
                rtol, atol = nplan.tolerance
                np.testing.assert_allclose(
                    tape_env[name], native_env[name], rtol=rtol, atol=atol
                )
        apps[app_name] = {
            "geometry": [width, height],
            "tile2d_blocks": sum(
                1
                for _p, n in nplan.blocks
                if n is not None and n.spec.tile2d is not None
            ),
            "native_blocks": nplan.native_block_count,
            "tape_tolerance": (
                "bit-identical"
                if nplan.tolerance is None
                else {"rtol": nplan.tolerance[0], "atol": nplan.tolerance[1]}
            ),
        }

    write_bench_json(
        output_dir,
        "BENCH_tiling.json",
        {
            "repeats": REPEATS,
            "roofline": roofline,
            "sweep": {
                "shapes": sweep,
                "best": best_knob,
                "model_pick": model_shape,
                "model_over_best": model_s / best_s,
            },
            "apps": apps,
        },
    )
