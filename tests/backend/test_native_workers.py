"""Native engine parallelism: the GIL-release contract and ``workers=``.

Two properties the sharded serving tier leans on:

* compiled entry points load through ``ctypes.CDLL``, which drops the
  GIL for the duration of each C call — a Python thread makes real
  progress while a native kernel runs (this is what lets one worker
  process overlap native execution with scheduling);
* ``NativePartitionPlan.execute(..., workers=N)`` accepts the engine
  table's block-overlap argument and computes the same bits for every
  ``N`` — the native engine runs its blocks one at a time and
  parallelises inside each kernel; the threads the first property
  serves are the serving tier's schedulers.

Correctness (bit-identity) is asserted unconditionally; these tests
make no timing claims, so they hold on one core.
"""

import threading
import time

import numpy as np
import pytest

from helpers import chain_pipeline, image, local_kernel, random_image

from repro.backend.native_exec import (
    native_available,
    native_plan_for_partition,
)
from repro.backend.plan import plan_for_partition
from repro.dsl.pipeline import Pipeline
from repro.graph.partition import Partition, PartitionBlock

needs_cc = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)


def _fan_graph(branches=4, stages=2, width=96, height=64):
    """One input fanned into ``branches`` independent local chains.

    Every branch's blocks depend only on the shared input, so a
    singleton partition exposes ``branches``-way block parallelism.
    """
    pipe = Pipeline("fan")
    src = image("src", width, height)
    for branch in range(branches):
        previous = src
        for stage in range(stages):
            out = image(f"b{branch}s{stage}", width, height)
            pipe.add(local_kernel(f"k{branch}_{stage}", previous, out))
            previous = out
    return pipe.build()


@needs_cc
class TestGilRelease:
    def test_python_thread_progresses_during_native_call(self):
        # A counting thread only advances while the main thread is
        # inside the compiled kernel if the ctypes call released the
        # GIL.  Work is sized so the single fused C call dominates:
        # keep the chain shallow (fused locals inline producers, so
        # depth is exponential in lowered-expression size) and the
        # image large.
        graph = chain_pipeline(("l", "l", "l"), 1280, 960).build()
        data = {"img0": random_image(1280, 960, seed=31)}
        partition = Partition(
            graph, [PartitionBlock(graph, set(graph.kernel_names))]
        )
        plan = native_plan_for_partition(graph, partition)
        assert all(native is not None for _, native in plan.blocks)
        plan.execute(dict(data), {})  # warm: exclude one-time costs

        progress = {"ticks": 0}
        stop = threading.Event()

        def count():
            while not stop.is_set():
                progress["ticks"] += 1

        thread = threading.Thread(target=count, daemon=True)
        thread.start()
        time.sleep(0.05)  # let the counter reach steady state
        before = progress["ticks"]
        started = time.perf_counter()
        plan.execute(dict(data), {})
        elapsed = time.perf_counter() - started
        after = progress["ticks"]
        stop.set()
        thread.join(timeout=5.0)

        # Holding the GIL across the C call would freeze the counter
        # for essentially the whole execute (a handful of ticks at
        # most, from the Python prologue).  Released, the counter runs
        # throughout; demand a rate far above the frozen regime while
        # staying far below a free thread's (~1e6/s was measured).
        assert elapsed > 0
        rate = (after - before) / elapsed
        assert rate > 10_000, (
            f"counter advanced {after - before} ticks in {elapsed:.3f}s "
            "during a native call — the GIL appears to be held"
        )


@needs_cc
class TestWorkersParallelBlocks:
    def test_workers_bit_identical_on_independent_blocks(self):
        graph = _fan_graph()
        data = {"src": random_image(96, 64, seed=32)}
        partition = Partition.singletons(graph)
        plan = native_plan_for_partition(graph, partition)
        serial = plan.execute(dict(data), {}, workers=1)
        threaded = plan.execute(dict(data), {}, workers=4)
        assert set(serial) == set(threaded)
        for name in serial:
            np.testing.assert_array_equal(threaded[name], serial[name])

    def test_workers_match_tape_engine(self):
        graph = _fan_graph(branches=3, stages=2, width=40, height=28)
        data = {"src": random_image(40, 28, seed=33)}
        partition = Partition.singletons(graph)
        native = native_plan_for_partition(graph, partition).execute(
            dict(data), {}, workers=4
        )
        tape = plan_for_partition(graph, partition).execute(
            dict(data), {}, workers=4
        )
        for name in tape:
            np.testing.assert_array_equal(native[name], tape[name])

    def test_workers_respects_dependent_chains(self):
        # A pure chain has no independent blocks: workers>1 must not
        # reorder anything (each block waits for its producer).
        graph = chain_pipeline(("l", "p", "l", "p"), 32, 24).build()
        data = {"img0": random_image(32, 24, seed=34)}
        partition = Partition.singletons(graph)
        plan = native_plan_for_partition(graph, partition)
        serial = plan.execute(dict(data), {}, workers=1)
        threaded = plan.execute(dict(data), {}, workers=4)
        for name in serial:
            np.testing.assert_array_equal(threaded[name], serial[name])

    def test_default_workers_env(self, monkeypatch):
        # REPRO_EXEC_WORKERS overlaps blocks of tape plans; the native
        # engine accepts it and runs its one schedule, so the bits
        # cannot depend on it.
        graph = _fan_graph(branches=2, stages=1, width=24, height=16)
        data = {"src": random_image(24, 16, seed=35)}
        partition = Partition.singletons(graph)
        plan = native_plan_for_partition(graph, partition)
        reference = plan.execute(dict(data), {}, workers=1)
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "4")
        from_env = plan.execute(dict(data), {})
        for name in reference:
            np.testing.assert_array_equal(from_env[name], reference[name])
