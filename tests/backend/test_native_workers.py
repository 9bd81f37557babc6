"""Native engine parallelism: the GIL-release contract and ``workers=``.

Two properties a serving runtime leans on:

* compiled entry points load through ``ctypes.CDLL``, which drops the
  GIL for the duration of each C call — a Python thread makes real
  progress while a native kernel runs (this is what lets a runtime's
  scheduler threads overlap native execution with scheduling);
* ``NativePartitionPlan.execute(..., workers=N)`` accepts the engine
  table's block-overlap argument and computes the same bits for every
  ``N`` — the native engine runs its blocks one at a time and
  parallelises inside each kernel; the threads the first property
  serves are a runtime's schedulers.

Correctness (bit-identity) is asserted unconditionally; these tests
make no timing claims, so they hold on one core.
"""

import ctypes
import threading
import time

import numpy as np
import pytest

from helpers import chain_pipeline, image, local_kernel, random_image

from repro.backend.cpu_exec import _find_compiler, load_shared_library
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


#: Raises ``flags[0]``, then spins until ``flags[1]`` is set or
#: ``seconds`` pass; returns whether it was set.
_SPIN_SOURCE = """\
#include <time.h>
int repro_spin_until_set(volatile int *flags, double seconds) {
    struct timespec start, now;
    clock_gettime(CLOCK_MONOTONIC, &start);
    flags[0] = 1;
    while (!flags[1]) {
        clock_gettime(CLOCK_MONOTONIC, &now);
        if ((now.tv_sec - start.tv_sec)
                + 1e-9 * (now.tv_nsec - start.tv_nsec) > seconds)
            return 0;
    }
    return 1;
}
"""


@needs_cc
class TestGilRelease:
    def test_python_thread_runs_during_a_library_call(self):
        # A handshake, not a rate: a Python thread waits until the C
        # call has started, then answers it.  Were the GIL held for the
        # call, the thread could not run until it returned, so the call
        # would time out and return 0 — deterministically, on any core
        # count.
        library, _, _ = load_shared_library(_SPIN_SOURCE, _find_compiler())
        spin = library.repro_spin_until_set
        spin.argtypes = (ctypes.POINTER(ctypes.c_int), ctypes.c_double)
        spin.restype = ctypes.c_int
        flags = (ctypes.c_int * 2)()

        def answer():
            deadline = time.monotonic() + 5.0
            while not flags[0] and time.monotonic() < deadline:
                time.sleep(0.001)
            flags[1] = 1

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        assert spin(flags, 5.0) == 1, (
            "no Python thread ran during the call: the GIL appears held"
        )
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_native_blocks_bind_functions_of_a_cdll(self):
        # ``ctypes.CDLL`` functions drop the GIL for the call, the ones
        # of ``ctypes.PyDLL`` keep it: a block is the former.
        graph = chain_pipeline(("l", "l"), 48, 32).build()
        partition = Partition(
            graph, [PartitionBlock(graph, set(graph.kernel_names))]
        )
        plan = native_plan_for_partition(graph, partition)
        natives = [native for _, native in plan.blocks]
        assert natives and all(native is not None for native in natives)
        for native in natives:
            assert native._fn._flags_ == ctypes.CDLL._func_flags_


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
