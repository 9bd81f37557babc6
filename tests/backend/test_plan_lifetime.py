"""A graph owns its plans: the per-graph memo in ``backend/plan.py``.

Pins the lifetime and the locking of what is compiled from a graph —
plans die with their graph, by reference counting alone (so the plan
cache's capacity bounds memory with the cyclic collector off), the lock
is per graph (so cold builds of different pipelines overlap while racing
builds of one still happen once), and the two resets drop exactly what
they say.
"""

import gc
import subprocess
import threading
import weakref

import numpy as np
import pytest

from helpers import count_calls

import repro.analysis.native_check as native_check
import repro.analysis.verifier as verifier
from repro.api import ExecutionOptions, run, run_block
from repro.apps import APPLICATIONS
from repro.backend import native_exec
from repro.backend import plan as tape
from repro.backend.cpu_exec import compiler_available
from repro.eval.runner import partition_for
from repro.model.hardware import GTX680
from repro.apps import request_inputs
from repro.serve.plancache import DEFAULT_CAPACITY, PROCESS_CACHE
from repro.serve.registry import default_registry

THREADS = 8

# A cold direct native request compiles before it answers: this suite's
# subject is native plans' lifetimes, which a tiered first answer would defer.
pytestmark = pytest.mark.usefixtures("blocking_native")

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler on PATH"
)


def _fused(name="Sobel", width=32, height=24):
    graph = APPLICATIONS[name].build(width, height).build()
    return graph, partition_for(graph, GTX680, "optimized")


def _race(target, count=THREADS):
    """Run ``target(index)`` on ``count`` threads released together;
    returns the results in index order."""
    barrier = threading.Barrier(count)
    results, errors = [None] * count, []

    def client(index):
        try:
            barrier.wait(10.0)
            results[index] = target(index)
        except BaseException as err:
            errors.append(err)

    workers = [
        threading.Thread(target=client, args=(index,)) for index in range(count)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(120.0)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors
    return results


# -- (a) the plan cache's capacity bounds the graphs alive ------------------


def _graphs_alive_after(engine, geometries):
    """Run Sobel at ``geometries`` widths through ``run`` with the cyclic
    collector off; how many of the graphs built are still alive."""
    spec = APPLICATIONS["Sobel"]
    options = ExecutionOptions(engine=engine, validate="standard")
    graphs = []
    gc.disable()
    try:
        for index in range(geometries):
            width = 16 + index
            graph = spec.build(width, 12).build()
            graphs.append(weakref.ref(graph))
            run(graph, request_inputs(spec, width, 12, seed=0), options=options)
            del graph
        return sum(ref() is not None for ref in graphs)
    finally:
        gc.enable()


def test_evicted_plans_release_their_graphs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))  # 200 plan records
    alive = _graphs_alive_after("tape", 200)
    assert len(PROCESS_CACHE) == DEFAULT_CAPACITY
    assert alive <= DEFAULT_CAPACITY


@needs_cc
def test_evicted_native_plans_release_their_graphs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    monkeypatch.setattr(PROCESS_CACHE, "capacity", 2)  # 6 compiles, not 200
    alive = _graphs_alive_after("native", 6)
    assert len(PROCESS_CACHE) == 2
    assert alive <= 2


def test_registry_pins_only_its_most_recent_geometries():
    entry = default_registry(apps={"Sobel"}).get("Sobel")
    graphs = [entry.graph(16 + index, 12) for index in range(DEFAULT_CAPACITY + 6)]
    assert entry.graph(16 + DEFAULT_CAPACITY + 5, 12) is graphs[-1]
    assert entry.graph(16, 12) is not graphs[0]
    refs = [weakref.ref(graph) for graph in graphs]
    del graphs
    gc.collect()
    assert sum(ref() is not None for ref in refs) <= DEFAULT_CAPACITY


# -- (b) plans die with their graph -----------------------------------------


def test_dropped_graph_is_collected_with_its_plans():
    graph, partition = _fused()
    plan = tape.plan_for_partition(graph, partition)
    native = native_exec.native_plan_for_partition(graph, partition)
    assert native.plan is plan
    refs = [weakref.ref(obj) for obj in (graph, plan, plan.store, native)]
    del graph, partition, plan, native
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


# -- (c) cold builds of different graphs overlap ----------------------------


@needs_cc
def test_cold_native_builds_of_two_graphs_overlap(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    real_run = subprocess.run
    # Each build links once, on its own thread: both must be inside the
    # link at the same time to get past the barrier.
    inside_link = threading.Barrier(2)

    def run_cc(command, *args, **kwargs):
        if "-shared" in command:
            inside_link.wait(30.0)
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run_cc)
    builds = [_fused("Sobel"), _fused("Unsharp")]
    plans = _race(
        lambda index: native_exec.native_plan_for_partition(*builds[index]),
        count=2,
    )
    assert not inside_link.broken
    assert [plan.from_cache for plan in plans] == [False, False]


# -- (d) + (f) racing builds of one graph happen once, strict included ------


@pytest.mark.parametrize("mode", ["standard", "strict"])
def test_racing_threads_build_each_plan_once(monkeypatch, mode):
    monkeypatch.setenv("REPRO_VALIDATE", mode)
    tapes = count_calls(monkeypatch, tape, "PartitionPlan")
    natives = count_calls(monkeypatch, native_exec, "_build_native_partition")
    verifies = count_calls(monkeypatch, verifier, "verify_partition_plan")
    sanitizes = count_calls(monkeypatch, native_check, "verify_native_blocks")
    graph, partition = _fused("Harris")

    def build(index):
        # Half ask for the tape plan first, half go straight to native.
        if index % 2:
            tape.plan_for_partition(graph, partition)
        return native_exec.native_plan_for_partition(graph, partition)

    plans = _race(build)
    assert all(plan is plans[0] for plan in plans)
    assert plans[0].plan is tape.plan_for_partition(graph, partition)
    assert (len(tapes), len(natives)) == (1, 1)
    strict = mode == "strict"
    assert len(verifies) == (1 if strict else 0)
    assert len(sanitizes) == (1 if strict and plans[0].native_block_count else 0)


@needs_cc
def test_strict_run_block_verifies_and_sanitizes_once(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE", "strict")
    graph, partition = _fused("Harris")
    block = max(partition.blocks, key=len)
    env = run(  # every image, the block's inputs among them
        graph,
        request_inputs(APPLICATIONS["Harris"], 32, 24, seed=0),
        options=ExecutionOptions(fuse=False),
    )
    tapes = count_calls(monkeypatch, tape, "PartitionPlan")
    natives = count_calls(monkeypatch, native_exec, "_build_native_partition")
    verifies = count_calls(monkeypatch, verifier, "verify_partition_plan")
    sanitizes = count_calls(monkeypatch, native_check, "verify_native_blocks")
    options = ExecutionOptions(engine="native")

    outputs = _race(lambda index: run_block(graph, block, env, options=options))
    assert all(np.array_equal(out, outputs[0]) for out in outputs)
    assert (len(tapes), len(natives)) == (1, 1)
    assert natives[0].native_block_count == 1
    assert (len(verifies), len(sanitizes)) == (1, 1)


# -- (e) the two resets drop what they say ----------------------------------


def test_native_reset_keeps_tape_plans_and_grids():
    graph, partition = _fused()
    plan = tape.plan_for_partition(graph, partition)
    native = native_exec.native_plan_for_partition(graph, partition)
    run(graph, request_inputs(APPLICATIONS["Sobel"], 32, 24, seed=0))
    assert len(PROCESS_CACHE) == 1

    native_exec.clear_native_caches()
    assert len(PROCESS_CACHE) == 0
    assert tape.plan_for_partition(graph, partition) is plan
    rebuilt = native_exec.native_plan_for_partition(graph, partition)
    assert rebuilt is not native
    assert rebuilt.plan is plan


def test_plan_reset_drops_everything():
    graph, partition = _fused()
    plan = tape.plan_for_partition(graph, partition)
    native = native_exec.native_plan_for_partition(graph, partition)
    run(graph, request_inputs(APPLICATIONS["Sobel"], 32, 24, seed=0))
    assert len(PROCESS_CACHE) == 1

    tape.clear_plan_caches()
    assert len(PROCESS_CACHE) == 0
    rebuilt = native_exec.native_plan_for_partition(graph, partition)
    assert rebuilt is not native
    assert rebuilt.plan is not plan
    assert rebuilt.plan is tape.plan_for_partition(graph, partition)
    assert rebuilt.plan.store is not plan.store
