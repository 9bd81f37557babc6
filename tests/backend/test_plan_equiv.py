"""Differential tests: tape engine vs. recursive engine vs. staged.

The plan-compiling tape executor (:mod:`repro.backend.plan`) must be a
*perfect* stand-in for the recursive fused engine — bit-identical
output on every paper application, every legal partition (including
randomized ones), every boundary mode, and under ``naive_borders``.
Staged execution is the third oracle: fused results must also agree
bit-for-bit with unfused execution, since both perform the same
element-wise float64 operations.
"""

import zlib

import numpy as np
import pytest

from helpers import STAGED, chain_pipeline, image, local_kernel, random_image

from repro.api import ExecutionOptions, FusionSettings, run, run_block
from repro.apps import APPLICATIONS
from repro.backend.numpy_exec import ExecutionError, block_schedule
from repro.backend.plan import (
    clear_plan_caches,
    plan_for_partition,
    resolve_workers,
)
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.kernel import Kernel
from repro.dsl.pipeline import Pipeline
from repro.eval.runner import partition_for
from repro.graph.partition import Partition, PartitionBlock
from repro.ir.expr import Const
from repro.model.hardware import GTX680
from repro.serve.plancache import PROCESS_CACHE

#: Runtime parameter bindings covering every app's ``Param`` reads.
APP_PARAMS = {"gamma": 0.8, "threshold": 100.0}
NAIVE = FusionSettings(naive_borders=True)

#: The six evaluation applications, at shrunk geometry (border-heavy).
APP_GEOMETRY = {
    "Harris": (40, 28),
    "Sobel": (40, 28),
    "Unsharp": (40, 28),
    "ShiTomasi": (40, 28),
    "Enhance": (40, 28),
    "Night": (24, 18),
}


def _build(app_name):
    spec = APPLICATIONS[app_name]
    width, height = APP_GEOMETRY[app_name]
    graph = spec.build(width, height).build()
    shape = (height, width)
    if spec.channels > 1:
        shape = shape + (spec.channels,)
    rng = np.random.default_rng(zlib.crc32(app_name.encode()))
    inputs = {
        name: rng.uniform(0.0, 255.0, size=shape)
        for name in graph.pipeline_inputs()
    }
    return graph, inputs


def _random_partition(graph, rng):
    """A randomized legal partition: greedy random edge merges.

    A merge is kept only when the combined block has a unique
    destination, contains no global operator, and the resulting
    partition still schedules acyclically — the same constraints the
    executors enforce.
    """
    blocks = [set(b.vertices) for b in Partition.singletons(graph).blocks]
    edges = list(graph.edges)
    rng.shuffle(edges)
    for edge in edges:
        src_block = next(b for b in blocks if edge.src in b)
        dst_block = next(b for b in blocks if edge.dst in b)
        if src_block is dst_block:
            continue
        merged = src_block | dst_block
        if any(graph.kernel(n).reduction is not None for n in merged):
            continue
        candidate = [b for b in blocks if b is not src_block and b is not dst_block]
        candidate.append(merged)
        try:
            merged_block = PartitionBlock(graph, merged)
            if len(merged_block.destination_kernels()) != 1:
                continue
            partition = Partition(
                graph, [PartitionBlock(graph, b) for b in candidate]
            )
            block_schedule(graph, partition)
        except Exception:
            continue
        blocks = candidate
    return Partition(graph, [PartitionBlock(graph, b) for b in blocks])


def _partitions_for(graph, app_name):
    partitions = {
        "baseline": Partition.singletons(graph),
        "optimized": partition_for(graph, GTX680, "optimized"),
        "basic": partition_for(graph, GTX680, "basic"),
    }
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed * 1000 + zlib.crc32(app_name.encode()))
        partitions[f"random{seed}"] = _random_partition(graph, rng)
    return partitions


@pytest.mark.parametrize("app_name", sorted(APP_GEOMETRY))
class TestSixAppEquivalence:
    def test_tape_matches_recursive_and_staged(self, app_name):
        graph, inputs = _build(app_name)
        staged = run(
            graph, inputs, APP_PARAMS,
            options=ExecutionOptions(engine="recursive", fuse=False),
        )
        for label, partition in _partitions_for(graph, app_name).items():
            recursive = run(
                graph, inputs, APP_PARAMS,
                options=ExecutionOptions(
                    engine="recursive", partition=partition
                ),
            )
            tape = run(
                graph, inputs, APP_PARAMS,
                options=ExecutionOptions(engine="tape", partition=partition),
            )
            assert set(tape) == set(recursive), (app_name, label)
            for image, expected in recursive.items():
                np.testing.assert_array_equal(
                    tape[image],
                    expected,
                    err_msg=f"{app_name}/{label}/{image}: tape != recursive",
                )
                np.testing.assert_array_equal(
                    tape[image],
                    staged[image],
                    err_msg=f"{app_name}/{label}/{image}: tape != staged",
                )

    def test_naive_borders_match_recursive(self, app_name):
        graph, inputs = _build(app_name)
        for label, partition in _partitions_for(graph, app_name).items():
            recursive = run(
                graph, inputs, APP_PARAMS,
                options=ExecutionOptions(
                    engine="recursive", partition=partition, fusion=NAIVE
                ),
            )
            tape = run(
                graph, inputs, APP_PARAMS,
                options=ExecutionOptions(
                    engine="tape", partition=partition, fusion=NAIVE
                ),
            )
            for image, expected in recursive.items():
                np.testing.assert_array_equal(
                    tape[image],
                    expected,
                    err_msg=f"{app_name}/{label}/{image}: naive tape != recursive",
                )

    def test_parallel_blocks_match_serial(self, app_name):
        graph, inputs = _build(app_name)
        partition = partition_for(graph, GTX680, "optimized")
        serial = run(
            graph, inputs, APP_PARAMS,
            options=ExecutionOptions(engine="tape", partition=partition),
        )
        parallel = run(
            graph, inputs, APP_PARAMS,
            options=ExecutionOptions(
                engine="tape", workers=4, partition=partition
            ),
        )
        for image, expected in serial.items():
            np.testing.assert_array_equal(parallel[image], expected)


MODES = [
    BoundarySpec(BoundaryMode.CLAMP),
    BoundarySpec(BoundaryMode.MIRROR),
    BoundarySpec(BoundaryMode.REPEAT),
    BoundarySpec(BoundaryMode.CONSTANT, constant=3.5),
]


class TestBlockEquivalence:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
    def test_deep_local_chain_block(self, mode):
        graph = chain_pipeline(("l", "l", "l"), 12, 10, boundary=mode).build()
        data = {"img0": random_image(12, 10, seed=21)}
        block = PartitionBlock(graph, {"k0", "k1", "k2"})
        recursive = run_block(
            graph, block, data,
            options=ExecutionOptions(engine="recursive"),
        )
        tape = run_block(
            graph, block, data,
            options=ExecutionOptions(engine="tape"),
        )
        np.testing.assert_array_equal(tape, recursive)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
    def test_naive_borders_block(self, mode):
        graph = chain_pipeline(("l", "l"), 10, 9, boundary=mode).build()
        data = {"img0": random_image(10, 9, seed=22)}
        block = PartitionBlock(graph, {"k0", "k1"})
        recursive = run_block(
            graph, block, data,
            options=ExecutionOptions(engine="recursive", fusion=NAIVE),
        )
        tape = run_block(
            graph, block, data,
            options=ExecutionOptions(engine="tape", fusion=NAIVE),
        )
        np.testing.assert_array_equal(tape, recursive)

    def test_no_unique_destination_raises(self):
        graph = chain_pipeline(("p", "p", "p"), 6, 6).build()
        block = PartitionBlock(graph, {"k0", "k2"})
        with pytest.raises(ExecutionError, match="destination"):
            run_block(
                graph, block, {"img0": np.zeros((6, 6))},
                options=ExecutionOptions(engine="tape"),
            )


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        graph = chain_pipeline(("p",), 4, 4).build()
        with pytest.raises(ExecutionError, match="engine"):
            run(
                graph, {"img0": np.zeros((4, 4))},
                options=ExecutionOptions(engine="warp", fuse=False),
            )

    def test_engine_env_var(self, monkeypatch):
        graph = chain_pipeline(("p", "l"), 8, 8).build()
        data = {"img0": random_image(8, 8, seed=5)}
        monkeypatch.setenv("REPRO_EXEC_ENGINE", "recursive")
        recursive = run(graph, data, options=STAGED)
        monkeypatch.setenv("REPRO_EXEC_ENGINE", "tape")
        tape = run(graph, data, options=STAGED)
        for image, expected in recursive.items():
            np.testing.assert_array_equal(tape[image], expected)

    def test_workers_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "not-a-number")
        with pytest.raises(ValueError, match="REPRO_EXEC_WORKERS"):
            resolve_workers()
        monkeypatch.delenv("REPRO_EXEC_WORKERS")
        assert resolve_workers() == 1
        assert resolve_workers(4) == 4

    def test_call_counter_forces_recursive_semantics(self):
        # Instrumented runs must keep counting recursive re-evaluations
        # even though the tape engine deduplicates them.
        graph = chain_pipeline(("l", "l"), 8, 8).build()
        data = {"img0": random_image(8, 8, seed=6)}
        counter = {}
        run_block(
            graph, PartitionBlock(graph, {"k0", "k1"}), data,
            call_counter=counter,
        )
        assert counter["k0"] == 9  # one recursive eval per consumer tap


class TestPlanCachingAndInterning:
    def test_partition_plan_is_cached(self):
        graph = chain_pipeline(("p", "l", "p"), 8, 8).build()
        partition = Partition(
            graph,
            [PartitionBlock(graph, {"k0", "k1"}), PartitionBlock(graph, {"k2"})],
        )
        first = plan_for_partition(graph, partition)
        second = plan_for_partition(graph, partition)
        assert first is second

    def test_repeated_run_block_is_a_process_cache_hit(self):
        graph = chain_pipeline(("p", "l", "l"), 8, 8).build()
        block = PartitionBlock(graph, {"k1", "k2"})
        data = {"img1": random_image(8, 8, seed=4)}
        first = run_block(graph, block, data)
        stats = PROCESS_CACHE.stats()
        again = run_block(graph, block, dict(data))
        after = PROCESS_CACHE.stats()
        assert (after["hits"], after["misses"]) == (
            stats["hits"] + 1, stats["misses"]
        )
        np.testing.assert_array_equal(again, first)
        run_block(
            graph, block, data, options=ExecutionOptions(fusion=NAIVE)
        )
        assert PROCESS_CACHE.stats()["misses"] == stats["misses"] + 1

    def test_grids_interned_across_runs(self):
        clear_plan_caches()
        graph = chain_pipeline(("l", "l"), 10, 8).build()
        block = PartitionBlock(graph, {"k0", "k1"})
        plan = plan_for_partition(graph, Partition(graph, [block])).plans[0]
        data = {"img0": random_image(10, 8, seed=7)}
        plan.execute(data)
        materialized = plan.store.materialized
        plan.execute(data)  # second run: every grid is a cache hit
        assert plan.store.materialized == materialized

    def test_gridstore_lru_bounds_and_reinterns(self):
        from repro.backend.plan import GridStore

        store = GridStore(capacity=2)
        keys = [("base", "x", width, 4) for width in (5, 6, 7)]
        first = store.grid(keys[0])
        store.grid(keys[1])
        store.grid(keys[2])  # evicts keys[0] (least recently used)
        assert len(store) == 2
        assert store.evictions == 1
        assert store.materialized == 3
        again = store.grid(keys[0])  # re-materialized, not an error
        assert store.materialized == 4
        np.testing.assert_array_equal(again, first)
        # Touching an entry protects it from the next eviction.
        store.grid(keys[2])
        store.grid(keys[1])  # evicts keys[0] again, not keys[2]
        assert store.grid(keys[2]) is not None
        hits_before = store.hits
        store.grid(keys[2])
        assert store.hits == hits_before + 1

    def test_gridstore_derived_chain_survives_within_capacity(self):
        # Derived keys materialize parents recursively; a resolve over
        # a shifted grid stays correct when entries recycle.
        from repro.backend.plan import GridStore

        store = GridStore(capacity=3)
        base = ("base", "x", 6, 4)
        shifted = ("shift", base, 2)
        resolved = ("resolve", shifted, 6, BoundaryMode.CLAMP.value)
        expected = np.clip(np.arange(6)[None, :] + 2, 0, 5)
        np.testing.assert_array_equal(store.grid(resolved), expected)
        np.testing.assert_array_equal(
            GridStore(capacity=1).grid(resolved), expected
        )

    def test_producer_result_cache_deduplicates(self):
        # Two members read the same producer at the same grid: the
        # recursive engine evaluates the producer per consumer read;
        # the tape caches by (producer, grid) and compiles it once.
        pipe = Pipeline("shared")
        src = image("src", 8, 8)
        mid = image("mid", 8, 8)
        scaled = image("scaled", 8, 8)
        out = image("out", 8, 8)
        pipe.add(local_kernel("k0", src, mid))
        pipe.add(
            Kernel.from_function(
                "k1", [mid], scaled, lambda a: a() * Const(2.0)
            )
        )
        pipe.add(
            Kernel.from_function(
                "k2", [mid, scaled], out, lambda a, b: a() + b()
            )
        )
        graph = pipe.build()
        block = PartitionBlock(graph, {"k0", "k1", "k2"})
        plan = plan_for_partition(graph, Partition(graph, [block])).plans[0]
        assert plan.stats.producer_cache_hits >= 1
        data = {"src": random_image(8, 8, seed=9)}
        recursive = run_block(
            graph, block, data,
            options=ExecutionOptions(engine="recursive"),
        )
        np.testing.assert_array_equal(plan.execute(data), recursive)

    def test_tape_has_no_recursion_limit_dependence(self):
        # A 60-kernel point chain would recurse ~60 body-depths deep in
        # the recursive engine; the tape executes iteratively.
        import sys

        graph = chain_pipeline(("p",) * 60, 6, 6).build()
        data = {"img0": random_image(6, 6, seed=8)}
        block = PartitionBlock(graph, set(graph.kernel_names))
        prior = sys.getrecursionlimit()
        tape = run_block(
            graph, block, data,
            options=ExecutionOptions(engine="tape"),
        )
        assert sys.getrecursionlimit() == prior  # no global mutation
        recursive = run_block(
            graph, block, data,
            options=ExecutionOptions(engine="recursive"),
        )
        assert sys.getrecursionlimit() == prior  # scoped, restored
        np.testing.assert_array_equal(tape, recursive)
