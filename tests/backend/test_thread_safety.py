"""Concurrency regressions for the execution backends.

The serving runtime executes cached plans from multiple scheduler
threads at once, so the structures under a plan — the interned
coordinate grids of :class:`~repro.backend.plan.GridStore`, the
per-graph plan memos, and the content-hashed compile cache of
:mod:`repro.backend.cpu_exec` — must tolerate concurrent first-use and
reuse.  Each test here hammers one of those paths and asserts the
results stay bit-identical to a serial run.
"""

import shutil
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import BLUR3, BLUR5, chain_pipeline, diamond_pipeline, random_image

from repro.apps import APPLICATIONS
from repro.backend.plan import (
    GridStore,
    clear_plan_caches,
    plan_for_partition,
)
from repro.eval.runner import partition_for
from repro.graph.partition import Partition
from repro.model.hardware import GTX680

THREADS = 8
ROUNDS = 25


class TestGridStoreConcurrency:
    def test_concurrent_interning_yields_one_grid_per_key(self):
        graph = chain_pipeline(("l", "l"), 16, 12, masks=[BLUR3, BLUR5]).build()
        partition = partition_for(graph, GTX680, "optimized")
        barrier = threading.Barrier(THREADS)

        # Shared store, many threads interning the same grids at once.
        store = GridStore()
        from repro.backend.plan import PartitionPlan

        def build_and_run():
            barrier.wait()
            plan = PartitionPlan(
                graph, partition, naive_borders=False, store=store
            )
            return plan.execute({"img0": random_image(16, 12, seed=5)}, None)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(build_and_run) for _ in range(THREADS)]
            results = [future.result(timeout=60) for future in futures]

        reference = results[0]
        for env in results[1:]:
            assert set(env) == set(reference)
            for name in reference:
                assert np.array_equal(env[name], reference[name])

    def test_interned_grids_are_shared(self):
        store = GridStore()
        key = ("base", "x", 12, 8)
        grids = []

        def intern():
            grids.append(store.grid(key))

        threads = [threading.Thread(target=intern) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(g is grids[0] for g in grids)
        assert store.materialized == 1


class TestPlanCacheConcurrency:
    def test_concurrent_plan_for_partition_returns_one_plan(self):
        clear_plan_caches()
        graph = diamond_pipeline(16, 12).build()
        partition = partition_for(graph, GTX680, "optimized")
        barrier = threading.Barrier(THREADS)

        def fetch():
            barrier.wait()
            return plan_for_partition(graph, partition)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            plans = [
                future.result(timeout=60)
                for future in [pool.submit(fetch) for _ in range(THREADS)]
            ]
        assert all(plan is plans[0] for plan in plans)

    def test_racing_first_uses_compile_each_tape_once(self, monkeypatch):
        # A plan whose record vouched for it compiles its tapes on first
        # need; threads that need them at once share one compile.
        from repro.backend import plan as tape

        graph = chain_pipeline(("l", "p", "l"), 20, 14).build()
        partition = Partition.singletons(graph)
        compiled = []
        real = tape.compile_block

        def compiling(*args, **kwargs):
            compiled.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(tape, "compile_block", compiling)
        plan = tape.PartitionPlan(graph, partition)
        assert not compiled
        barrier = threading.Barrier(THREADS)
        inputs = {"img0": random_image(20, 14, seed=1)}

        def first_use():
            barrier.wait()
            return plan.plans, plan.execute(inputs, None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more threads than cores, switching often
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                results = [
                    future.result(timeout=60)
                    for future in [pool.submit(first_use) for _ in range(THREADS)]
                ]
        finally:
            sys.setswitchinterval(interval)
        assert len(compiled) == len(partition)
        assert all(plans is results[0][0] for plans, _ in results)
        for _, env in results[1:]:
            for name, value in results[0][1].items():
                assert np.array_equal(env[name], value)

    def test_concurrent_reuse_is_bit_identical_to_serial(self):
        clear_plan_caches()
        graph = chain_pipeline(("l", "p", "l"), 20, 14).build()
        partition = partition_for(graph, GTX680, "optimized")
        plan = plan_for_partition(graph, partition)
        workload = [
            {"img0": random_image(20, 14, seed=seed)} for seed in range(ROUNDS)
        ]
        serial = [plan.execute(inputs, None) for inputs in workload]

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [
                pool.submit(plan.execute, inputs, None)
                for inputs in workload
            ]
            concurrent = [future.result(timeout=60) for future in futures]

        for expected, got in zip(serial, concurrent):
            assert set(expected) == set(got)
            for name in expected:
                assert np.array_equal(expected[name], got[name])


class TestDerivedValueConcurrency:
    def test_concurrent_first_reads_match_a_serial_read(self):
        """Scheduler threads may be the first to sign a graph or read a
        kernel's derived values; every thread must see the serial value
        (``functools.cached_property`` locks a first compute on Python
        3.11 and earlier, and does not on 3.12)."""

        def read(graph):
            return (
                graph.structural_signature(),
                graph.structure_signature(),
                [graph.consumers_of(name) for name in graph.pipeline_inputs()],
                [
                    (k.window_radius, k.op_counts, k.body_signature)
                    for k in graph.kernels()
                ],
            )

        serial = read(APPLICATIONS["Harris"].build(96, 64).build())
        graph = APPLICATIONS["Harris"].build(96, 64).build()
        barrier = threading.Barrier(THREADS)

        def first_read():
            barrier.wait()
            return read(graph)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [pool.submit(first_read) for _ in range(THREADS)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(result == serial for result in results)


class TestCompileCacheConcurrency:
    def test_concurrent_compiles_of_same_source(self, monkeypatch):
        from repro.backend.cpu_exec import (
            CACHE_ENV,
            _find_compiler,
            compiler_available,
            load_shared_library,
        )
        from repro.backend.native_exec import lower_partition_source

        if not compiler_available():
            pytest.skip("no C compiler on PATH")

        cache_dir = Path(tempfile.mkdtemp(prefix="repro-cc-test-"))
        monkeypatch.setenv(CACHE_ENV, str(cache_dir))
        try:
            graph = chain_pipeline(("p", "l"), 12, 10).build()
            source = lower_partition_source(
                graph, Partition.singletons(graph)
            )
            cc = _find_compiler()
            barrier = threading.Barrier(4)

            def compile_and_load():
                barrier.wait()
                library, path, _ = load_shared_library(source, cc)
                assert library.repro_block_1_img2  # the symbol resolves
                return path

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(compile_and_load) for _ in range(4)]
                paths = [future.result(timeout=120) for future in futures]

            # The content-hash cache holds exactly one library for the
            # one distinct source, and no scratch leftovers.
            assert set(paths) == set(cache_dir.glob("pipeline-*.so"))
            assert len(set(paths)) == 1
            assert not list(cache_dir.glob("*.partial.so"))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


class TestCompileCacheEviction:
    """Stale-artifact eviction (``REPRO_CC_CACHE_MAX``) under load."""

    @pytest.fixture
    def cache_dir(self, monkeypatch):
        from repro.backend.cpu_exec import CACHE_ENV

        path = Path(tempfile.mkdtemp(prefix="repro-cc-evict-"))
        monkeypatch.setenv(CACHE_ENV, str(path))
        yield path
        shutil.rmtree(path, ignore_errors=True)

    @staticmethod
    def _fake_artifact(cache_dir, index, size, mtime):
        library = cache_dir / f"pipeline-{index:024d}.so"
        library.write_bytes(b"\0" * size)
        import os

        os.utime(library, (mtime, mtime))
        return library

    def test_evicts_oldest_beyond_cap(self, cache_dir, monkeypatch):
        from repro.backend.cpu_exec import CACHE_MAX_ENV, evict_stale_artifacts

        libraries = [
            self._fake_artifact(cache_dir, i, size=1000, mtime=1000.0 + i)
            for i in range(6)
        ]
        monkeypatch.setenv(CACHE_MAX_ENV, "3000")
        assert evict_stale_artifacts() == 3
        survivors = sorted(p.name for p in cache_dir.glob("pipeline-*.so"))
        assert survivors == sorted(p.name for p in libraries[3:])

    def test_keep_pins_artifact_and_unset_knob_is_noop(
        self, cache_dir, monkeypatch
    ):
        from repro.backend.cpu_exec import CACHE_MAX_ENV, evict_stale_artifacts

        oldest = self._fake_artifact(cache_dir, 0, size=1000, mtime=1000.0)
        newest = self._fake_artifact(cache_dir, 1, size=1000, mtime=2000.0)
        assert evict_stale_artifacts() == 0  # knob unset: unbounded
        monkeypatch.setenv(CACHE_MAX_ENV, "1")  # cap below any artifact
        assert evict_stale_artifacts(keep=oldest) == 1
        assert oldest.exists()  # pinned despite being over budget
        assert not newest.exists()

    def test_concurrent_eviction_and_reload(self, cache_dir, monkeypatch):
        # Readers racing an evictor must never crash and always end up
        # with a working library: load_shared_library recompiles when
        # its freshly-hit artifact is unlinked before dlopen.
        from repro.backend.cpu_exec import (
            CACHE_MAX_ENV,
            _find_compiler,
            compiler_available,
            evict_stale_artifacts,
            load_shared_library,
        )

        if not compiler_available():
            pytest.skip("no C compiler on PATH")
        cc = _find_compiler()
        sources = [
            f"double repro_probe_{i}(void) {{ return {i}.0; }}\n"
            for i in range(4)
        ]
        monkeypatch.setenv(CACHE_MAX_ENV, "1")  # evict everything else
        barrier = threading.Barrier(THREADS)
        errors = []

        def hammer(thread_index):
            barrier.wait()
            for round_index in range(6):
                source = sources[(thread_index + round_index) % len(sources)]
                try:
                    library, _, _ = load_shared_library(source, cc)
                    fn = getattr(
                        library,
                        f"repro_probe_{sources.index(source)}",
                    )
                    import ctypes

                    fn.restype = ctypes.c_double
                    assert fn() == float(sources.index(source))
                    evict_stale_artifacts()
                except Exception as err:  # pragma: no cover - failure path
                    errors.append(err)

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert not list(cache_dir.glob("*.partial.so"))

    def test_bad_size_knob_names_variable(self, monkeypatch):
        from repro.backend.cpu_exec import CACHE_MAX_ENV, evict_stale_artifacts

        monkeypatch.setenv(CACHE_MAX_ENV, "lots")
        with pytest.raises(ValueError, match=CACHE_MAX_ENV):
            evict_stale_artifacts()
