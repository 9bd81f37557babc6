"""Compiled C on real buffers, cross-validated against the staged oracle.

The native engine lowers block tapes to C; :mod:`repro.backend.cpu_exec`
compiles, caches and loads it.  These tests run whole pipelines through
``engine="native"`` — including the halo bodies that implement index
exchange for fused local-to-local kernels — and pin the ``.so`` cache's
recovery from a corrupt artifact.  Skipped when no C compiler is
available.
"""

import ctypes

import numpy as np
import pytest

from helpers import STAGED, chain_pipeline, image, point_kernel, random_image

from repro.api import ExecutionOptions, run
from repro.apps.enhancement import build_pipeline as build_enhance
from repro.apps.sobel import build_pipeline as build_sobel
from repro.apps.unsharp import build_pipeline as build_unsharp
from repro.backend.cpu_exec import (
    CACHE_ENV,
    _find_compiler,
    compile_shared_library,
    compiler_available,
    load_shared_library,
)
from repro.backend.native_exec import (
    NativeLoweringError,
    clear_native_caches,
    lower_block_source,
    native_plan_for_partition,
)
from repro.backend.numpy_exec import ExecutionError
from repro.backend.plan import plan_for_partition
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.pipeline import Pipeline
from repro.graph.partition import Partition, PartitionBlock

# A cold direct native request compiles before it answers: this suite's
# subject is native output, which a tiered first answer would not be.
pytestmark = [
    pytest.mark.skipif(not compiler_available(), reason="no C compiler on PATH"),
    pytest.mark.usefixtures("blocking_native"),
]

NATIVE = ExecutionOptions(engine="native")
NATIVE_STAGED = ExecutionOptions(engine="native", fuse=False)


def reference(graph, inputs, params=None):
    return run(graph, inputs, params, options=STAGED)


class TestBaselinePipelines:
    def test_point_chain(self):
        graph = chain_pipeline(("p", "p"), 16, 16).build()
        data = {"img0": random_image(16, 16, seed=1)}
        env = run(graph, data, options=NATIVE_STAGED)
        np.testing.assert_array_equal(
            env["img2"], reference(graph, data)["img2"]
        )

    @pytest.mark.parametrize(
        "mode",
        [BoundaryMode.CLAMP, BoundaryMode.MIRROR, BoundaryMode.REPEAT],
        ids=lambda m: m.value,
    )
    def test_local_kernel_boundaries(self, mode):
        graph = chain_pipeline(("l",), 12, 12, boundary=mode).build()
        data = {"img0": random_image(12, 12, seed=2)}
        env = run(graph, data, options=NATIVE_STAGED)
        np.testing.assert_array_equal(
            env["img1"], reference(graph, data)["img1"]
        )

    def test_constant_boundary(self):
        spec = BoundarySpec(BoundaryMode.CONSTANT, 7.5)
        graph = chain_pipeline(("l",), 10, 10, boundary=spec).build()
        data = {"img0": random_image(10, 10, seed=3)}
        env = run(graph, data, options=NATIVE_STAGED)
        np.testing.assert_array_equal(
            env["img1"], reference(graph, data)["img1"]
        )


class TestFusedPipelines:
    def test_fused_sobel_matches_reference(self):
        graph = build_sobel(24, 24).build()
        data = {"input": random_image(24, 24, seed=4)}
        env = run(graph, data, options=NATIVE)
        np.testing.assert_array_equal(
            env["magnitude"], reference(graph, data)["magnitude"]
        )

    def test_fused_unsharp_matches_reference(self):
        graph = build_unsharp(20, 20).build()
        data = {"input": random_image(20, 20, seed=5)}
        env = run(graph, data, options=NATIVE)
        np.testing.assert_array_equal(
            env["sharpened"], reference(graph, data)["sharpened"]
        )

    def test_fused_local_to_local_borders_correct(self):
        # The compiled halo body must implement index exchange: the
        # border values of a fused double convolution match the staged
        # reference exactly.  The fusion is forced (the benefit model
        # would refuse this cheap pair; correctness must hold anyway).
        graph = chain_pipeline(
            ("l", "l"), 14, 14, boundary=BoundaryMode.CLAMP
        ).build()
        data = {"img0": random_image(14, 14, seed=6)}
        partition = Partition(graph, [PartitionBlock(graph, {"k0", "k1"})])
        env = run(
            graph, data,
            options=ExecutionOptions(engine="native", partition=partition),
        )
        expected = reference(graph, data)["img2"]
        np.testing.assert_array_equal(env["img2"], expected)
        # Explicitly check the corner pixel (the Fig. 4 hot spot).
        assert env["img2"][0, 0] == expected[0, 0]

    def test_scalar_parameters(self):
        graph = build_enhance(12, 12).build()
        data = {"input": random_image(12, 12, seed=7) + 1.0}
        env = run(graph, data, {"gamma": 0.8}, options=NATIVE)
        expected = reference(graph, data, {"gamma": 0.8})
        # ``pow`` is libm, not IEEE-exact: the pinned tolerance applies.
        np.testing.assert_allclose(
            env["enhanced"], expected["enhanced"], rtol=1e-12, atol=1e-12
        )

    def test_unbound_parameter_raises(self):
        graph = build_enhance(8, 8).build()
        with pytest.raises(ExecutionError, match="gamma"):
            run(graph, {"input": np.ones((8, 8))}, options=NATIVE_STAGED)


class TestMultiChannel:
    def test_rgb_pipeline_runs_per_plane(self):
        pipe = Pipeline("rgb")
        images = [image(f"img{i}", 8, 8, channels=3) for i in range(3)]
        pipe.add(point_kernel("k0", images[0], images[1]))
        pipe.add(point_kernel("k1", images[1], images[2]))
        graph = pipe.build()
        plan = native_plan_for_partition(graph, Partition.singletons(graph))
        assert plan.fallback_block_count == 0  # compiled, plane by plane
        data = random_image(8, 8, channels=3, seed=8)
        env = run(graph, {"img0": data}, options=NATIVE_STAGED)
        assert env["img2"].shape == (8, 8, 3)
        np.testing.assert_array_equal(
            env["img2"], (data * 2.0 + 1.0) * 2.0 + 1.0
        )


class TestDiagnostics:
    def test_source_attached(self):
        graph = chain_pipeline(("p",), 8, 8).build()
        plan = native_plan_for_partition(graph, Partition.singletons(graph))
        assert "void repro_block_0_img1(" in plan.source

    def test_global_operator_rejected(self):
        from repro.dsl.kernel import Accessor, Kernel, ReductionKind
        from repro.ir.expr import InputAt

        pipe = Pipeline("glob")
        src = image("a", 8, 8)
        total = image("total", 1, 1)
        pipe.add(Kernel("red", [Accessor(src)], total, InputAt("a"),
                        reduction=ReductionKind.SUM))
        graph = pipe.build()
        # The C lowering refuses a reduction; the native engine then
        # leaves that block to the tape instead of failing the request.
        partition = Partition.singletons(graph)
        (block_plan,) = plan_for_partition(graph, partition).plans
        with pytest.raises(NativeLoweringError, match="no native lowering"):
            lower_block_source(block_plan)
        plan = native_plan_for_partition(graph, partition)
        assert plan.fallback_block_count == 1


class TestPoisonedCache:
    """A truncated ``.so`` must not poison its cache digest forever."""

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        return tmp_path

    def test_truncated_library_is_rebuilt(self, cache_dir):
        source = "double repro_probe(void) { return 42.0; }\n"
        cc = _find_compiler()
        # Compile without loading: truncating a mapped library is unsafe.
        path, _ = compile_shared_library(source, cc)
        path.write_bytes(path.read_bytes()[:100])
        library, rebuilt, from_cache = load_shared_library(source, cc)
        assert rebuilt == path and not from_cache
        library.repro_probe.restype = ctypes.c_double
        assert library.repro_probe() == 42.0

    def test_native_run_survives_a_corrupt_cache(
        self, cache_dir, tmp_path_factory, monkeypatch
    ):
        graph = chain_pipeline(("l", "l"), 12, 10).build()
        data = {"img0": random_image(12, 10, seed=9)}
        expected = run(graph, data, options=NATIVE)
        # Same digests, truncated, in a second directory: a new path, so
        # dlopen cannot hand back the healthy library loaded above.
        poisoned = tmp_path_factory.mktemp("poisoned-cc-cache")
        for library in cache_dir.glob("pipeline-*.so"):
            (poisoned / library.name).write_bytes(library.read_bytes()[:100])
        monkeypatch.setenv(CACHE_ENV, str(poisoned))
        clear_native_caches()
        env = run(graph, data, options=NATIVE)
        for image, value in expected.items():
            np.testing.assert_array_equal(env[image], value)


class TestCompilerDiscovery:
    """``api.run`` asks the engine table for the native engine on every
    request; the PATH walk behind the answer happens once per PATH."""

    def test_warm_requests_do_not_walk_path(self, monkeypatch):
        import shutil

        graph = build_sobel(24, 16).build()
        inputs = {"input": random_image(24, 16, seed=3)}
        options = ExecutionOptions(engine="native")
        run(graph, inputs, options=options)
        walks = []
        real = shutil.which

        def counting(name, *args, **kwargs):
            walks.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(shutil, "which", counting)
        for _ in range(100):
            run(graph, inputs, options=options)
        assert walks == []

    def test_a_changed_path_is_looked_at_again(self, monkeypatch, tmp_path):
        found = _find_compiler()
        assert found is not None
        monkeypatch.setenv("PATH", str(tmp_path))  # a compiler-less host
        assert _find_compiler() is None and not compiler_available()
        monkeypatch.undo()
        assert _find_compiler() == found
