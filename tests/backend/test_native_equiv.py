"""Differential tests: native engine vs tape engine vs recursive engine.

The native backend (:mod:`repro.backend.native_exec`) lowers block
tapes to compiled C loop nests; these tests pin its numerical contract
against the tape interpreter (and, transitively, the recursive
reference engine) on every paper application and randomized legal
partitions.

**Pinned tolerance policy** (:func:`repro.backend.native_exec.
tolerance_for`): a block tape whose ``call`` instructions all lie in
``EXACT_CALLS`` (``sqrt``/``rsqrt`` — IEEE 754 correctly-rounded
operations) must produce **bit-identical** output, because every other
lowered operation (arithmetic, comparisons, selects, boundary index
resolution, NumPy-compatible ``mod``/``min``/``max``) is exact and the
kernels compile with ``-ffp-contract=off`` to forbid FMA contraction.
Tapes using any other libm call (``exp``, ``pow``, ``tanh``, ...)
compare under ``rtol = atol = 1e-12`` — glibc's transcendentals are
faithfully- but not correctly-rounded, so the last ulp (measured
divergence ~4e-16 relative per call) may legitimately differ from
NumPy's; 1e-12 leaves headroom for compounding across fused chains
while still failing loudly on any real lowering bug.

Tests that need a C toolchain are skipped without one; the fallback
tests run everywhere.
"""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import chain_pipeline, random_image, row_band_everywhere, served_natively

from repro.api import ExecutionOptions, FusionSettings, run, run_block
from repro.apps import ALL_APPS, APPLICATIONS
from repro.backend import native_exec, native_lower
from repro.backend.cpu_exec import openmp_available
from repro.backend.native_exec import (
    EXACT_CALLS,
    NativeVerificationError,
    assert_native_equiv,
    lower_block_source,
    lower_partition_source,
    native_available,
    native_plan_for_partition,
    resolve_native_threads,
    tolerance_for,
)
from repro.backend.numpy_exec import block_schedule
from repro.backend.plan import plan_for_partition
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.envknobs import EnvKnobError, native_lowering
from repro.eval.runner import partition_for
from repro.graph.partition import Partition, PartitionBlock
from repro.lazy.apps import lazy_trace
from repro.model.hardware import GTX680

# A cold direct native request compiles before it answers: this suite's
# subject is native output, which a tiered first answer would not be.
pytestmark = pytest.mark.usefixtures("blocking_native")

needs_cc = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

#: Runtime parameter bindings covering every app's ``Param`` reads.
APP_PARAMS = {"gamma": 0.8, "threshold": 100.0}

#: The six evaluation applications, at shrunk geometry (border-heavy).
APP_GEOMETRY = {
    "Harris": (40, 28),
    "Sobel": (40, 28),
    "Unsharp": (40, 28),
    "ShiTomasi": (40, 28),
    "Enhance": (40, 28),
    "Night": (24, 18),
}


def _build(app_name, registry=APPLICATIONS):
    spec = registry[app_name]
    width, height = APP_GEOMETRY.get(app_name, (24, 18))
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
    """A randomized legal partition: greedy random edge merges (the
    same constraints the executors enforce — unique destination, no
    reductions inside a fused group, acyclic schedule)."""
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
        candidate = [
            b for b in blocks if b is not src_block and b is not dst_block
        ]
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
        rng = np.random.default_rng(
            seed * 1000 + zlib.crc32(app_name.encode())
        )
        partitions[f"random{seed}"] = _random_partition(graph, rng)
    return partitions


NATIVE = ExecutionOptions(engine="native")
TAPE = ExecutionOptions(engine="tape")


def _alone(graph, block, **kwargs):
    """``(block plan, native block)`` of ``block`` — the whole of
    ``graph`` — compiled as a one-block partition, which is what
    ``run_block`` runs."""
    partition = Partition(graph, [block])
    (pair,) = native_plan_for_partition(graph, partition, **kwargs).blocks
    return pair


def _assert_env_equiv(native, expected, tolerance, context):
    assert set(native) == set(expected), context
    for name in expected:
        assert_native_equiv(
            expected[name], native[name], tolerance, f"{context}/{name}"
        )


@needs_cc
@pytest.mark.parametrize("app_name", sorted(APP_GEOMETRY))
class TestSixAppNativeEquivalence:
    def test_native_matches_tape_and_recursive(self, app_name):
        graph, inputs = _build(app_name)
        recursive = run(
            graph, inputs, APP_PARAMS,
            options=ExecutionOptions(engine="recursive", fuse=False),
        )
        for label, partition in _partitions_for(graph, app_name).items():
            nplan = native_plan_for_partition(graph, partition)
            assert nplan.native_block_count >= 1, (app_name, label)
            native = nplan.execute(dict(inputs), APP_PARAMS)
            tape = run(
                graph, inputs, APP_PARAMS,
                options=ExecutionOptions(engine="tape", partition=partition),
            )
            _assert_env_equiv(
                native, tape, nplan.tolerance, f"{app_name}/{label}"
            )
            # The pipeline outputs must also match the recursive oracle
            # (intermediates consumed by fusion are not comparable).
            for name in set(native) & set(recursive):
                assert_native_equiv(
                    recursive[name],
                    native[name],
                    nplan.tolerance,
                    f"{app_name}/{label}/{name} vs recursive",
                )

    def test_naive_borders_match_tape(self, app_name):
        graph, inputs = _build(app_name)
        for label, partition in _partitions_for(graph, app_name).items():
            nplan = native_plan_for_partition(
                graph, partition, naive_borders=True
            )
            native = nplan.execute(dict(inputs), APP_PARAMS)
            tape = run(
                graph, inputs, APP_PARAMS,
                options=ExecutionOptions(
                    engine="tape",
                    partition=partition,
                    fusion=FusionSettings(naive_borders=True),
                ),
            )
            _assert_env_equiv(
                native, tape, nplan.tolerance, f"{app_name}/{label}/naive"
            )

    def test_engine_dispatch_matches_plan_api(self, app_name):
        graph, inputs = _build(app_name)
        partition = partition_for(graph, GTX680, "optimized")
        with served_natively():
            dispatched = run(
                graph, inputs, APP_PARAMS,
                options=ExecutionOptions(engine="native", partition=partition),
            )
        nplan = native_plan_for_partition(graph, partition)
        direct = nplan.execute(dict(inputs), APP_PARAMS)
        for name in direct:
            np.testing.assert_array_equal(dispatched[name], direct[name])


MODES = [
    BoundarySpec(BoundaryMode.CLAMP),
    BoundarySpec(BoundaryMode.MIRROR),
    BoundarySpec(BoundaryMode.REPEAT),
    BoundarySpec(BoundaryMode.CONSTANT, constant=3.5),
]


@needs_cc
class TestBoundaryAndThreads:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
    def test_boundary_modes_bit_identical(self, mode):
        # Convolution-only chains use no libm calls: the policy demands
        # bitwise equality for every boundary mode, interior and halo.
        graph = chain_pipeline(("l", "l", "l"), 12, 10, boundary=mode).build()
        data = {"img0": random_image(12, 10, seed=21)}
        block = PartitionBlock(graph, {"k0", "k1", "k2"})
        block_plan, native = _alone(graph, block)
        assert native is not None
        assert tolerance_for([block_plan]) is None
        with served_natively():
            native_out = run_block(graph, block, data, options=NATIVE)
        np.testing.assert_array_equal(
            native_out, run_block(graph, block, data, options=TAPE)
        )

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
    def test_naive_borders_block(self, mode):
        graph = chain_pipeline(("l", "l"), 10, 9, boundary=mode).build()
        data = {"img0": random_image(10, 9, seed=22)}
        block = PartitionBlock(graph, {"k0", "k1"})
        assert _alone(graph, block, naive_borders=True)[1] is not None
        naive = {"fusion": FusionSettings(naive_borders=True)}
        with served_natively():
            native_out = run_block(graph, block, data, options=replace(NATIVE, **naive))
        np.testing.assert_array_equal(
            native_out, run_block(graph, block, data, options=replace(TAPE, **naive))
        )

    def test_threaded_rows_bit_identical(self, monkeypatch):
        # Row tiles are independent: OpenMP scheduling must not change
        # a single bit of the output.  64x2100 is above the plane size
        # below which the tile loop has no parallel region.
        graph = chain_pipeline(("l", "p", "l"), 64, 2100).build()
        data = {"img0": random_image(64, 2100, seed=23)}
        partition = Partition(
            graph, [PartitionBlock(graph, set(graph.kernel_names))]
        )
        plan = native_plan_for_partition(graph, partition)
        serial = plan.execute(dict(data), {}, threads=1)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
        assert resolve_native_threads() == 4
        threaded = plan.execute(dict(data), {})
        assert plan.threads == (4 if openmp_available() else 1)
        for name in serial:
            np.testing.assert_array_equal(threaded[name], serial[name])

    def test_tile_size_bit_identical(self):
        # 150 rows = two full 64-row tiles and a clipped third: the
        # y_end clamp and the tile seams must not show in the output.
        assert 150 % native_lower.TILE_ROWS
        graph = chain_pipeline(("l", "l"), 16, 150).build()
        data = {"img0": random_image(16, 150, seed=24)}
        partition = Partition.singletons(graph)
        tiled = native_plan_for_partition(graph, partition).execute(
            dict(data), {}
        )
        reference = run(
            graph,
            data,
            options=ExecutionOptions(engine="tape", partition=partition),
        )
        for name in reference:
            np.testing.assert_array_equal(tiled[name], reference[name])


class TestTolerancePolicy:
    def test_exact_calls_are_pinned(self):
        # The exactness set is part of the numerical contract; growing
        # it requires demonstrating the call is correctly rounded.
        assert EXACT_CALLS == {"sqrt", "rsqrt"}

    def test_exact_tape_demands_bit_equality(self):
        graph = chain_pipeline(("l", "l"), 8, 8).build()
        block = PartitionBlock(graph, {"k0", "k1"})
        plan = plan_for_partition(graph, Partition(graph, [block]))
        assert tolerance_for(plan.plans) is None

    def test_transcendental_tape_gets_libm_tolerance(self):
        graph, _ = _build("Enhance")  # gamma curve: pow/exp territory
        plans = plan_for_partition(graph, Partition.singletons(graph)).plans
        assert tolerance_for(plans) == (
            native_exec.LIBM_RTOL,
            native_exec.LIBM_ATOL,
        )

    @needs_cc
    def test_sqrt_is_bit_identical_off_its_domain(self):
        """``-fno-math-errno`` turns the ``sqrt`` call into ``sqrtpd``:
        still the tape's bits, NaN signs included, on negative, NaN,
        infinite, zero and subnormal inputs (plain and reciprocal)."""
        from repro import lazy

        width, height = 24, 16  # wide enough for full SIMD iterations
        trace = lazy.Trace("roots", width, height)
        src = trace.source("src")
        lazy.sqrt(src).checkpoint("root", "rooted")
        lazy.rsqrt(src).checkpoint("inverse", "inverted")
        graph = trace.graph(("rooted", "inverted"))
        specials = [-1.0, np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5]
        data = np.random.default_rng(7).uniform(0.0, 9.0, (height, width))
        data.flat[:: 3] = np.resize(specials, data.flat[::3].shape)
        with np.errstate(invalid="ignore", divide="ignore"):
            tape = run(graph, {"src": data}, options=ExecutionOptions(engine="tape"))
            native = run(
                graph, {"src": data}, options=ExecutionOptions(engine="native")
            )
        for name in ("rooted", "inverted"):
            assert np.isnan(native[name]).any() and np.isinf(native[name]).any()
            assert native[name].tobytes() == tape[name].tobytes(), name

    def test_assert_native_equiv_raises_on_divergence(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 1e-6)
        with pytest.raises(NativeVerificationError, match="diverges"):
            assert_native_equiv(a, b, None, "unit")
        with pytest.raises(NativeVerificationError, match="diverges"):
            assert_native_equiv(a, b, (1e-12, 1e-12), "unit")
        assert_native_equiv(a, a, None, "unit")


class TestFallbacks:
    def test_no_compiler_falls_back_to_tape(self, monkeypatch):
        graph = chain_pipeline(("p", "l"), 10, 8).build()
        data = {"img0": random_image(10, 8, seed=31)}
        tape = run(
            graph, data,
            options=ExecutionOptions(engine="tape", fuse=False),
        )
        monkeypatch.setattr(native_exec, "native_available", lambda: False)
        fallback = run(
            graph, data,
            options=ExecutionOptions(engine="native", fuse=False),
        )
        for name in tape:
            np.testing.assert_array_equal(fallback[name], tape[name])

    @needs_cc
    def test_reduction_block_falls_back(self):
        # DoG ends in a global MAX reduction; that block cannot lower
        # to the per-pixel loop nest and must run the tape — while the
        # stencil blocks ahead of it still run natively.
        graph, inputs = _build("DoG", registry=ALL_APPS)
        params = {"tau": 4.0}
        partition = Partition.singletons(graph)
        nplan = native_plan_for_partition(graph, partition)
        assert nplan.fallback_block_count >= 1
        assert nplan.native_block_count >= 1
        assert nplan.fallback_reasons
        native = nplan.execute(dict(inputs), params)
        tape = run(
            graph, inputs, params,
            options=ExecutionOptions(engine="tape", partition=partition),
        )
        _assert_env_equiv(native, tape, nplan.tolerance, "DoG")

    @needs_cc
    def test_runtime_dtype_mismatch_falls_back(self):
        # The compiled kernel is specialized to float64 at the baked
        # geometry; a float32 request transparently reruns the tape.
        graph = chain_pipeline(("l", "l"), 10, 8).build()
        block = PartitionBlock(graph, {"k0", "k1"})
        assert _alone(graph, block)[1] is not None
        data32 = {
            "img0": random_image(10, 8, seed=32).astype(np.float32)
        }
        np.testing.assert_array_equal(
            run_block(graph, block, data32, options=NATIVE),
            run_block(graph, block, data32, options=TAPE),
        )

    @needs_cc
    def test_strict_mode_verifies_first_execution(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "strict")
        native_exec.clear_native_caches()
        graph = chain_pipeline(("l", "l"), 12, 10).build()
        data = {"img0": random_image(12, 10, seed=33)}
        partition = Partition.singletons(graph)
        nplan = native_plan_for_partition(graph, partition)
        assert nplan._verify.pending
        nplan.execute(dict(data), {})
        assert not nplan._verify.pending  # differential check consumed


@needs_cc
class TestNativePlanCaching:
    def test_partition_plan_cached_by_signature(self):
        graph = chain_pipeline(("p", "l", "p"), 8, 8).build()
        partition = Partition.singletons(graph)
        first = native_plan_for_partition(graph, partition)
        assert native_plan_for_partition(graph, partition) is first
        assert native_plan_for_partition(
            graph, partition, naive_borders=True
        ) is not first
        native_exec.clear_native_caches()
        assert native_plan_for_partition(graph, partition) is not first

    def test_recompile_hits_artifact_cache(self):
        graph = chain_pipeline(("l", "p"), 9, 7).build()
        partition = Partition.singletons(graph)
        native_plan_for_partition(graph, partition)
        native_exec.clear_native_caches()
        rebuilt = native_plan_for_partition(graph, partition)
        assert rebuilt.from_cache  # same source -> content-hash .so hit

    def test_cflags_change_replans_the_same_graph(self, tmp_path, monkeypatch):
        # The compile flags are an input of the build like any other:
        # toggling them in-process must yield a new plan and a new .so
        # for an already-planned graph, not the cached plan.
        from repro.apps import request_inputs
        from repro.backend.cpu_exec import CACHE_ENV, compile_cache_stats
        from repro.serve.plancache import PROCESS_CACHE

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.delenv("REPRO_NATIVE_CFLAGS", raising=False)
        graph = APPLICATIONS["Sobel"].build(96, 64).build()
        inputs = request_inputs(APPLICATIONS["Sobel"], 96, 64, seed=0)
        partition = partition_for(graph, GTX680, "optimized")
        block = block_schedule(graph, partition)[0]
        plan_a = native_plan_for_partition(graph, partition)
        block_a = run_block(graph, block, inputs, options=NATIVE)
        misses = PROCESS_CACHE.stats()["misses"]
        libraries = compile_cache_stats()["libraries"]
        monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-O1")
        plan_b = native_plan_for_partition(graph, partition)
        assert plan_b is not plan_a
        assert compile_cache_stats()["libraries"] == libraries + 1
        block_b = run_block(graph, block, inputs, options=NATIVE)
        assert PROCESS_CACHE.stats()["misses"] == misses + 1
        np.testing.assert_array_equal(block_b, block_a)
        monkeypatch.delenv("REPRO_NATIVE_CFLAGS")
        assert native_plan_for_partition(graph, partition) is plan_a


class TestLoweredSource:
    def test_source_is_inspectable_without_compiler(self):
        graph = chain_pipeline(("l", "l"), 8, 8).build()
        block = PartitionBlock(graph, {"k0", "k1"})
        plan = plan_for_partition(graph, Partition(graph, [block]))
        source = lower_block_source(plan.plans[0])
        assert "repro_block" in source
        assert "-ffp-contract=off" in source  # contract documented
        assert "idx_clamp" in source
        assert "#pragma omp" in source

    @needs_cc
    def test_partition_source_is_the_compiled_source(self):
        graph, _ = _build("Harris")
        partition = partition_for(graph, GTX680, "optimized")
        compiled = native_plan_for_partition(graph, partition).source
        assert lower_partition_source(graph, partition) == compiled


@needs_cc
class TestTile2DEquivalence:
    """The 2D overlapped-tiling lowering (REPRO_NATIVE_TILE2D) against
    the tape oracle across tile shapes, boundary modes, and thread
    counts — bit-identity everywhere the f64 contract demands it."""

    #: ``REPRO_NATIVE_TILE2D`` values, and ``off``: staging off, the
    #: chain lowered as the row band over its fused tape (no knob value
    #: says that; :func:`row_band_everywhere` forces it).
    TILE_SETTINGS = ("off", "auto", "4x32", "8x64")

    def _chain(self, mode=None, width=44, height=30):
        kwargs = {} if mode is None else {"boundary": mode}
        graph = chain_pipeline(
            ("l", "l", "l"), width, height, **kwargs
        ).build()
        return graph, PartitionBlock(graph, set(graph.kernel_names))

    @pytest.mark.parametrize("threads", ["1", "4"])
    @pytest.mark.parametrize("setting", TILE_SETTINGS)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
    def test_matrix_bit_identical(self, monkeypatch, mode, setting, threads):
        graph, block = self._chain(mode)
        data = {"img0": random_image(44, 30, seed=31)}
        tape = run_block(graph, block, data, options=TAPE)
        if setting != "off":
            monkeypatch.setenv("REPRO_NATIVE_TILE2D", setting)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", threads)
        with row_band_everywhere(setting == "off"):
            block_plan, native = _alone(graph, block)
            assert native is not None
            if setting == "off":
                assert native.spec.tile2d is None
            assert tolerance_for([block_plan]) is None  # convolution: exact
            np.testing.assert_array_equal(
                run_block(graph, block, data, options=NATIVE), tape
            )

    def test_knob_selects_the_lowering(self, monkeypatch):
        graph, block = self._chain()
        monkeypatch.setenv("REPRO_NATIVE_TILE2D", "4x32")
        _, explicit = _alone(graph, block)
        assert explicit.spec.tile2d == (4, 32)
        monkeypatch.setenv("REPRO_NATIVE_TILE2D", "auto")
        _, auto = _alone(graph, block)
        assert auto.spec.tile2d is not None  # model picked a shape
        # No value turns staging off: a chain that can be staged is.
        monkeypatch.setenv("REPRO_NATIVE_TILE2D", "off")
        with pytest.raises(EnvKnobError, match="REPRO_NATIVE_TILE2D"):
            _alone(graph, block)

    def test_f32_fast_path_stays_within_pinned_tolerance(self, monkeypatch):
        graph, block = self._chain()
        data = {"img0": random_image(44, 30, seed=32)}
        reference = run_block(graph, block, data, options=NATIVE)
        monkeypatch.setenv("REPRO_NATIVE_F32", "on")
        block_plan, native = _alone(graph, block)
        assert native is not None
        assert native.spec.f32
        tolerance = tolerance_for([block_plan])
        assert tolerance is not None  # f32 compute is never exact
        rtol, atol = tolerance
        np.testing.assert_allclose(
            run_block(graph, block, data, options=NATIVE),
            reference,
            rtol=rtol,
            atol=atol,
        )

    def test_tile2d_at_four_geometries_matches_the_tape(self):
        for width, height in ((44, 30), (56, 36), (33, 27), (24, 18)):
            graph, block = self._chain(width=width, height=height)
            partition = Partition(graph, [block])
            nplan = native_plan_for_partition(graph, partition)
            native = next(n for _p, n in nplan.blocks if n is not None)
            assert native.spec.tile2d is not None
            data = {"img0": random_image(width, height, seed=width + height)}
            tape = run(
                graph, data, {},
                options=ExecutionOptions(engine="tape", partition=partition),
            )
            served = nplan.execute(dict(data), {})
            for name in tape:
                np.testing.assert_array_equal(served[name], tape[name])

    def test_strided_view_keeps_its_bits_through_tile2d(self):
        graph, block = self._chain(width=40, height=24)
        partition = Partition(graph, [block])
        nplan = native_plan_for_partition(graph, partition)
        native = next(n for _p, n in nplan.blocks if n is not None)
        assert native.spec.tile2d is not None
        frame = random_image(64, 24, seed=33)
        view = frame[:, :40]
        assert not view.flags.c_contiguous
        served = nplan.execute({"img0": view}, {})
        dense = nplan.execute({"img0": np.ascontiguousarray(view)}, {})
        for name in dense:
            np.testing.assert_array_equal(served[name], dense[name])


#: The twelve app variants (six apps, hand-built and lazy) and one
#: naive-borders variant.
REPORT_VARIANTS = [
    (app, origin, False)
    for app in sorted(APPLICATIONS)
    for origin in ("hand", "lazy")
] + [("Harris", "hand", True)]

#: ``REPRO_NATIVE_TILE2D``: the model's pick, an explicit shape, and one
#: whose scratch is past the stack cap for any chain.
REPORT_TILES = ("auto", "8x16", "512x512")

REPORT_CASES = [
    variant + (tile2d,) for tile2d in REPORT_TILES for variant in REPORT_VARIANTS
]


@pytest.mark.parametrize(
    "app, origin, naive, tile2d",
    REPORT_CASES,
    ids=[
        f"{a}-{o}" + ("-naive" * n) + ("" if t == "auto" else f"-{t}")
        for a, o, n, t in REPORT_CASES
    ],
)
def test_tiling_report_says_what_the_lowering_does(
    app, origin, naive, tile2d, monkeypatch
):
    """Each ``repro tiling`` entry's tile is the lowered block's
    ``spec.tile2d``, ``None`` for a row band (which says why it
    materializes nothing): an explicit shape is reported as that shape,
    one past the stack scratch cap as a row band with the lowering's
    reason."""
    monkeypatch.setenv("REPRO_NATIVE_TILE2D", tile2d)
    graph = (
        APPLICATIONS[app].build(96, 64).build()
        if origin == "hand"
        else lazy_trace(app, 96, 64).graph()
    )
    partition = partition_for(graph, GTX680, "optimized")
    plan = plan_for_partition(graph, partition, naive)
    specs, _ = native_lower._lower_partition(
        graph, partition, plan, lowering=native_lowering()
    )
    report = native_lower.tile2d_report(graph, partition, naive_borders=naive)
    assert len(report) == len(specs)
    for entry, spec in zip(report, specs):
        if spec is None:
            continue  # left to the tape (a global operator)
        tile = entry["choice"]["tile"] if "choice" in entry else None
        assert tile == (spec.tile2d and list(spec.tile2d)), entry["output"]
        assert ("row_band_reason" in entry) == (spec.tile2d is None)
    tiles = [entry["choice"]["tile"] for entry in report if "choice" in entry]
    if tile2d == "8x16":
        assert all(tile == [8, 16] for tile in tiles)
        assert bool(tiles) != naive
    if tile2d == "512x512":
        reasons = [entry["row_band_reason"] for entry in report]
        assert not tiles
        assert any("explicit 512x512 tile" in r for r in reasons) != naive
    if naive:
        assert all("row_band_reason" in entry for entry in report)
