"""One implementation per libm call.

Every libm call the native lowering emits (``exp``, ``log``, ``sin``,
``cos``, ``tan``, ``tanh``, ``pow``, ``atan2``) goes through a
``repro_<fn>`` wrapper whose vector clones and scalar body all evaluate
glibc's libmvec SSE routine, where the host has it.  So the
``#pragma omp simd`` loops vectorize, and a pixel's bits do not depend
on whether a vector lane, a loop's scalar tail or an out-of-line halo
body computed it: not on the tile shape, hoisting or the thread
count.  Where the probe finds no variant the
call stays scalar libm, and the C is what it was before wrappers.
"""

import platform
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.backend import cpu_exec, native_exec, native_lower
from repro.backend.native_exec import (
    F32_ATOL,
    F32_RTOL,
    LIBM_ATOL,
    LIBM_RTOL,
    assert_native_equiv,
    clear_native_caches,
    native_available,
    native_plan_for_partition,
    toolchain_digest,
)
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.functional import window_reduce
from repro.dsl.image import Image
from repro.dsl.kernel import Kernel
from repro.dsl.mask import Domain
from repro.dsl.pipeline import Pipeline
from repro.envknobs import native_cflags_env, native_lowering
from repro.eval.runner import partition_for
from repro.graph.partition import Partition, PartitionBlock
from repro.ir import ops
from repro.ir.expr import Const
from repro.model.hardware import GTX680

pytestmark = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

SIZES = [(1, 1), (7, 5), (33, 7), (97, 65)]


def _every_call(v):
    """Every libm call of the lowering (``_CALL_C``) in one point
    function, each on a range it is defined on."""
    return (
        ops.exp(v * Const(0.01))
        + ops.log(v + Const(1.0))
        + ops.sqrt(v)
        + ops.rsqrt(v + Const(1.0))
        + ops.sin(v)
        + ops.cos(v * Const(0.5))
        + ops.tan(v * Const(0.003))
        + ops.tanh(v * Const(0.02) - Const(2.0))
        + ops.pow_(v * Const(0.01) + Const(1.0), Const(1.5))
        + ops.atan2(v - Const(100.0), v * Const(0.5) + Const(1.0))
    )


def _graph(width, height):
    """A 3x3 window over ``_every_call`` (so hoisting applies: one call
    set per pixel, not nine), then a point kernel."""
    pipe = Pipeline("libm")
    src = Image.create("src", width, height)
    reduced = Image.create("reduced", width, height)
    scaled = Image.create("scaled", width, height)
    pipe.add(
        Kernel.from_function(
            "reduce",
            [src],
            reduced,
            lambda a: window_reduce(a, Domain(3, 3), lambda x, y: x + y, _every_call),
            boundary=BoundarySpec(BoundaryMode.CLAMP),
        )
    )
    pipe.add(
        Kernel.from_function(
            "scale", [reduced], scaled, lambda a: a() * Const(0.25) - Const(1.0)
        )
    )
    graph = pipe.build()
    return graph, Partition(graph, [PartitionBlock(graph, graph.kernel_names)])


def _inputs(width, height):
    return {"src": np.random.default_rng(width * height).uniform(0.0, 255.0, (height, width))}


def _build(graph, partition, monkeypatch, tile="auto", hoist=True):
    """A fresh native plan under one lowering."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NATIVE_TILE2D", tile)
        if not hoist:
            patch.setattr(
                native_lower,
                "_hoist_window_invariants",
                lambda members, graph, f32: (members, ()),
            )
        clear_native_caches()
        plan = native_plan_for_partition(graph, partition)
    clear_native_caches()
    return plan


def _vector():
    """The libm names this host's libmvec covers (the engine's probe)."""
    return native_exec._libmvec(cpu_exec._find_compiler())


def _symbols(library, *options):
    """The symbol names ``nm`` lists for ``library``."""
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("no nm on PATH")
    listing = subprocess.run(
        [nm, *options, str(library)], capture_output=True, text=True, check=True
    ).stdout
    return {line.split()[-1].split("@")[0] for line in listing.splitlines()}


def _undefined(library):
    return _symbols(library, "-D", "--undefined-only")


def _has_avx2():
    cpuinfo = Path("/proc/cpuinfo")
    return (
        platform.machine() == "x86_64"
        and cpuinfo.exists()
        and " avx2" in cpuinfo.read_text(errors="ignore")
    )


@pytest.mark.parametrize("f32", [False, True], ids=["f64", "f32"])
@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_one_implementation_per_call(size, f32, monkeypatch):
    width, height = size
    if f32:
        monkeypatch.setenv("REPRO_NATIVE_F32", "on")
    graph, partition = _graph(width, height)
    inputs = _inputs(width, height)
    reference = None
    for tile in ("auto", "8x16", "16x32"):
        for hoist in (True, False):
            plan = _build(graph, partition, monkeypatch, tile, hoist)
            assert plan.fallback_block_count == 0
            assert (hoist and width * height > 1) <= bool(plan.hoisted)
            for threads in ("1", "2"):
                monkeypatch.setenv("REPRO_NATIVE_THREADS", threads)
                out = plan.execute(dict(inputs))["scaled"]
                if reference is None:
                    reference = out
                    tape = plan.plan.execute(dict(inputs))["scaled"]
                    assert plan.tolerance == (
                        (F32_RTOL, F32_ATOL) if f32 else (LIBM_RTOL, LIBM_ATOL)
                    )
                    assert_native_equiv(tape, out, plan.tolerance)
                config = (tile, hoist, threads)
                assert np.array_equal(out, reference), config


@pytest.mark.parametrize("f32", [False, True], ids=["f64", "f32"])
def test_the_library_calls_libmvec(f32, monkeypatch):
    vector = _vector()
    suffix = "f" if f32 else ""
    names = [fn + suffix for fn in native_lower.VECTOR_CALLS]
    if not set(names) & vector:
        pytest.skip("no libmvec variant on this host")
    if f32:
        monkeypatch.setenv("REPRO_NATIVE_F32", "on")
    graph, partition = _graph(33, 7)
    plan = _build(graph, partition, monkeypatch)
    undefined = _undefined(plan.library_path)
    for name in names:
        routine = native_lower.LIBMVEC_ROUTINES[name]
        assert (routine in undefined) == (name in vector), name
        wrapper = "repro_" + name
        assert (f"{wrapper}(s" in plan.source) == (name in vector), name
    # sqrt and rsqrt are exact: never wrapped.
    assert not re.search(r"repro_sqrtf?\(", plan.source)


@pytest.mark.skipif(not _has_avx2(), reason="needs an x86-64 CPU with AVX2")
def test_wider_clones_compute_the_same_bits(monkeypatch):
    """A kernel compiled for AVX2 calls the support unit's 4-lane clones,
    which evaluate the same SSE routine on each half."""
    if "exp" not in _vector():
        pytest.skip("no libmvec on this host")
    graph, partition = _graph(97, 65)
    inputs = _inputs(97, 65)
    plain = _build(graph, partition, monkeypatch).execute(dict(inputs))["scaled"]
    flags = " ".join((*native_cflags_env(), "-mavx2"))
    monkeypatch.setenv("REPRO_NATIVE_CFLAGS", flags)
    wide = _build(graph, partition, monkeypatch)
    assert "_ZGVdN4v_repro_exp" in _symbols(wide.library_path)
    assert np.array_equal(wide.execute(dict(inputs))["scaled"], plain)


# -- the probe and its fallback ----------------------------------------------


def _report(monkeypatch, found):
    """Make the probe report exactly the libm names ``found``."""
    routines = {native_lower.LIBMVEC_ROUTINES[name] for name in found}
    monkeypatch.setattr(
        native_exec,
        "libmvec_variants",
        lambda candidates, cc=None: frozenset(routines) & set(candidates),
    )
    clear_native_caches()


def test_without_libmvec_the_c_is_the_scalar_one(monkeypatch, tmp_path):
    """No wrapper, no support unit, no ``-lmvec``: the text
    ``test_native_golden.py`` pins as the one lowered before wrappers."""
    monkeypatch.setenv(cpu_exec.CACHE_ENV, str(tmp_path))  # so it links
    _report(monkeypatch, ())
    commands = []
    real_run = subprocess.run
    monkeypatch.setattr(
        subprocess, "run",
        lambda command, *a, **k: commands.append(list(command)) or real_run(command, *a, **k),
    )
    graph = APPLICATIONS["Enhance"].build(96, 64).build()
    partition = partition_for(graph, GTX680, "optimized")
    plan = native_plan_for_partition(graph, partition)
    specs, _ = native_lower._lower_partition(
        graph, partition, plan.plan, frozenset(), lowering=native_lowering()
    )
    assert plan.source == native_lower._PREAMBLE + "\n" + "\n".join(
        spec.source for spec in specs
    )
    assert "repro_exp" not in plan.source and "_ZGV" not in plan.source
    assert re.search(r"(?<!\w)exp\(s\d", plan.source)
    links = [c for c in commands if "-shared" in c]
    assert links and not any("-lmvec" in c for c in links)


def test_a_partial_report_keeps_exactly_those_calls_scalar(monkeypatch):
    """glibc < 2.35 has no tan / tanh / atan2 variants."""
    old = {"exp", "log", "sin", "cos", "pow"}
    _report(monkeypatch, old | {fn + "f" for fn in old})
    graph, partition = _graph(33, 7)
    plan = _build(graph, partition, monkeypatch)
    for fn in native_lower.VECTOR_CALLS:
        wrapped = f"repro_{fn}(s" in plan.source
        scalar = re.search(rf"(?<![\w]){fn}\(s\d", plan.source) is not None
        assert (wrapped, scalar) == ((True, False) if fn in old else (False, True)), fn
    if "exp" in _vector():
        undefined = _undefined(plan.library_path)
        assert "_ZGVbN2v_exp" in undefined and "_ZGVbN2v_tan" not in undefined
    inputs = _inputs(33, 7)
    env = plan.execute(dict(inputs))
    tape = plan.plan.execute(dict(inputs))
    assert_native_equiv(tape["scaled"], env["scaled"], plan.tolerance)


def test_the_toolchain_digest_covers_the_report(monkeypatch):
    _report(monkeypatch, ())
    none = toolchain_digest(())
    _report(monkeypatch, native_lower.LIBMVEC_ROUTINES)
    every = toolchain_digest(())
    _report(monkeypatch, ("exp", "log"))
    assert len({none, every, toolchain_digest(())}) == 3


@pytest.mark.parametrize(
    "patch",
    [
        lambda m: m.setattr(platform, "machine", lambda: "aarch64"),
        lambda m: m.setattr(cpu_exec.os, "confstr", lambda name: "musl"),
    ],
    ids=["not-x86-64", "not-glibc"],
)
def test_other_hosts_take_the_fallback(monkeypatch, patch):
    # A fresh process on such a host: nothing probed yet.
    monkeypatch.setattr(cpu_exec, "_libmvec_found", {})
    monkeypatch.setattr(cpu_exec, "_libmvec_probe", {})
    patch(monkeypatch)
    routines = native_lower.LIBMVEC_ROUTINES.values()
    assert cpu_exec.libmvec_variants(routines) == frozenset()


def test_libm_free_blocks_never_probe(monkeypatch):
    probed = []
    monkeypatch.setattr(
        native_exec, "libmvec_variants",
        lambda candidates, cc=None: probed.append(1) or frozenset(),
    )
    clear_native_caches()
    for app in ("Harris", "Sobel"):
        graph = APPLICATIONS[app].build(96, 64).build()
        native_plan_for_partition(graph, partition_for(graph, GTX680, "optimized"))
    assert not probed
