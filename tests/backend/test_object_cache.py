"""Kernels, not pipelines, are the unit of the compile cache.

A partition library (``pipeline-<digest>.so``) is linked from one
``kernel-<digest>.o`` per lowered block; an object is shared by every
pipeline that lowers a block to the same text with the same compiler and
flags.  These tests spy on ``subprocess.run`` and ``ctypes.CDLL`` to pin
what a build costs — which kernels are compiled, which are reused, how
often ``dlopen`` runs — and prove that a library linked from per-block
objects computes the same bits as one compiled from the single
concatenated translation unit.
"""

import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from helpers import row_band_everywhere

import repro.analysis.native_check as native_check
from repro.apps import APPLICATIONS
from repro.backend import cpu_exec, native_exec, native_lower
from repro.backend.cpu_exec import (
    CACHE_ENV,
    CACHE_MAX_ENV,
    _find_compiler,
    build_shared_library,
    compile_cache_stats,
    compiler_available,
    evict_stale_artifacts,
    load_kernel_library,
    openmp_available,
)
from repro.backend.native_exec import (
    NativePartitionPlan,
    assert_native_equiv,
    clear_native_caches,
    native_plan_for_partition,
)
from repro.backend.numpy_exec import ExecutionError
from repro.backend.plan import clear_plan_caches, plan_for_partition
from repro.envknobs import native_lowering
from repro.eval.runner import partition_for
from repro.model.hardware import GTX680
from repro.apps import request_inputs
from repro.serve.registry import DEFAULT_APP_PARAMS

from helpers import ToolchainSpy as Spy

# A cold direct native request compiles before it answers: this suite's
# subject is native output, which a tiered first answer would not be.
pytestmark = [
    pytest.mark.skipif(not compiler_available(), reason="no C compiler on PATH"),
    pytest.mark.usefixtures("blocking_native"),
]

APPS = sorted(APPLICATIONS)
WIDTH, HEIGHT = 96, 64


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty compile cache; the OpenMP probe (one compile per process
    and compiler) is settled before any spy is installed."""
    openmp_available()
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    clear_native_caches()
    return tmp_path


def _plan(app, width=WIDTH, height=HEIGHT):
    """The native plan of ``app``'s default fused partition, built from
    a fresh graph object (so no per-graph plan cache answers)."""
    graph = APPLICATIONS[app].build(width, height).build()
    partition = partition_for(graph, GTX680, "optimized")
    return native_plan_for_partition(graph, partition)


def _units(app):
    """``(source, kernels)`` of ``app`` — what ``_compile_specs`` hands
    the toolchain — without building anything."""
    graph = APPLICATIONS[app].build(WIDTH, HEIGHT).build()
    partition = partition_for(graph, GTX680, "optimized")
    specs, _ = native_lower._lower_partition(
        graph,
        partition,
        plan_for_partition(graph, partition, False),
        lowering=native_lowering(),
    )
    texts = [spec.source for spec in specs if spec is not None]
    preamble = native_lower._PREAMBLE + "\n"
    return preamble + "\n".join(texts), [preamble + text for text in texts]


def _entry_points(kernels):
    return [
        re.search(r"^void (repro_block_\w+)\(", text, re.M).group(1)
        for text in kernels
    ]


# -- (a) a miss compiles only the kernels nobody has compiled yet -----------


@pytest.mark.parametrize(
    "first, second", [("Harris", "ShiTomasi"), ("ShiTomasi", "Harris")]
)
def test_second_pipeline_compiles_only_its_own_kernel(
    cache_dir, monkeypatch, first, second
):
    spy = Spy(monkeypatch)
    plan = _plan(first)
    assert (len(spy.compiles), len(spy.links)) == (6, 1)
    assert (plan.objects_compiled, plan.objects_reused) == (6, 0)
    assert not plan.from_cache
    spy.reset()
    plan = _plan(second)
    # Five of the six blocks are, byte for byte, the first pipeline's.
    assert (len(spy.compiles), len(spy.links)) == (1, 1)
    assert (plan.objects_compiled, plan.objects_reused) == (1, 5)
    assert not plan.from_cache
    stats = compile_cache_stats()
    assert (stats["libraries"], stats["objects"]) == (2, 7)
    assert stats["bytes"] > 0 and stats["object_bytes"] > 0
    assert not list(cache_dir.glob("*.partial.*"))


# -- (b) a library hit is one stat and one dlopen ---------------------------


def test_library_hit_runs_no_compiler_and_one_dlopen(cache_dir, monkeypatch):
    for app in APPS:
        _plan(app)
    clear_native_caches()
    clear_plan_caches()
    spy = Spy(monkeypatch)
    for app in APPS:
        plan = _plan(app)
        assert plan.from_cache
        assert (plan.objects_compiled, plan.objects_reused) == (0, 0)
    assert spy.commands == []
    assert len(spy.loads) == len(APPS)


# -- (c) the directory is the only store ------------------------------------


def test_empty_directory_compiles_every_kernel_again(
    cache_dir, tmp_path_factory, monkeypatch
):
    _plan("Harris")
    monkeypatch.setenv(CACHE_ENV, str(tmp_path_factory.mktemp("second")))
    clear_native_caches()
    spy = Spy(monkeypatch)
    plan = _plan("Harris")
    assert (len(spy.compiles), len(spy.links)) == (6, 1)
    assert (plan.objects_compiled, plan.objects_reused) == (6, 0)


# -- (d) per-block objects compute what the single TU computes --------------

#: Big enough that an unset ``REPRO_NATIVE_THREADS`` runs a team of two
#: where the host has two cores.
BIG = (512, 256)


@pytest.fixture(scope="module")
def differential_dirs(tmp_path_factory):
    """One object-path and one whole-TU cache for the whole matrix, so
    the 12 cases share kernels the way a serving process would."""
    return tmp_path_factory.mktemp("objects"), tmp_path_factory.mktemp("whole")


@pytest.mark.parametrize("lowering", ["classic", "tile2d"])
@pytest.mark.parametrize("app", APPS)
def test_differential_against_the_single_translation_unit(
    differential_dirs, monkeypatch, app, lowering
):
    """``classic`` lowers every block as the row band over its fused
    tape, ``tile2d`` lets the fused chains materialize their stages."""
    objects_dir, whole_dir = differential_dirs
    with row_band_everywhere(lowering == "classic"):
        _differential(objects_dir, whole_dir, monkeypatch, app)


def _differential(objects_dir, whole_dir, monkeypatch, app):
    monkeypatch.setenv("REPRO_VALIDATE", "strict")
    clear_native_caches()
    width, height = BIG
    inputs = request_inputs(APPLICATIONS[app], width, height, seed=5)
    params = DEFAULT_APP_PARAMS.get(app)

    sanitized, verified = [], []
    real_check = native_check.verify_native_blocks
    real_pass = NativePartitionPlan._verified_first_pass
    monkeypatch.setattr(
        native_check,
        "verify_native_blocks",
        lambda *a, **k: sanitized.append(1) or real_check(*a, **k),
    )
    monkeypatch.setattr(
        NativePartitionPlan,
        "_verified_first_pass",
        lambda self, *a, **k: verified.append(1) or real_pass(self, *a, **k),
    )

    monkeypatch.setenv(CACHE_ENV, str(objects_dir))
    plan = _plan(app, width, height)
    assert plan.native_block_count == len(plan.blocks)
    outputs = {}
    for threads in ("1", None):
        if threads is None:
            monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        else:
            monkeypatch.setenv("REPRO_NATIVE_THREADS", threads)
        outputs[threads] = plan.execute(dict(inputs), params)
    # Strict: sanitized at build, differentially verified on the first
    # execution, neither again.
    assert (len(sanitized), len(verified)) == (1, 1)

    # The same source as ONE translation unit, same compiler and flags,
    # in a directory of its own (the library digest is the same).
    monkeypatch.setenv(CACHE_ENV, str(whole_dir))
    monkeypatch.setattr(
        native_exec,
        "load_kernel_library",
        lambda source, kernels, cc, flags: load_kernel_library(
            source, (source,), cc, flags
        ),
    )
    whole = _plan(app, width, height)
    assert whole.source == plan.source
    assert whole.objects_compiled + whole.objects_reused == 1
    expected = whole.execute(dict(inputs), params)
    tape = plan.plan.execute(dict(inputs), params)
    for name, value in expected.items():
        for threads, env in outputs.items():
            assert np.array_equal(env[name], value), (name, threads)
        assert_native_equiv(tape[name], value, plan.tolerance, name)


# -- (e) threads racing into one empty cache --------------------------------


def test_concurrent_builders_compile_each_object_once(cache_dir, monkeypatch):
    units = {app: _units(app) for app in ("Harris", "ShiTomasi")}
    cc = _find_compiler()
    flags = native_exec._native_flags(cc, ())
    spy = Spy(monkeypatch)
    barrier = threading.Barrier(8)

    def build(index):
        app = ("Harris", "ShiTomasi")[index % 2]
        source, kernels = units[app]
        barrier.wait()
        library, built = load_kernel_library(source, kernels, cc, flags)
        assert all(hasattr(library, name) for name in _entry_points(kernels))
        return built

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more threads than cores, switching often
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(build, range(8), timeout=300))
    finally:
        sys.setswitchinterval(interval)

    # Seven distinct kernels, two distinct libraries — whoever got there
    # first built them, everybody else waited and shared.
    assert len(spy.compiles) == 7
    assert len(spy.links) == 2
    compiled_sources = [c[-1] for c in spy.compiles]
    assert len(set(compiled_sources)) == 7
    assert sum(built.objects_compiled for built in results) == 7
    stats = compile_cache_stats()
    assert (stats["libraries"], stats["objects"]) == (2, 7)
    assert not list(cache_dir.glob("*.partial.*"))


# -- (f) processes racing on one directory (two servers on one cache) ------

_RACER = """
import sys
import numpy as np
from repro.apps import APPLICATIONS
from repro.serve import plancache
# Native from the first answer: these processes race on the native build.
plancache.native_strategy = lambda plan, lowered: "blocking"
from repro.api import ExecutionOptions, run
from repro.apps import request_inputs
inputs = request_inputs(APPLICATIONS["Harris"], 96, 64, seed=1)
graph = APPLICATIONS["Harris"].build(96, 64).build()
env = run(graph, inputs, options=ExecutionOptions(engine="native"))
sys.stdout.write(repr(float(np.sum(env["corners"]))))
"""


def test_two_processes_racing_on_one_directory(cache_dir):
    env = dict(os.environ)
    env[CACHE_ENV] = str(cache_dir)
    env["PYTHONPATH"] = str(Path(native_exec.__file__).parents[2])
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    results = [racer.communicate(timeout=300) for racer in racers]
    for racer, (out, err) in zip(racers, results):
        assert racer.returncode == 0, err
    assert results[0][0] == results[1][0] != ""
    # Harris's library and six kernels, plus the one-kernel OpenMP probe
    # a fresh process compiles into the directory it is given.
    probe = 1 if openmp_available() else 0
    stats = compile_cache_stats()
    assert (stats["libraries"], stats["objects"]) == (1 + probe, 6 + probe)
    assert not list(cache_dir.glob("*.partial.*"))


# -- (g) flags are part of an object's identity -----------------------------


def test_sanitizer_objects_never_mix_with_plain_ones(cache_dir, monkeypatch):
    source, kernels = _units("Night")
    cc = _find_compiler()
    plain = native_exec._native_flags(cc, ())
    sanitized = native_exec._native_flags(cc, ("-fsanitize=address,undefined",))
    assert "-fsanitize=address,undefined" in sanitized
    spy = Spy(monkeypatch)
    build_shared_library(source, kernels, cc, plain)
    plain_objects = {p.name for p in cache_dir.glob("kernel-*.o")}
    try:
        built = build_shared_library(source, kernels, cc, sanitized)
    except ExecutionError as err:  # pragma: no cover - toolchain without ASan
        pytest.skip(f"compiler cannot build with the sanitizers: {err}")
    # Nothing was reused across the flag sets ...
    assert built.objects_compiled == len(kernels) and not built.objects_reused
    assert len(spy.compiles) == 2 * len(kernels)
    # ... every command of the second build, the link included, carried
    # the flags, and the link read none of the plain objects.
    second = spy.commands[len(kernels) + 1:]
    assert all("-fsanitize=address,undefined" in c for c in second)
    linked = {Path(arg).name for arg in spy.links[1] if arg.endswith(".o")}
    assert len(linked) == len(kernels) and not linked & plain_objects
    assert compile_cache_stats()["libraries"] == 2


# -- a corrupt object is rebuilt once, like a truncated library -------------


def test_corrupt_object_is_recompiled_and_relinked_once(
    cache_dir, monkeypatch
):
    source, kernels = _units("Night")
    cc = _find_compiler()
    flags = native_exec._native_flags(cc, ())
    build_shared_library(source, kernels, cc, flags)
    for library in cache_dir.glob("pipeline-*.so"):
        library.unlink()
    victim = sorted(cache_dir.glob("kernel-*.o"))[0]
    victim.write_bytes(victim.read_bytes()[:100])
    spy = Spy(monkeypatch)
    library, built = load_kernel_library(source, kernels, cc, flags)
    assert (len(spy.links), len(spy.compiles)) == (2, len(kernels))
    assert built.objects_compiled == len(kernels)
    assert all(hasattr(library, name) for name in _entry_points(kernels))


def test_second_link_failure_raises_with_the_linker_output(
    cache_dir, monkeypatch
):
    source = "double repro_twice(void) { return 2.0; }\n"
    # Two units defining one symbol: every object compiles, no link can.
    kernels = [source, source + "/* again */\n"]
    spy = Spy(monkeypatch)
    with pytest.raises(ExecutionError, match="repro_twice"):
        build_shared_library(source, kernels, _find_compiler())
    assert (len(spy.compiles), len(spy.links)) == (4, 2)
    assert not list(cache_dir.glob("*.partial.*"))
    assert compile_cache_stats()["libraries"] == 0


def test_compile_error_names_only_the_failing_kernel(cache_dir):
    good = "double repro_good(void) { return 1.0; }\n"
    bad = "double repro_bad(void) { return oops; }\n"
    with pytest.raises(ExecutionError) as failure:
        build_shared_library(good + bad, [good, bad], _find_compiler())
    message = str(failure.value)
    assert "oops" in message and "repro_bad" in message
    assert "repro_good" not in message
    assert not list(cache_dir.glob("*.partial.*"))


def test_cc_compile_fault_fires_once_per_library_miss(cache_dir, monkeypatch):
    fired = []
    real = cpu_exec.fault_check
    monkeypatch.setattr(
        cpu_exec, "fault_check", lambda site: fired.append(site) or real(site)
    )
    _plan("Harris")
    assert fired.count("cc.compile") == 1
    clear_native_caches()
    _plan("Harris")  # a library hit: no compile, no fault site
    assert fired.count("cc.compile") == 1


# -- orphaned scratch files --------------------------------------------------


def _dead_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_build_sweeps_scratch_files_of_dead_builders_only(cache_dir):
    dead, alive = _dead_pid(), os.getpid()
    orphans = [
        cache_dir / f"pipeline-{'0' * 24}.{dead}-1-0.partial.c",
        cache_dir / f"pipeline-{'0' * 24}.{dead}-1-0.partial.so",
        cache_dir / f"kernel-{'1' * 24}.{dead}-7-3.partial.o",
    ]
    in_flight = [
        cache_dir / f"pipeline-{'2' * 24}.{alive}-1-0.partial.so",
        cache_dir / f"kernel-{'3' * 24}.{alive}-1-1.partial.c",
    ]
    for path in orphans + in_flight:
        path.write_bytes(b"half written")
    # Invisible to the stats and to eviction, before and after.
    assert compile_cache_stats()["libraries"] == 0
    source = "double repro_sweep(void) { return 3.0; }\n"
    cc = _find_compiler()
    build_shared_library(source, (source,), cc)
    assert not any(path.exists() for path in orphans)
    assert all(path.exists() for path in in_flight)
    # A hit does not scan the directory: a new orphan stays until the
    # next miss.
    late = cache_dir / f"kernel-{'4' * 24}.{dead}-1-9.partial.o"
    late.write_bytes(b"")
    assert build_shared_library(source, (source,), cc).from_cache
    assert late.exists()
    other = "double repro_sweep2(void) { return 4.0; }\n"
    build_shared_library(other, (other,), cc)
    assert not late.exists()


# -- eviction and stats know about objects -----------------------------------


def _fake(cache_dir, name, size, mtime):
    path = cache_dir / name
    path.write_bytes(b"\0" * size)
    os.utime(path, (mtime, mtime))
    return path


def test_objects_share_the_lru_with_libraries(cache_dir, monkeypatch):
    old_object = _fake(cache_dir, f"kernel-{'a' * 24}.o", 1000, 1000.0)
    old_source = _fake(cache_dir, f"kernel-{'a' * 24}.c", 10, 1000.0)
    old_library = _fake(cache_dir, f"pipeline-{'b' * 24}.so", 1000, 1001.0)
    kept_object = _fake(cache_dir, f"kernel-{'c' * 24}.o", 1000, 1002.0)
    new_object = _fake(cache_dir, f"kernel-{'d' * 24}.o", 1000, 2000.0)
    new_library = _fake(cache_dir, f"pipeline-{'e' * 24}.so", 1000, 2001.0)
    stats = compile_cache_stats()
    assert (stats["libraries"], stats["bytes"]) == (2, 2000)
    assert (stats["objects"], stats["object_bytes"]) == (3, 3000)
    monkeypatch.setenv(CACHE_MAX_ENV, "2000")
    assert evict_stale_artifacts(keep={kept_object}) == 2
    assert not old_object.exists() and not old_source.exists()
    assert not old_library.exists()
    assert kept_object.exists() and new_object.exists() and new_library.exists()


def test_eviction_never_drops_the_objects_of_a_link_in_progress(
    cache_dir, monkeypatch
):
    source, kernels = _units("Night")
    cc = _find_compiler()
    flags = native_exec._native_flags(cc, ())
    monkeypatch.setenv(CACHE_MAX_ENV, "1")
    real_run = subprocess.run

    def evicting_run(command, *args, **kwargs):
        if "-shared" in command:
            evict_stale_artifacts()  # another builder finishing right now
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", evicting_run)
    built = build_shared_library(source, kernels, cc, flags)
    # One link sufficed, and the finished build kept its own artifacts.
    assert built.objects_compiled == len(kernels)
    stats = compile_cache_stats()
    assert (stats["libraries"], stats["objects"]) == (1, len(kernels))


def test_object_hit_refreshes_its_lru_clock(cache_dir):
    source, kernels = _units("Night")
    cc = _find_compiler()
    flags = native_exec._native_flags(cc, ())
    build_shared_library(source, kernels, cc, flags)
    for path in cache_dir.glob("kernel-*.o"):
        os.utime(path, (1000.0, 1000.0))
    for library in cache_dir.glob("pipeline-*.so"):
        library.unlink()
    built = build_shared_library(source, kernels, cc, flags)
    assert built.objects_reused == len(kernels)
    assert all(
        path.stat().st_mtime > 1000.0 for path in cache_dir.glob("kernel-*.o")
    )


# -- the runtime's counters ---------------------------------------------------


def test_serving_runtime_counts_compiled_and_reused_objects(cache_dir):
    from repro.api import ExecutionOptions, run
    from repro.serve import ServingRuntime

    with ServingRuntime(engine="native", workers=1) as runtime:
        for app in ("Harris", "ShiTomasi"):
            graph = APPLICATIONS[app].build(WIDTH, HEIGHT).build()
            inputs = request_inputs(APPLICATIONS[app], WIDTH, HEIGHT, seed=2)
            run(graph, inputs, options=ExecutionOptions(runtime=runtime))
        counters = runtime.metrics_snapshot()["counters"]
    assert counters["native_objects_compiled"] == 7
    assert counters["native_objects_reused"] == 5
    assert counters.get("native_artifact_cache_hits", 0) == 0
