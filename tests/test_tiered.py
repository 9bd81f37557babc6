"""A cold native request is answered on the tape when ``cc`` would make
it wait (``plancache.native_strategy``; always under strict, which these
tests run under); its native plan, a differential candidate compiled in
the background in the request's cache directory, is published behind
it by one assignment, and its first execute runs strict's differential.
Every test uses a fresh ``REPRO_CC_CACHE``, so nothing is compiled yet.
"""

import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    ToolchainSpy,
    app_request,
    process_entry,
    served_natively,
    wait_for_builds,
)

from repro.api import ExecutionOptions, FusionSettings, run
from repro.backend import native_exec
from repro.backend.cpu_exec import CACHE_ENV, compiler_available
from repro.backend.native_exec import (
    NativePartitionPlan,
    assert_native_equiv,
    clear_native_caches,
)
from repro.backend.plan import PartitionPlan, clear_plan_caches
from repro.serve import ServingRuntime, faultinject, plancache
from repro.serve.plancache import PROCESS_CACHE, PlanCache, build_plan, plan_key

pytestmark = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler on PATH"
)

NATIVE = ExecutionOptions(engine="native")
STANDARD = ExecutionOptions(engine="native", validate="standard")
TAPE = ExecutionOptions(engine="tape")
COUNTERS = ("tape_first", "published", "failed")
SRC = Path(__file__).resolve().parents[1] / "src"


def _grown(before):
    after = PROCESS_CACHE.stats()
    return {name: after[name] - before[name] for name in COUNTERS}


class _Held:
    """Holds the differential builder until ``release()``, so a test can
    act between a tiered answer and its background build: before the
    next job starts, or — given ``monkeypatch`` — inside every build,
    past the job's directory check (``calls`` counts them)."""

    def __init__(self, monkeypatch=None):
        self.started, self.go, self.done = (threading.Event() for _ in range(3))
        self.calls = 0
        if monkeypatch is None:
            plancache.builder("differential").submit(self.go.wait, 60)
            return
        real = native_exec._build_native_partition

        def held(*args, **kwargs):
            self.calls += 1
            self.started.set()
            self.go.wait(60)
            try:
                return real(*args, **kwargs)
            finally:
                self.done.set()

        monkeypatch.setattr(native_exec, "_build_native_partition", held)

    def release(self):
        self.go.set()
        wait_for_builds()


def _assert_outputs_equal(graph, env, expected):
    """Bit for bit: the apps these tests compare call no libm routine
    but ``sqrt``."""
    for name in graph.external_outputs:
        assert_native_equiv(expected[name], env[name], None, context=name)


@pytest.mark.parametrize("app", ["Harris", "Night", "Enhance"])
def test_a_cold_native_request_runs_no_cc_on_its_thread(cache_dir, monkeypatch, app):
    graph, inputs, params = app_request(app)
    spy = ToolchainSpy(monkeypatch)
    before = PROCESS_CACHE.stats()
    env = run(graph, inputs, params, options=NATIVE)
    mine = threading.get_ident()
    assert mine not in spy.threads
    entry = process_entry(graph)
    assert isinstance(entry.executor, PartitionPlan)
    assert entry.native_plan is None and entry.price_ms is None
    assert _grown(before)["tape_first"] == 1
    expected = run(app_request(app)[0], inputs, params, options=TAPE)
    for name in graph.external_outputs:
        assert np.array_equal(env[name], expected[name])
    wait_for_builds()
    assert spy.compiles and spy.links  # the background build ran cc
    assert mine not in spy.threads


def test_the_native_plan_is_published_and_runs_the_differential(cache_dir, monkeypatch):
    graph, inputs, _ = app_request("Harris")
    before = PROCESS_CACHE.stats()
    first = run(graph, inputs, options=NATIVE)
    entry = process_entry(graph)
    wait_for_builds()
    assert _grown(before) == {"tape_first": 1, "published": 1, "failed": 0}
    native = entry.executor
    assert isinstance(native, NativePartitionPlan)
    assert entry.native_plan is native
    assert native.sanitized and native.differential_pending
    assert entry.price_ms == native.price_ms > 0
    ready = entry.timings_ms["native_ready_ms"]
    assert ready >= entry.timings_ms["native_compile_ms"] > 0
    differentials = []
    real = NativePartitionPlan._verified_first_pass

    def noting(self, *args, **kwargs):
        differentials.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(NativePartitionPlan, "_verified_first_pass", noting)
    with served_natively():
        second = run(graph, inputs, options=NATIVE)
    assert differentials == [native] and not native.differential_pending
    _assert_outputs_equal(graph, second, first)
    # The record holds what the background build and the differential proved.
    record = entry.record
    assert record.saved["library"] == native.library_path.stem
    assert record.saved["sanitized"] and record.saved["differential"]
    assert native.library_path.parent == cache_dir


def test_a_recorded_library_binds_blocking(cache_dir):
    """``warm_restart``'s path: a miss whose record names a library that
    binds is native from its first answer."""
    graph, inputs, _ = app_request("Sobel")
    run(graph, inputs, options=NATIVE)
    wait_for_builds()
    run(graph, inputs, options=NATIVE)  # the differential, recorded
    clear_native_caches()
    clear_plan_caches()
    before = PROCESS_CACHE.stats()
    graph, _, _ = app_request("Sobel")
    with served_natively():
        run(graph, inputs, options=NATIVE)
    entry = process_entry(graph)
    assert "library" in entry.restored
    assert entry.executor is entry.native_plan
    assert _grown(before)["tape_first"] == 0


def _forget_all_but_the_objects(cache_dir):
    """Delete the plan records and libraries and empty the plan caches:
    the next miss has no record, and every object is in the cache."""
    for path in list(cache_dir.glob("plan-*.json")) + list(cache_dir.glob("*.so")):
        path.unlink()
    clear_plan_caches()


def test_objects_in_the_cache_compile_blocking(cache_dir):
    """No record, but every object is in the cache: under standard
    ``cc -c`` would not run, so the miss links and answers natively."""
    graph, inputs, _ = app_request("Unsharp")
    run(graph, inputs, options=STANDARD)
    wait_for_builds()
    _forget_all_but_the_objects(cache_dir)
    before = PROCESS_CACHE.stats()
    graph, _, _ = app_request("Unsharp")
    with served_natively():
        run(graph, inputs, options=STANDARD)
    assert isinstance(process_entry(graph).executor, NativePartitionPlan)
    assert _grown(before)["tape_first"] == 0


def test_a_strict_miss_tiers_though_every_object_is_cached(cache_dir, monkeypatch):
    """Under strict the miss tiers before it lowers anything, so it
    cannot see that no ``cc -c`` would run: its first answer is the
    tape, the build links the cached objects, and the next request runs
    the differential."""
    graph, inputs, _ = app_request("Unsharp")
    run(graph, inputs, options=NATIVE)
    wait_for_builds()
    _forget_all_but_the_objects(cache_dir)
    before = PROCESS_CACHE.stats()
    graph, _, _ = app_request("Unsharp")
    run(graph, inputs, options=NATIVE)
    entry = process_entry(graph)
    assert isinstance(entry.executor, PartitionPlan)
    assert _grown(before)["tape_first"] == 1
    wait_for_builds()
    native = entry.executor
    assert isinstance(native, NativePartitionPlan)
    assert native.objects_compiled == 0 and native.objects_reused > 0
    assert _grown(before) == {"tape_first": 1, "published": 1, "failed": 0}
    differentials = []
    real = NativePartitionPlan._verified_first_pass

    def noting(self, *args, **kwargs):
        differentials.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(NativePartitionPlan, "_verified_first_pass", noting)
    with served_natively():
        run(graph, inputs, options=NATIVE)
    assert differentials == [native] and not native.differential_pending


@pytest.mark.parametrize("validate", ["strict", "standard"])
@pytest.mark.parametrize("app", ["Harris", "Night", "Enhance"])
def test_the_partition_is_lowered_once_by_whoever_decides_with_it(
    cache_dir, monkeypatch, app, validate
):
    """Strict tiers before lowering, so the background build lowers;
    standard lowers on the request's thread to decide, and hands the C
    to the build."""
    monkeypatch.setattr(native_exec, "COSTS", native_exec.CompileCosts(
        tape_ms_per_ipx=1e-9, build_ms=100.0, object_ms=100.0
    ))  # standard tiers too
    threads = []
    real = native_exec.lower_native

    def lowering(*args, **kwargs):
        threads.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(native_exec, "lower_native", lowering)
    graph, inputs, params = app_request(app)
    options = ExecutionOptions(engine="native", validate=validate)
    run(graph, inputs, params, options=options)
    assert isinstance(process_entry(graph).executor, PartitionPlan)
    wait_for_builds()
    assert isinstance(process_entry(graph).executor, NativePartitionPlan)
    mine = threading.get_ident()
    on_request = threads.count(mine)
    expected = (0, 1) if validate == "strict" else (1, 0)
    assert (on_request, len(threads) - on_request) == expected


def test_the_tiered_build_compiles_the_blocking_build_s_library(
    cache_dir, tmp_path, monkeypatch
):
    """The background build lowers the same C a blocking build of the
    same key compiles: the libraries' content digests agree."""
    graph, inputs, _ = app_request("Harris")
    run(graph, inputs, options=NATIVE)
    wait_for_builds()
    tiered = process_entry(graph).executor
    assert isinstance(tiered, NativePartitionPlan)
    clear_plan_caches()
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "blocking"))
    monkeypatch.setattr(plancache, "native_strategy", lambda plan, lowered: "blocking")
    graph, _, _ = app_request("Harris")
    with served_natively():
        run(graph, inputs, options=NATIVE)
    blocking = process_entry(graph).native_plan
    assert blocking.library_path.parent == tmp_path / "blocking"
    assert blocking.library_path.stem == tiered.library_path.stem


@pytest.mark.parametrize("faster", ["tape", "cc"])
def test_standard_mode_tiers_on_the_predicted_costs(cache_dir, monkeypatch, faster):
    costs = native_exec.CompileCosts(
        tape_ms_per_ipx=1e-9 if faster == "tape" else 1.0,
        build_ms=100.0,
        object_ms=100.0,
    )
    monkeypatch.setattr(native_exec, "COSTS", costs)
    graph, inputs, _ = app_request("Sobel")
    run(graph, inputs, options=ExecutionOptions(engine="native", validate="standard"))
    tiered = isinstance(process_entry(graph).executor, PartitionPlan)
    assert tiered == (faster == "tape")


def test_the_process_measures_what_it_predicts_with(cache_dir, monkeypatch):
    costs = native_exec.CompileCosts(tape_ms_per_ipx=1.0, build_ms=0.0, object_ms=1e9)
    monkeypatch.setattr(native_exec, "COSTS", costs)
    graph, inputs, _ = app_request("Night")
    run(graph, inputs, options=NATIVE)  # strict tiers whatever they say
    assert costs.tape_ms_per_ipx < 1.0
    wait_for_builds()
    assert costs.object_ms < 1e9


def test_serving_never_tiers(cache_dir):
    _, inputs, _ = app_request("Harris")
    before = PROCESS_CACHE.stats()
    with ServingRuntime(engine="native", workers=1) as runtime:
        with served_natively():
            runtime.execute("Harris", inputs)
        (entry,) = runtime.cache._entries.values()
        assert isinstance(entry.executor, NativePartitionPlan)
        assert runtime.cache.stats()["tape_first"] == 0
    assert _grown(before)["tape_first"] == 0


def test_a_tape_request_never_tiers(cache_dir):
    graph, inputs, _ = app_request("Sobel")
    before = PROCESS_CACHE.stats()
    run(graph, inputs, options=TAPE)
    assert _grown(before)["tape_first"] == 0
    assert not PROCESS_CACHE._jobs


def test_a_failed_background_build_fails_no_request(cache_dir):
    graph, inputs, _ = app_request("Sobel")
    held = _Held()
    before = PROCESS_CACHE.stats()
    first = run(graph, inputs, options=NATIVE)
    rule = faultinject.inject("native.compile", times=1)
    try:
        held.release()
    finally:
        faultinject.remove(rule)
    assert _grown(before) == {"tape_first": 1, "published": 0, "failed": 1}
    entry = process_entry(graph)
    again = run(graph, inputs, options=NATIVE)
    assert isinstance(entry.executor, PartitionPlan) and entry.native_plan is None
    _assert_outputs_equal(graph, again, first)


def test_one_build_per_key_and_directory(cache_dir, monkeypatch):
    """A clear drops the build queued for its entry; the next miss on
    the key queues its own, which compiles once and publishes into its
    own entry."""
    graph, inputs, _ = app_request("Sobel")
    held = _Held()
    spy = ToolchainSpy(monkeypatch)
    before = PROCESS_CACHE.stats()
    run(graph, inputs, options=NATIVE)
    first = process_entry(graph)
    PROCESS_CACHE.clear()
    run(graph, inputs, options=NATIVE)
    second = process_entry(graph)
    held.release()
    assert _grown(before) == {"tape_first": 2, "published": 1, "failed": 0}
    assert first.native_plan is None  # dropped: it built nothing
    assert isinstance(second.executor, NativePartitionPlan)
    assert len(spy.links) == 1


def test_the_build_compiles_where_its_request_resolved(cache_dir, tmp_path, monkeypatch):
    graph, inputs, _ = app_request("Unsharp")
    held = _Held()
    run(graph, inputs, options=NATIVE)
    later = tmp_path / "later"
    monkeypatch.setenv(CACHE_ENV, str(later))
    held.release()
    assert isinstance(process_entry(graph).executor, NativePartitionPlan)
    assert list(cache_dir.glob("kernel-*.o")) and list(cache_dir.glob("pipeline-*.so"))
    assert not later.exists() or not list(later.iterdir())


def test_a_build_whose_directory_is_gone_does_nothing(cache_dir):
    graph, inputs, _ = app_request("Sobel")
    held = _Held()
    before = PROCESS_CACHE.stats()
    run(graph, inputs, options=NATIVE)
    for path in cache_dir.iterdir():
        path.unlink()
    cache_dir.rmdir()
    held.release()
    assert not cache_dir.exists()
    assert _grown(before) == {"tape_first": 1, "published": 0, "failed": 0}


def test_the_tier_builder_runs_at_the_process_priority(cache_dir, monkeypatch):
    niceness = []
    real_run = subprocess.run

    def run_cc(command, *args, **kwargs):
        niceness.append(os.getpriority(os.PRIO_PROCESS, threading.get_native_id()))
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run_cc)
    graph, inputs, _ = app_request("Sobel")
    run(graph, inputs, options=NATIVE)
    wait_for_builds()
    assert niceness
    assert set(niceness) == {os.getpriority(os.PRIO_PROCESS, os.getpid())}


def test_a_build_never_makes_its_removed_directory_again(cache_dir, monkeypatch):
    held = _Held(monkeypatch)
    graph, inputs, _ = app_request("Sobel")
    before = PROCESS_CACHE.stats()
    run(graph, inputs, options=NATIVE)
    assert held.started.wait(60)
    shutil.rmtree(cache_dir)
    held.release()
    assert not cache_dir.exists()
    assert not list(cache_dir.parent.rglob("*.partial.*"))
    assert _grown(before) == {"tape_first": 1, "published": 0, "failed": 0}


def test_close_drops_a_queued_build_and_waits_for_the_running_one(
    cache_dir, monkeypatch
):
    held = _Held(monkeypatch)
    cache, fusion, entries = PlanCache(), FusionSettings(), []
    for app in ("Sobel", "Unsharp"):
        graph, inputs, _ = app_request(app)
        key = plan_key(graph.structural_signature(), inputs, "native", fusion)
        entries.append(cache.get_or_build(key, lambda graph=graph, key=key: build_plan(
            graph, key=key, fusion=fusion, engine="native", tiering=True
        ))[0])
    assert held.started.wait(60)  # Sobel's build runs, Unsharp's is queued
    closing = threading.Thread(target=cache.close)
    closing.start()
    closing.join(0.5)
    waited = closing.is_alive()
    held.release()
    closing.join(60)
    assert waited and held.done.is_set() and not closing.is_alive()
    assert cache.stats()["tape_first"] == 2 and cache.stats()["published"] == 0
    assert held.calls == 1  # Unsharp's build never ran
    assert all(isinstance(entry.executor, PartitionPlan) for entry in entries)


ONE_SHOT = """
import sys
from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS, request_inputs
spec = APPLICATIONS["Harris"]
graph = spec.build(96, 64).build()
run(graph, request_inputs(spec, 96, 64, 0), options=ExecutionOptions(engine="native"))
from repro.serve.plancache import PROCESS_CACHE
print(PROCESS_CACHE.stats()["tape_first"])
"""


def _processes_naming(path):
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read()
        except OSError:
            continue
        if str(path).encode() in command:
            found.append(command)
    return found


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_one_shot_cold_request_exits_clean(tmp_path):
    cache = tmp_path / "cc"
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_VALIDATE="strict")
    env[CACHE_ENV] = str(cache)
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", ONE_SHOT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]  # answered on the tape
    assert seconds < 60
    assert not _processes_naming(cache)
    assert not list(cache.glob("*.partial.*"))
