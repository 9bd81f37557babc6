"""One build, two doors: ``repro.api.run`` and ``ServingRuntime`` share
:func:`repro.serve.plancache.build_plan`, :func:`plan_key` and the
:class:`PlanCache` class.

Pins what that buys and what keeps it sound: both doors build the same
partition and compute the same bits on every engine, the fusion
decision is paid once per key (not once per graph object, not once per
call), every build input — including the native lowering knobs — is in
the key, the process-cache resets still reset, a quarantined plan is
rebuilt from scratch, and strict mode means "verified and sanitized
before first use, once" at both doors.
"""

import sys
import threading
import time

import numpy as np
import pytest

from helpers import count_calls

import repro.analysis.native_check as native_check
import repro.analysis.verifier as verifier
import repro.api as api
import repro.serve.runtime as serve_runtime
from repro.api import ExecutionOptions, FusionSettings, run
from repro.apps import APPLICATIONS, request_inputs
from repro.backend import engines, native_exec, native_lower
from repro.backend import plan as tape
from repro.backend.cpu_exec import compiler_available
from repro.fusion import partition_for
from repro.graph.partition import Partition
from repro.model.hardware import GTX680, K20C
from repro.serve import (
    ResiliencePolicy,
    ServingRuntime,
    default_registry,
    fault_injection,
)
from repro.serve import plancache
from repro.serve.plancache import PROCESS_CACHE

WIDTH, HEIGHT = 32, 24

# A cold direct native request compiles before it answers: this suite's
# subject is the native build, which a tiered first answer would defer.
pytestmark = pytest.mark.usefixtures("blocking_native")

needs_cc = pytest.mark.skipif(
    not compiler_available(), reason="no C compiler on PATH"
)


def _graph(name="Sobel"):
    """A fresh graph object each call — structurally identical ones."""
    return APPLICATIONS[name].build(WIDTH, HEIGHT).build()


def _inputs(name="Sobel"):
    return request_inputs(APPLICATIONS[name], WIDTH, HEIGHT, seed=0)


def _count_builds(monkeypatch):
    """Entries built through ``build_plan``, per door."""
    return (
        count_calls(monkeypatch, api, "build_plan"),
        count_calls(monkeypatch, serve_runtime, "build_plan"),
    )


def _count_tape_plans(monkeypatch):
    built = []

    class Counted(tape.PartitionPlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(tape, "PartitionPlan", Counted)
    return built


# -- (a) the two doors agree ------------------------------------------------


@pytest.mark.parametrize("engine", engines.ENGINE_NAMES)
@pytest.mark.parametrize("naive_borders", [False, True])
@pytest.mark.parametrize("mode", ["fused", "explicit", "staged"])
def test_both_doors_build_the_same_plan(
    monkeypatch, engine, naive_borders, mode
):
    graph = _graph("Harris")
    inputs = _inputs("Harris")
    # Not the runtime's default: the served call must honour it.
    fusion = FusionSettings(
        version="basic", gpu_name="K20c", naive_borders=naive_borders
    )
    shaping = {"fusion": fusion}
    if mode == "explicit":
        shaping["partition"] = partition_for(graph, GTX680, "basic")
    elif mode == "staged":
        shaping["fuse"] = False
    direct_builds, served_builds = _count_builds(monkeypatch)

    direct = run(
        graph, inputs, options=ExecutionOptions(engine=engine, **shaping)
    )
    with ServingRuntime(engine=engine, workers=1) as runtime:
        served = run(
            graph, inputs, options=ExecutionOptions(runtime=runtime, **shaping)
        )

    assert len(direct_builds) == len(served_builds) == 1
    assert direct_builds[0].key == served_builds[0].key
    assert (
        direct_builds[0].partition.signature()
        == served_builds[0].partition.signature()
    )
    if mode == "fused":
        assert direct_builds[0].fusion == served_builds[0].fusion == fusion
        assert (
            served_builds[0].partition.signature()
            == partition_for(graph, K20C, "basic").signature()
        )
    if mode == "staged":
        assert (
            direct_builds[0].partition.signature()
            == Partition.singletons(graph).signature()
        )
    assert direct_builds[0].engine == served_builds[0].engine
    assert sorted(direct) == sorted(served)
    for image, expected in direct.items():
        np.testing.assert_array_equal(served[image], expected)


def test_baseline_version_serves_singletons_at_both_doors(monkeypatch):
    # ``baseline`` is a fusion version without a fusion engine.
    fusion = FusionSettings(version="baseline")
    direct_builds, served_builds = _count_builds(monkeypatch)
    direct = run(
        _graph(), _inputs(), options=ExecutionOptions(engine="tape", fusion=fusion)
    )
    with ServingRuntime(engine="tape", workers=1) as runtime:
        served = run(
            _graph(),
            _inputs(),
            options=ExecutionOptions(runtime=runtime, fusion=fusion),
        )
    singletons = Partition.singletons(_graph()).signature()
    for (entry,) in (direct_builds, served_builds):
        assert entry.fusion == fusion
        assert entry.partition.signature() == singletons
    for image, expected in direct.items():
        np.testing.assert_array_equal(served[image], expected)


def test_unknown_fusion_version_names_the_known_ones():
    with pytest.raises(api.ExecutionError, match="known: baseline, basic"):
        FusionSettings(version="fastest")


# -- (b) the decision is paid once per key ----------------------------------


def test_identical_fresh_graph_does_not_fuse_again(monkeypatch):
    fusions = count_calls(monkeypatch, plancache, "partition_for")
    inputs = _inputs()
    first = run(_graph(), inputs)
    assert len(fusions) == 1
    second = run(_graph(), inputs)
    assert len(fusions) == 1
    np.testing.assert_array_equal(first["magnitude"], second["magnitude"])
    assert PROCESS_CACHE.stats()["size"] == 1


def test_named_calls_plan_once(monkeypatch):
    # The default registry pins its graphs for the life of the process,
    # and with them whatever an earlier test planned on this one.
    tape.clear_plan_caches()
    plans = _count_tape_plans(monkeypatch)
    inputs = _inputs()
    run("Sobel", inputs)
    run("Sobel", inputs)
    assert len(plans) == 1


# -- (c) every build input is in the key ------------------------------------


@needs_cc
@pytest.mark.parametrize(
    "knob, value",
    [
        ("REPRO_NATIVE_TILE2D", "8x16"),
        ("REPRO_NATIVE_F32", "on"),
        ("REPRO_NATIVE_CFLAGS", "-DREPRO_TEST_BUILD_KEY=1"),
    ],
)
def test_lowering_knob_change_replans_a_fresh_graph(
    monkeypatch, tmp_path, knob, value
):
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    builds, _ = _count_builds(monkeypatch)
    options = ExecutionOptions(engine="native")
    inputs = _inputs()
    run(_graph(), inputs, options=options)
    run(_graph(), inputs, options=options)
    assert len(builds) == 1
    monkeypatch.setenv(knob, value)
    run(_graph(), inputs, options=options)
    assert len(builds) == 2
    assert builds[1].native_plan is not builds[0].native_plan


def _harris_96x64():
    spec = APPLICATIONS["Harris"]
    return spec.build(96, 64).build(), request_inputs(spec, 96, 64, seed=0)


def _tiles(entry):
    """The 2D tile of each tiled block of ``entry``'s native plan."""
    return [
        native.spec.tile2d
        for native in entry.native_plan.natives
        if native is not None and native.spec.tile2d
    ]


def _auto_tiles(graph, entry):
    """What ``REPRO_NATIVE_TILE2D=auto`` tiles ``entry``'s partition with."""
    return [
        tuple(block["choice"]["tile"])
        for block in native_lower.tile2d_report(graph, entry.partition)
        if "choice" in block
    ]


@needs_cc
def test_the_build_lowers_what_the_key_names(monkeypatch, tmp_path):
    """A knob changed between the key and the build does not reach the
    build: the plan cached under an ``auto`` key has ``auto`` tiles."""
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NATIVE_TILE2D", raising=False)
    graph, inputs = _harris_96x64()
    fusion = FusionSettings()
    key = plancache.plan_key(graph.structural_signature(), inputs, "native", fusion)
    monkeypatch.setenv("REPRO_NATIVE_TILE2D", "8x16")
    entry, hit = plancache.PlanCache().get_or_build(
        key,
        lambda: plancache.build_plan(
            graph, key=key, fusion=fusion, engine="native"
        ),
    )
    assert not hit and key[4].tile2d == "auto"
    monkeypatch.delenv("REPRO_NATIVE_TILE2D")
    expected = _auto_tiles(graph, entry)
    assert expected and (8, 16) not in expected
    assert _tiles(entry) == expected


@needs_cc
def test_a_served_build_lowers_what_submit_saw(monkeypatch, tmp_path):
    """The environment changes between ``submit`` and the worker's
    build: the worker lowers what the environment said at submit."""
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NATIVE_TILE2D", raising=False)
    _, inputs = _harris_96x64()
    gate, built = threading.Event(), []
    real = serve_runtime.build_plan

    def held(*args, **kwargs):
        assert gate.wait(timeout=60)
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(serve_runtime, "build_plan", held)
    with ServingRuntime(engine="native", workers=1) as runtime:
        handle = runtime.submit("Harris", inputs)
        monkeypatch.setenv("REPRO_NATIVE_TILE2D", "8x16")
        gate.set()
        handle.result()
    monkeypatch.delenv("REPRO_NATIVE_TILE2D")
    (entry,) = built
    assert entry.key[4].tile2d == "auto"
    expected = _auto_tiles(entry.graph, entry)
    assert expected and (8, 16) not in expected
    assert _tiles(entry) == expected


# -- (d) the process-cache resets still reset -------------------------------


@needs_cc
def test_cache_resets_empty_the_process_cache(monkeypatch):
    fusions = count_calls(monkeypatch, plancache, "partition_for")
    plans = _count_tape_plans(monkeypatch)
    natives = count_calls(monkeypatch, native_exec, "_build_native_partition")
    options = ExecutionOptions(engine="native")
    graph, inputs = _graph(), _inputs()
    run(graph, inputs, options=options)
    run(graph, inputs, options=options)
    assert (len(fusions), len(plans), len(natives)) == (1, 1, 1)
    native_exec.clear_native_caches()
    tape.clear_plan_caches()
    assert len(PROCESS_CACHE) == 0
    run(graph, inputs, options=options)
    # The tape plan is rebuilt; the partition is not re-decided and the
    # native plan is not lowered again — the persisted plan record
    # supplies the partition and binds the library (test_plan_record.py).
    assert (len(fusions), len(plans), len(natives)) == (1, 2, 1)


@pytest.mark.parametrize(
    "reset", [tape.clear_plan_caches, native_exec.clear_native_caches]
)
def test_either_reset_alone_empties_the_process_cache(reset):
    run(_graph(), _inputs())
    assert len(PROCESS_CACHE) == 1
    reset()
    assert len(PROCESS_CACHE) == 0


# -- (e) a racing first call builds once ------------------------------------


def test_racing_first_calls_build_once(monkeypatch):
    threads = 8
    real_build = api.build_plan
    builds = []

    def slow_build(*args, **kwargs):
        builds.append(1)
        time.sleep(0.2)  # hold the build open so the others pile up on it
        return real_build(*args, **kwargs)

    monkeypatch.setattr(api, "build_plan", slow_build)
    inputs = _inputs()
    graphs = [_graph() for _ in range(threads)]
    barrier = threading.Barrier(threads)
    results, errors = [], []

    def client(graph):
        try:
            barrier.wait(10.0)
            results.append(run(graph, inputs)["magnitude"])
        except BaseException as err:
            errors.append(err)

    before = PROCESS_CACHE.stats()
    workers = [
        threading.Thread(target=client, args=(graph,)) for graph in graphs
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors
    after = PROCESS_CACHE.stats()
    assert len(builds) == 1
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == threads - 1
    assert after["coalesced"] - before["coalesced"] >= 1
    for result in results[1:]:
        np.testing.assert_array_equal(result, results[0])


# -- (f) a plan that failed at execute time is not served again -------------


class _Boom:
    def execute(self, *args, **kwargs):
        raise RuntimeError("poisoned plan")


def test_entry_whose_execute_raised_is_dropped(monkeypatch):
    builds, _ = _count_builds(monkeypatch)
    graph, inputs = _graph(), _inputs()
    expected = run(graph, inputs)
    builds[0].executor = _Boom()
    with pytest.raises(RuntimeError, match="poisoned plan"):
        run(graph, inputs)
    assert len(PROCESS_CACHE) == 0
    again = run(graph, inputs)
    assert len(builds) == 2
    np.testing.assert_array_equal(again["magnitude"], expected["magnitude"])


def test_ladder_degrades_past_a_poisoned_entry(monkeypatch):
    builds, _ = _count_builds(monkeypatch)
    graph, inputs = _graph(), _inputs()
    options = ExecutionOptions(engine="tape", resilience=ResiliencePolicy())
    expected = run(graph, inputs, options=options)
    builds[0].executor = _Boom()
    degraded = run(graph, inputs, options=options)
    assert [entry.engine for entry in builds] == ["tape", "recursive"]
    np.testing.assert_array_equal(
        degraded["magnitude"], expected["magnitude"]
    )
    # The poisoned tape entry is gone; the next call rebuilds it.
    run(graph, inputs, options=options)
    assert [entry.engine for entry in builds][2:] == ["tape"]


# -- (g) a quarantined plan is really gone: its graph forgot it too ---------


def _assert_rebuilt_from_scratch(quarantined, rebuilt):
    assert quarantined.engine == rebuilt.engine == "native"
    assert rebuilt.plan is not quarantined.plan
    assert rebuilt.native_plan is not quarantined.native_plan
    # The library was read again, from the compile cache.
    assert rebuilt.native_plan.from_cache


@needs_cc
def test_direct_door_rebuilds_a_quarantined_plan_from_scratch(monkeypatch):
    builds, _ = _count_builds(monkeypatch)
    graph, inputs = _graph(), _inputs()
    options = ExecutionOptions(engine="native", resilience=ResiliencePolicy())
    expected = run(graph, inputs, options=options)
    builds[0].executor = _Boom()
    run(graph, inputs, options=options)  # served one rung down
    again = run(graph, inputs, options=options)
    assert [entry.engine for entry in builds] == ["native", "tape", "native"]
    _assert_rebuilt_from_scratch(builds[0], builds[2])
    np.testing.assert_array_equal(again["magnitude"], expected["magnitude"])


@needs_cc
def test_serving_door_rebuilds_a_quarantined_plan_from_scratch(monkeypatch):
    _, builds = _count_builds(monkeypatch)
    inputs = _inputs()
    with ServingRuntime(
        default_registry(apps={"Sobel"}), engine="native", workers=1
    ) as runtime:
        expected = runtime.execute("Sobel", inputs)
        with fault_injection("cache.hit", "corrupt", times=1):
            again = runtime.execute("Sobel", inputs)
        assert runtime.cache.stats()["quarantined"] == 1
    assert len(builds) == 2
    _assert_rebuilt_from_scratch(builds[0], builds[1])
    np.testing.assert_array_equal(again["magnitude"], expected["magnitude"])


# -- strict: verified and sanitized before first use, once ------------------


def _direct_door(engine):
    graph, inputs = _graph(), _inputs()
    options = ExecutionOptions(engine=engine)
    return lambda: run(graph, inputs, options=options), lambda: None


def _serving_door(engine):
    runtime = ServingRuntime(
        default_registry(apps={"Sobel"}), engine=engine, workers=1
    )
    inputs = _inputs()
    return lambda: runtime.execute("Sobel", inputs), runtime.close


@pytest.mark.parametrize("door", [_direct_door, _serving_door])
@pytest.mark.parametrize("first_mode", ["standard", "strict"])
@pytest.mark.parametrize(
    "engine", ["tape", pytest.param("native", marks=needs_cc)]
)
def test_strict_validates_each_plan_exactly_once(
    monkeypatch, door, first_mode, engine
):
    verifies = count_calls(monkeypatch, verifier, "verify_partition_plan")
    sanitizes = count_calls(monkeypatch, native_check, "verify_native_blocks")
    request, close = door(engine)
    try:
        monkeypatch.setenv("REPRO_VALIDATE", first_mode)
        request()
        if first_mode == "standard":
            assert (len(verifies), len(sanitizes)) == (0, 0)
        monkeypatch.setenv("REPRO_VALIDATE", "strict")
        request()
        request()
    finally:
        close()
    assert len(verifies) == 1
    assert len(sanitizes) == (1 if engine == "native" else 0)
