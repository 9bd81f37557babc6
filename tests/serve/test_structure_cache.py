"""Structure-keyed plan caching: one cached plan, every resolution.

``ServingRuntime(cache_keying="structure")`` keys the plan cache on the
graph's shape-agnostic :meth:`~repro.graph.dag.KernelGraph.
structure_signature` plus input dtypes and serves mixed-resolution
traffic from a single shape-polymorphic native plan.  These tests pin:

* the keying machinery itself (``plan_key`` / ``inputs_structure`` and
  the ``miss_structure`` / ``miss_shape`` split);
* the mixed-resolution replay contract — over four resolutions the
  structure-keyed runtime records exactly one miss (a structure miss),
  a hit rate >= 0.9, **one** native partition build, and bit-identical
  results to direct execution;
* the constructor validation and the no-compiler downgrade path.
"""

import zlib

import numpy as np
import pytest

from repro.api import ExecutionOptions, run
from repro.apps import ALL_APPS, APPLICATIONS, request_inputs
from repro.backend import native_exec
from repro.backend.native_exec import native_available
from repro.graph.partition import Partition
from repro.serve.plancache import (
    CACHE_KEYINGS,
    FusionSettings,
    PlanCache,
    inputs_signature,
    inputs_structure,
    plan_key,
)
from repro.serve.registry import DEFAULT_APP_PARAMS, default_registry
from repro.serve.runtime import ServingRuntime

needs_cc = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

#: Four resolutions, all clearing every paper mask radius.
RESOLUTIONS = [(64, 48), (48, 32), (80, 60), (96, 64)]


def _inputs(app_name, width, height, salt=0):
    seed = zlib.crc32(app_name.encode()) + salt
    return request_inputs(APPLICATIONS[app_name], width, height, seed)


@pytest.fixture
def native_builds(monkeypatch):
    """The ``polymorphic`` flag of every native partition build."""
    builds = []
    real_build = native_exec._build_native_partition

    def counting_build(graph, partition, naive_borders, polymorphic=False):
        builds.append(polymorphic)
        return real_build(graph, partition, naive_borders, polymorphic)

    monkeypatch.setattr(
        native_exec, "_build_native_partition", counting_build
    )
    return builds


# -- key machinery ---------------------------------------------------------


def test_inputs_structure_elides_shapes():
    small = {"input": np.zeros((48, 64))}
    large = {"input": np.zeros((60, 80))}
    assert inputs_signature(small) != inputs_signature(large)
    assert inputs_structure(small) == inputs_structure(large)
    assert inputs_structure(small) != inputs_structure(
        {"input": np.zeros((48, 64), dtype=np.float32)}
    )


def test_plan_key_keying_modes():
    fusion = FusionSettings()
    small = {"input": np.zeros((48, 64))}
    large = {"input": np.zeros((60, 80))}
    assert plan_key("sig", small, "native", fusion) != plan_key(
        "sig", large, "native", fusion
    )
    assert plan_key("sig", small, "native", fusion, keying="structure") == (
        plan_key("sig", large, "native", fusion, keying="structure")
    )
    with pytest.raises(ValueError, match="unknown cache keying"):
        plan_key("sig", small, "native", fusion, keying="geometry")


def test_miss_split_classifies_shape_misses():
    """A shape-keyed cache re-missing a known structure at a new
    geometry books a *shape* miss — the miss structure keying removes."""
    cache = PlanCache()
    fusion = FusionSettings()
    keys = [
        plan_key(f"sig@{w}x{h}", {"input": np.zeros((h, w))}, "tape", fusion)
        for w, h in RESOLUTIONS
    ]
    for key in keys:
        assert cache.get(key, structure_key="structure") is None
    stats = cache.stats()
    assert stats["misses"] == len(RESOLUTIONS)
    assert stats["miss_structure"] == 1
    assert stats["miss_shape"] == len(RESOLUTIONS) - 1
    # A different structure opens its own account.
    other = plan_key(
        "other@64x48", {"input": np.zeros((48, 64))}, "tape", fusion
    )
    assert cache.get(other, structure_key="other") is None
    assert cache.stats()["miss_structure"] == 2


# -- constructor contract --------------------------------------------------


def test_structure_keying_requires_native_engine():
    registry = default_registry(apps={"Sobel"})
    with pytest.raises(ValueError, match="requires engine='native'"):
        ServingRuntime(registry, engine="tape", cache_keying="structure")
    with pytest.raises(ValueError, match="unknown cache keying"):
        ServingRuntime(registry, engine="tape", cache_keying="geometry")
    assert CACHE_KEYINGS == ("shape", "structure")


def test_structure_keying_accepts_native_from_the_environment(monkeypatch):
    """``engine=None`` defers to ``REPRO_EXEC_ENGINE``; the check reads
    the resolved name, not the raw argument."""
    monkeypatch.setenv("REPRO_EXEC_ENGINE", "native")
    registry = default_registry(apps={"Sobel"})
    with ServingRuntime(
        registry, engine=None, cache_keying="structure"
    ) as runtime:
        assert runtime.requested_engine == "native"
        assert runtime.requested_cache_keying == "structure"
    monkeypatch.setenv("REPRO_EXEC_ENGINE", "tape")
    with pytest.raises(ValueError, match="requires engine='native'"):
        ServingRuntime(registry, engine=None, cache_keying="structure")


def test_structure_keying_downgrades_with_the_engine(monkeypatch):
    monkeypatch.setattr(native_exec, "native_available", lambda: False)
    registry = default_registry(apps={"Sobel"})
    with ServingRuntime(
        registry, engine="native", cache_keying="structure"
    ) as runtime:
        assert runtime.engine == "tape"
        assert runtime.cache_keying == "shape"
        assert runtime.requested_engine == "native"
        assert runtime.requested_cache_keying == "structure"
        snapshot = runtime.metrics_snapshot()
        assert snapshot["plan_cache"]["keying"] == "shape"


# -- mixed-resolution replay ----------------------------------------------


def _replay(runtime, app_name, repeats=3):
    """Fire ``repeats`` requests per resolution; return served results
    keyed by (resolution, repeat)."""
    results = {}
    for salt in range(repeats):
        for width, height in RESOLUTIONS:
            inputs = _inputs(app_name, width, height, salt)
            results[(width, height, salt)] = (
                inputs,
                runtime.execute(app_name, inputs),
            )
    return results


@needs_cc
def test_structure_keyed_replay_compiles_once_and_serves_all_shapes(
    native_builds,
):
    app_name = "Harris"
    registry = default_registry(apps={app_name})
    with ServingRuntime(
        registry, engine="native", cache_keying="structure"
    ) as runtime:
        results = _replay(runtime, app_name)
        stats = runtime.metrics_snapshot()["plan_cache"]

    total = len(RESOLUTIONS) * 3
    assert stats["keying"] == "structure"
    assert stats["hits"] == total - 1
    assert stats["misses"] == 1
    assert stats["miss_structure"] == 1
    assert stats["miss_shape"] == 0
    assert stats["hit_rate"] >= 0.9

    # The native artifact compiled exactly once, polymorphically.
    assert native_builds == [True]

    # Every served result is bit-identical to direct native execution.
    options = ExecutionOptions(engine="native")
    for (width, height, _), (inputs, served) in results.items():
        graph = APPLICATIONS[app_name].build(width, height).build()
        reference = run(graph, inputs, options=options)
        assert set(served) == set(reference)
        for name in reference:
            assert np.array_equal(reference[name], served[name]), (
                name,
                width,
                height,
            )


@needs_cc
def test_shape_keyed_replay_misses_once_per_resolution(native_builds):
    app_name = "Harris"
    registry = default_registry(apps={app_name})
    with ServingRuntime(
        registry, engine="native", cache_keying="shape"
    ) as runtime:
        _replay(runtime, app_name)
        stats = runtime.metrics_snapshot()["plan_cache"]

    total = len(RESOLUTIONS) * 3
    assert stats["keying"] == "shape"
    assert stats["misses"] == len(RESOLUTIONS)
    assert stats["hits"] == total - len(RESOLUTIONS)
    # The split names the cause: one unavoidable structure miss, the
    # rest are shape misses — the traffic structure keying absorbs.
    assert stats["miss_structure"] == 1
    assert stats["miss_shape"] == len(RESOLUTIONS) - 1
    # ...and each of them paid for a shape-specialized native compile.
    assert native_builds == [False] * len(RESOLUTIONS)


@needs_cc
def test_structure_keyed_lazy_graphs_share_the_cache_entry():
    """Lazy-recorded graphs lower to the same structure signature as
    their hand-built twins, so ``execute_graph`` traffic from either
    frontend lands on one cached polymorphic plan."""
    from repro.lazy.apps import lazy_trace

    registry = default_registry(apps={"Sobel"})
    with ServingRuntime(
        registry, engine="native", cache_keying="structure"
    ) as runtime:
        for salt, (width, height) in enumerate(RESOLUTIONS):
            inputs = _inputs("Sobel", width, height, salt)
            hand = APPLICATIONS["Sobel"].build(width, height).build()
            lazy = lazy_trace("Sobel", width, height).graph()
            from_hand = runtime.execute_graph(hand, inputs)
            from_lazy = runtime.execute_graph(lazy, inputs)
            for name in from_hand:
                assert np.array_equal(from_hand[name], from_lazy[name])
        stats = runtime.metrics_snapshot()["plan_cache"]
    assert stats["misses"] == 1
    assert stats["hits"] == 2 * len(RESOLUTIONS) - 1


@needs_cc
def test_explicit_partition_is_shape_keyed_and_built_specialized():
    """An explicit partition never gets a structure key, so its plan
    must not be built polymorphic either: DoG's global ``peak`` block
    falls back to the tape, which a polymorphic build refuses — the
    request then degraded to the tape engine on a structure-keyed
    runtime only.  Key and build share one predicate."""
    spec, params = ALL_APPS["DoG"], DEFAULT_APP_PARAMS["DoG"]
    graph = spec.build(64, 48).build()
    inputs = request_inputs(spec, 64, 48, seed=0)
    singletons = Partition.singletons(graph)
    registry = default_registry(include_extensions=True, apps={"DoG"})
    with ServingRuntime(
        registry, engine="native", cache_keying="structure"
    ) as runtime:
        served = runtime.execute_graph(graph, inputs, params, singletons)
        snapshot = runtime.metrics_snapshot()
    counters = snapshot["counters"]
    assert counters["engine_native_executions"] == 1
    assert counters["native_blocks_fallback"] == 1
    assert not [name for name in counters if name.startswith("degraded_to_")]
    assert snapshot["plan_cache"]["miss_structure"] == 1
    reference = run(
        graph,
        inputs,
        params,
        options=ExecutionOptions(engine="native", partition=singletons),
    )
    assert set(served) == set(reference)
    for name in reference:
        assert np.array_equal(reference[name], served[name]), name
