"""Hot plans re-fuse: a native entry that has paid for its compile is
rebuilt on the maximal legal partition and served from it when that is
bit-identical and measured faster.

The price is the ``native_compile_ms`` of the build that ran ``cc``
(kept in the plan record for a restart), the build runs on the one
background builder through the same ``build_plan``, and the next
``PROMOTION_TRIALS`` requests run both plans.  These tests drive each
step by hand where timing would decide it: ``entry.price_ms = 0.0``
makes the next execute pay, ``wait_for_hot_builds()`` waits for the
build, and trials whose cold side is pre-booked as slow leave the
verdict to the bits.  Races are staged with ``threading.Barrier``.
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from helpers import chain_pipeline, wait_for_hot_builds

from repro.analysis.explain import explain_structure
from repro.api import ExecutionOptions, FusionSettings, run
from repro.apps import APPLICATIONS, request_inputs
from repro.backend import cpu_exec
from repro.backend.cpu_exec import CACHE_ENV, compiler_available, openmp_available
from repro.backend.native_exec import (
    assert_native_equiv,
    clear_native_caches,
    tolerance_for,
)
from repro.backend.plan import clear_plan_caches
from repro.fusion.distribution import maximal_partition
from repro.graph.dag import KernelGraph
from repro.lazy.apps import lazy_trace
from repro.model.hardware import GTX680
from repro.serve import ServingRuntime
from repro.serve import plancache
from repro.serve.plancache import (
    PROCESS_CACHE,
    PROMOTION_TRIALS,
    FusionSettings,
    PlanCache,
    build_plan,
    plan_key,
)
from repro.serve.registry import DEFAULT_APP_PARAMS

# A direct native miss compiles before it answers here: these tests are
# about the native entry's life after its first request.
pytestmark = [
    pytest.mark.skipif(not compiler_available(), reason="no C compiler on PATH"),
    pytest.mark.usefixtures("blocking_native"),
]

NATIVE = ExecutionOptions(engine="native")
TIER_COUNTERS = ("hot_published", "hot_unequal", "hot_slower", "served_hot")
APPS = ("Harris", "ShiTomasi", "Night", "Enhance", "Sobel", "Unsharp")
#: The apps whose maximal partition is the model's own.
SAME = {"Enhance", "Sobel", "Unsharp"}


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "cc"
    monkeypatch.setenv(CACHE_ENV, str(directory))
    clear_plan_caches()
    yield directory
    wait_for_hot_builds()


def _request(app, width=96, height=64, seed=0):
    spec = APPLICATIONS[app]
    return spec.build(width, height).build(), request_inputs(
        spec, width, height, seed
    )


def _entry(graph, engine="native"):
    (entry,) = [
        e
        for e in PROCESS_CACHE._entries.values()
        if e.graph is graph and e.engine == engine
    ]
    return entry


def _grown(before):
    """How much each tier-up counter of PROCESS_CACHE grew since
    ``before`` (a ``stats()`` snapshot: the cache outlives tests)."""
    after = PROCESS_CACHE.stats()
    return {name: after[name] - before[name] for name in TIER_COUNTERS}


def _build_hot(entry, inputs, params=None):
    """Let the next execute pay the price, then wait for the build."""
    entry.price_ms = 0.0
    entry.execute(inputs, params)
    wait_for_hot_builds()


def _book_slow_cold_trials(entry):
    """All but the last trial booked equal with a cold side no plan is
    slower than: the last, live trial decides on the bits."""
    entry._claimed = PROMOTION_TRIALS - 1
    entry._trials = [(True, 1e9, 0.0)] * (PROMOTION_TRIALS - 1)


def _promote(entry, inputs):
    _build_hot(entry, inputs)
    assert entry.tier == "building" and entry.hot is not None
    _book_slow_cold_trials(entry)
    entry.execute(inputs)
    assert entry.tier == "hot"


# ---------------------------------------------------------------------------
# The maximal partition
# ---------------------------------------------------------------------------


class TestMaximalPartition:
    @pytest.mark.parametrize("app", APPS)
    def test_the_apps_fuse_into_one_block(self, app):
        graph, _ = _request(app)
        partition = maximal_partition(graph, GTX680)
        assert partition.graph is graph
        assert partition.signature() == (tuple(sorted(graph.kernel_names)),)

    def test_an_illegal_whole_is_distributed(self):
        """An intermediate image that must survive makes the whole chain
        a two-destination block (FUS001): it is cut at that image, and
        nothing else — no device limit applies."""
        pipe = chain_pipeline(("l", "p", "l", "p"), 64, 48)
        graph = KernelGraph(list(pipe.kernels), external_outputs=("img2",))
        assert explain_structure(graph, graph.kernel_names)
        partition = maximal_partition(graph, GTX680)
        assert partition.signature() == (("k0", "k1"), ("k2", "k3"))


# ---------------------------------------------------------------------------
# Who re-fuses
# ---------------------------------------------------------------------------


class TestPrice:
    def test_the_price_is_the_compile_that_ran_cc(self, cache_dir):
        graph, inputs = _request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = _entry(graph)
        assert not entry.native_plan.from_cache
        assert 0 < entry.price_ms <= entry.timings_ms["native_compile_ms"]
        assert entry.price_ms == entry.native_plan.price_ms
        (record,) = cache_dir.glob("plan-*.json")
        assert json.loads(record.read_text())["compile_ms"] == entry.price_ms

    def test_an_evicted_entry_rebuilt_on_its_memo_pays_the_same(
        self, cache_dir
    ):
        """The rebuild finds the native plan memoized on the graph and
        lowers nothing: its own compile stage takes microseconds, the
        price stays the compile that was paid."""
        graph, inputs = _request("Harris")
        with ServingRuntime(
            engine="native", workers=1, cache_capacity=1
        ) as runtime:
            cache = runtime.cache
            runtime.execute_graph(graph, inputs)
            (first,) = cache._entries.values()
            paid = first.price_ms
            other, other_inputs = _request("Sobel")
            runtime.execute_graph(other, other_inputs)
            assert first.key not in cache._entries
            runtime.execute_graph(graph, inputs)
            (rebuilt,) = cache._entries.values()
        assert rebuilt is not first
        assert rebuilt.native_plan is first.native_plan
        assert not rebuilt.native_plan.from_cache
        assert rebuilt.timings_ms["native_compile_ms"] < paid
        assert rebuilt.price_ms == paid

    def test_a_restored_entry_is_not_hot_below_the_recorded_price(
        self, cache_dir
    ):
        """The restored build binds its library in well under a
        millisecond; pricing it by that would re-fuse after a request
        or two (and cost ``warm_restart`` a background build per
        round).  The price is the record's."""
        graph, inputs = _request("Harris")
        run(graph, inputs, options=NATIVE)
        paid = _entry(graph).price_ms
        clear_native_caches()
        clear_plan_caches()
        graph, _ = _request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = _entry(graph)
        assert "library" in entry.restored
        bind_ms = entry.timings_ms["native_compile_ms"]
        assert entry.price_ms == paid > bind_ms
        while entry.executed_ms <= bind_ms or entry.executed_ms < paid / 2:
            run(graph, inputs, options=NATIVE)
            assert entry.tier == "cold"
        assert entry.executed_ms > bind_ms

    def test_a_library_from_the_cache_without_a_record_never_re_fuses(
        self, cache_dir
    ):
        graph, inputs = _request("Sobel")
        run(graph, inputs, options=NATIVE)
        clear_native_caches()
        for record in cache_dir.glob("plan-*.json"):
            record.unlink()
        graph, _ = _request("Sobel")
        run(graph, inputs, options=NATIVE)
        entry = _entry(graph)
        assert entry.native_plan.from_cache and entry.price_ms is None

    @pytest.mark.parametrize(
        "options",
        [
            ExecutionOptions(engine="tape"),
            ExecutionOptions(engine="native", fuse=False),
            ExecutionOptions(
                engine="native", fusion=FusionSettings(naive_borders=True)
            ),
        ],
        ids=["tape", "explicit", "naive_borders"],
    )
    def test_who_never_re_fuses(self, cache_dir, options):
        graph, inputs = _request("Harris")
        run(graph, inputs, options=options)
        assert _entry(graph, options.engine).price_ms is None

    def test_an_explicit_partition_keeps_every_image(self, cache_dir):
        graph, inputs = _request("Harris")
        env = run(graph, inputs, options=ExecutionOptions(
            engine="native", fuse=False
        ))
        assert set(env) == set(inputs) | {
            graph.kernel(name).output.name for name in graph.kernel_names
        }

    @pytest.mark.parametrize("app", sorted(SAME))
    def test_same_partition_builds_nothing(self, cache_dir, monkeypatch, app):
        graph, inputs = _request(app)
        params = DEFAULT_APP_PARAMS.get(app)
        run(graph, inputs, params, options=NATIVE)
        entry = _entry(graph)
        built = []
        real = plancache.build_plan
        monkeypatch.setattr(
            plancache,
            "build_plan",
            lambda *a, **k: built.append(1) or real(*a, **k),
        )
        _build_hot(entry, inputs, params)
        assert entry.tier == "same" and entry.hot is None and not built


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="per-thread priorities"
)
def test_a_hot_build_compiles_at_low_priority(cache_dir, monkeypatch):
    """The hot build runs every ``cc`` from the niced builder thread,
    which the compilers inherit; it starts no compile-pool thread, so
    none is left at that priority for the requests after."""
    graph, inputs = _request("Harris")
    run(graph, inputs, options=NATIVE)
    monkeypatch.setattr(cpu_exec, "_compile_pool", None)
    niceness = []
    real_run = subprocess.run

    def run_cc(command, *args, **kwargs):
        niceness.append(
            os.getpriority(os.PRIO_PROCESS, threading.get_native_id())
        )
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run_cc)
    _build_hot(_entry(graph), inputs)
    assert _entry(graph).hot is not None
    assert len(niceness) >= 2  # compile and link
    assert set(niceness) == {plancache.BUILDER_NICE}
    assert cpu_exec._compile_pool is None


# ---------------------------------------------------------------------------
# The promotion check
# ---------------------------------------------------------------------------


class TestPromotion:
    def test_trials_then_publish(self, cache_dir):
        graph, inputs = _request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = _entry(graph)
        cold = entry.executor
        _build_hot(entry, inputs)
        hot = entry.hot
        assert entry.tier == "building" and hot.partition.signature() == (
            tuple(sorted(graph.kernel_names)),
        )
        assert hot.native_plan.sanitized and hot.plan.verified  # strict
        _book_slow_cold_trials(entry)
        before = PROCESS_CACHE.stats()
        env = run(graph, inputs, options=NATIVE)
        assert entry.tier == "hot" and entry.executor is hot.executor
        grown = _grown(before)
        assert grown["hot_published"] == 1 and grown["served_hot"] == 0
        served = run(graph, inputs, options=NATIVE)
        assert _grown(before)["served_hot"] == 1
        for name in graph.external_outputs:
            assert np.array_equal(env[name], served[name])
        assert cold is entry.native_plan

    def test_the_key_set_does_not_change(self, cache_dir):
        graph, inputs = _request("ShiTomasi")
        before = run(graph, inputs, options=NATIVE)
        assert set(before) == set(inputs) | set(graph.external_outputs)
        _promote(_entry(graph), inputs)
        after = run(graph, inputs, options=NATIVE)
        assert set(after) == set(before)

    def test_an_unequal_hot_plan_stays_out(self, cache_dir):
        graph, inputs = _request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = _entry(graph)
        _build_hot(entry, inputs)
        hot = entry.hot
        real = hot.executor.execute

        def off_by_one_ulp(*args, **kwargs):
            env = dict(real(*args, **kwargs))
            for name in graph.external_outputs:
                env[name] = np.nextafter(env[name], np.inf)
            return env

        hot.executor.execute = off_by_one_ulp
        before = PROCESS_CACHE.stats()
        for _ in range(PROMOTION_TRIALS):
            run(graph, inputs, options=NATIVE)
        assert entry.tier == "kept_cold" and entry.hot is None
        assert entry.executor is entry.native_plan
        assert _grown(before)["hot_unequal"] == 1
        _assert_forgotten(graph, hot.partition)

    def test_a_slower_hot_plan_stays_out(self, cache_dir):
        graph, inputs = _request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = _entry(graph)
        _build_hot(entry, inputs)
        entry._claimed = PROMOTION_TRIALS - 1
        entry._trials = [(True, 0.0, 1e9)] * (PROMOTION_TRIALS - 1)
        before = PROCESS_CACHE.stats()
        price = entry.price_ms
        hot = entry.hot
        run(graph, inputs, options=NATIVE)
        assert entry.executor is entry.native_plan
        assert _grown(before)["hot_slower"] == 1
        # Not final: back to cold, the hot plan kept, the price doubled.
        assert entry.tier == "cold" and entry.hot is hot
        assert entry.price_ms == 2 * price and entry.executed_ms == 0.0

    def test_a_failing_build_keeps_cold(self, cache_dir, monkeypatch):
        graph, inputs = _request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = _entry(graph)

        def broken(*args, **kwargs):
            raise RuntimeError("no")

        monkeypatch.setattr(plancache, "build_plan", broken)
        _build_hot(entry, inputs)
        assert entry.tier == "kept_cold" and entry.hot is None
        run(graph, inputs, options=NATIVE)

    def test_serving_promotes_and_reports(self, cache_dir):
        graph, inputs = _request("Harris")
        with ServingRuntime(engine="native", workers=1) as runtime:
            runtime.execute("Harris", inputs)
            (entry,) = runtime.cache._entries.values()
            _promote(entry, inputs)
            env = runtime.execute("Harris", inputs)
            cache = runtime.metrics_snapshot()["plan_cache"]
        assert set(env) == {"input", "corners"}
        assert cache["hot_published"] == 1 and cache["served_hot"] == 1


class _Plan:
    """A stand-in executor."""

    def execute(self, inputs, params=None, workers=None):
        return dict(inputs)


def _on_trial(price_ms=10.0):
    """A native entry whose hot plan is on trial, with stand-in plans:
    its trials are booked by hand, so no timing decides them."""
    graph, _ = _request("Sobel")
    cache = PlanCache()
    cold = _Plan()
    entry = plancache.CachedPlan(
        key=None, graph=graph, partition=None, plan=None, engine="native",
        executor=cold, fusion=FusionSettings(), price_ms=price_ms, cache=cache,
        tier="building",
    )
    entry.hot = plancache.CachedPlan(
        key=None, graph=graph, partition=maximal_partition(graph, GTX680),
        plan=None, executor=_Plan(),
    )

    def no_rebuild(_entry):
        raise AssertionError("a slower hot plan is tried again, not rebuilt")

    cache.build_hot = no_rebuild
    return entry, cache


def _settle_trials(entry, cold_ms, hot_ms):
    for _ in range(PROMOTION_TRIALS):
        assert entry._claim()
        entry._settle(entry.hot, (True, cold_ms, hot_ms))


class TestSlowerIsNotFinal:
    def test_slower_then_faster_publishes(self):
        entry, cache = _on_trial(price_ms=10.0)
        _settle_trials(entry, cold_ms=1.0, hot_ms=1.1)
        assert entry.tier == "cold" and cache.hot_slower == 1
        entry._account(20.0)
        assert entry.tier == "building"
        # The round decides on every trial so far: this one outweighs
        # the first.
        _settle_trials(entry, cold_ms=1.1, hot_ms=0.5)
        assert entry.tier == "hot" and cache.hot_published == 1
        assert entry.executor is entry.hot.executor

    def test_slower_twice_re_trials_after_twice_and_four_times_the_price(self):
        entry, cache = _on_trial(price_ms=10.0)
        for price in (20.0, 40.0):
            _settle_trials(entry, cold_ms=1.0, hot_ms=2.0)
            assert entry.tier == "cold" and entry.price_ms == price
            entry._account(price - 0.5)
            assert entry.tier == "cold"
            assert not entry._claim()
            entry._account(0.5)
            assert entry.tier == "building"
        assert cache.hot_slower == 2 and cache.hot_published == 0

    def test_a_round_as_slower_as_the_last_is_not_enough(self):
        entry, cache = _on_trial(price_ms=10.0)
        _settle_trials(entry, cold_ms=1.0, hot_ms=1.5)
        entry._account(20.0)
        _settle_trials(entry, cold_ms=1.5, hot_ms=1.0)
        assert entry.tier == "cold" and cache.hot_slower == 2

    def test_unequal_stays_final(self):
        entry, cache = _on_trial()
        for equal in [False] + [True] * (PROMOTION_TRIALS - 1):
            assert entry._claim()
            entry._settle(entry.hot, (equal, 2.0, 1.0))
        assert entry.tier == "kept_cold" and entry.hot is None
        assert cache.hot_unequal == 1
        entry._account(1e9)
        assert entry.tier == "kept_cold"


def test_a_hot_build_compiles_where_its_request_resolved(cache_dir, tmp_path, monkeypatch):
    """The build is queued in one cache directory and runs after
    ``REPRO_CC_CACHE`` names another: it compiles where its request
    resolved, and writes nothing in the other."""
    graph, inputs = _request("Harris")
    run(graph, inputs, options=NATIVE)
    entry = _entry(graph)
    go = threading.Event()
    held = plancache.hot_builder().submit(go.wait, 60)
    compiled = set(cache_dir.glob("kernel-*.o"))
    entry.price_ms = 0.0
    run(graph, inputs, options=NATIVE)  # pays: the build is queued
    later = tmp_path / "later"
    monkeypatch.setenv(CACHE_ENV, str(later))
    go.set()
    held.result()
    wait_for_hot_builds()
    assert entry.hot is not None
    assert set(cache_dir.glob("kernel-*.o")) > compiled
    assert not later.exists() or not list(later.glob("*.o"))


def _assert_forgotten(graph, partition):
    blocks = partition.signature()
    table, _lock = graph.__dict__["_plan_memo"]
    assert not [
        key for key in table if key[0] in ("tape", "native") and key[1] == blocks
    ]


# ---------------------------------------------------------------------------
# Bits: hot == cold == tape
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not openmp_available(), reason="needs -fopenmp")
@pytest.mark.parametrize("source", ["hand", "lazy"])
@pytest.mark.parametrize("app", APPS)
def test_hot_cold_and_tape_agree(cache_dir, app, source):
    """At 363x362 — above the team gate, a partial tile on each axis —
    on one and two threads."""
    width, height = 363, 362
    spec = APPLICATIONS[app]
    graph = (
        spec.build(width, height).build()
        if source == "hand"
        else lazy_trace(app, width, height).graph()
    )
    inputs = {
        name: array
        for name, array in request_inputs(spec, width, height, 3).items()
        if name in graph.pipeline_inputs()
    }
    params = DEFAULT_APP_PARAMS.get(app)
    tape = run(graph, inputs, params, options=ExecutionOptions(engine="tape"))
    run(graph, inputs, params, options=NATIVE)
    entry = _entry(graph)
    _build_hot(entry, inputs, params)
    plans = [entry.native_plan]
    if app in SAME:
        assert entry.tier == "same"
    else:
        assert entry.hot is not None
        plans.append(entry.hot.native_plan)
        assert len(entry.hot.partition.blocks) == 1
    for native in plans:
        tolerance = tolerance_for(native.plan.plans)
        for threads in (1, 2):
            env = native.execute(inputs, params, None, threads=threads)
            assert native.threads == threads
            for name in graph.external_outputs:
                assert_native_equiv(tape[name], env[name], tolerance, name)


# ---------------------------------------------------------------------------
# Concurrency: one complete plan per request
# ---------------------------------------------------------------------------


def _tag_calls(native_plan, tag, calls, hook=None):
    for native in native_plan.natives:
        fn = native._fn

        def call(*args, fn=fn):
            calls.append((threading.get_ident(), tag))
            if hook is not None:
                hook(tag)
            return fn(*args)

        native._fn = call


def test_a_swap_under_two_clients_serves_whole_plans(cache_dir):
    """Client A takes the deciding trial; client B, served cold, is
    inside the cold plan when A publishes and stays there until A has:
    B's request finishes on the cold plan, its next one is all hot."""
    graph, inputs = _request("Harris")
    run(graph, inputs, options=NATIVE)
    entry = _entry(graph)
    _build_hot(entry, inputs)
    _book_slow_cold_trials(entry)
    cold, hot = entry.native_plan, entry.hot.native_plan
    inside, published = threading.Barrier(2), threading.Barrier(2)
    a_claimed = threading.Event()
    calls, seen = [], {}

    def hook(tag):
        me = threading.current_thread().name
        if me == "b" and tag == "cold":
            seen["b"] = seen.get("b", 0) + 1
            if seen["b"] == 1:
                inside.wait(timeout=60)  # B is inside the cold plan ...
            elif seen["b"] == 2:
                published.wait(timeout=60)  # ... until A has published
        elif me == "a" and tag == "hot" and "a" not in seen:
            seen["a"] = True
            inside.wait(timeout=60)  # A's hot run waits for B to be inside

    for native_plan, tag in ((cold, "cold"), (hot, "hot")):
        for native in native_plan.natives:

            def call(*args, fn=native._fn, tag=tag):
                calls.append((threading.current_thread().name, tag))
                hook(tag)
                return fn(*args)

            native._fn = call
    real_claim = entry._claim

    def claim():
        taken = real_claim()
        if threading.current_thread().name == "a":
            a_claimed.set()
        return taken

    entry._claim = claim
    results = {}

    def client_a():
        results["a"] = entry.execute(inputs)
        results["tier after a"] = entry.tier
        published.wait(timeout=60)

    def client_b():
        a_claimed.wait(timeout=60)  # the last trial slot is A's
        results["b"] = entry.execute(inputs)
        results["b next"] = entry.execute(inputs)

    threads = [
        threading.Thread(target=client_a, name="a"),
        threading.Thread(target=client_b, name="b"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not any(thread.is_alive() for thread in threads)
    assert results["tier after a"] == "hot"
    assert [tag for name, tag in calls if name == "b"] == (
        ["cold"] * len(cold.natives) + ["hot"] * len(hot.natives)
    )
    for name in graph.external_outputs:
        assert np.array_equal(results["a"][name], results["b"][name])
        assert np.array_equal(results["b"][name], results["b next"][name])


# ---------------------------------------------------------------------------
# Retirement: quarantine, eviction, the resets, close
# ---------------------------------------------------------------------------


class _Gate:
    """Holds the builder at ``where`` ("build": before build_plan runs,
    "publish": after it returned) until the test has retired the entry."""

    def __init__(self, monkeypatch, where):
        self.arrived = threading.Barrier(2)
        self.go = threading.Barrier(2)
        self.built = []
        real = plancache.build_plan

        def gated(*args, **kwargs):
            if where == "build":
                self.arrived.wait(timeout=60)
                self.go.wait(timeout=60)
            entry = real(*args, **kwargs)
            self.built.append(entry)
            if where == "publish":
                self.arrived.wait(timeout=60)
                self.go.wait(timeout=60)
            return entry

        monkeypatch.setattr(plancache, "build_plan", gated)


def _quarantine(entry):
    assert PROCESS_CACHE.quarantine(entry.key)


def _evict(entry):
    """Evict by pushing the PROCESS_CACHE over its capacity."""
    for width in range(PROCESS_CACHE.capacity):
        graph, inputs = _request("Sobel", 32 + width, 16)
        run(graph, inputs, options=ExecutionOptions(engine="tape"))
    assert entry.key not in PROCESS_CACHE._entries


RETIRE = {
    "quarantine": _quarantine,
    "evict": _evict,
    "clear_plan_caches": lambda entry: clear_plan_caches(),
    "clear_native_caches": lambda entry: clear_native_caches(),
}


@pytest.mark.parametrize("where", ["build", "publish"])
@pytest.mark.parametrize("cause", sorted(RETIRE))
def test_a_retired_entry_gets_nothing_published(
    cache_dir, monkeypatch, where, cause
):
    graph, inputs = _request("Harris")
    run(graph, inputs, options=NATIVE)
    entry = _entry(graph)
    gate = _Gate(monkeypatch, where)
    entry.price_ms = 0.0
    before = PROCESS_CACHE.stats()
    entry.execute(inputs)  # enqueues the build
    gate.arrived.wait(timeout=60)
    RETIRE[cause](entry)
    gate.go.wait(timeout=60)
    wait_for_hot_builds()
    (hot,) = gate.built
    assert entry.hot is None and entry.tier == "building"
    assert _grown(before)["hot_published"] == 0
    _assert_forgotten(graph, hot.partition)
    # A quarantine also forgets the cold plans; the next request builds anew.
    if cause == "quarantine":
        _assert_forgotten(graph, entry.partition)
        run(graph, inputs, options=NATIVE)
        assert _entry(graph).native_plan is not entry.native_plan


def test_quarantine_forgets_a_published_hot_plan(cache_dir):
    graph, inputs = _request("Harris")
    run(graph, inputs, options=NATIVE)
    entry = _entry(graph)
    _promote(entry, inputs)
    hot = entry.hot
    assert PROCESS_CACHE.quarantine(entry.key)
    _assert_forgotten(graph, entry.partition)
    _assert_forgotten(graph, hot.partition)
    run(graph, inputs, options=NATIVE)
    fresh = _entry(graph)
    assert fresh.tier == "cold" and fresh.executor is fresh.native_plan


def test_a_queued_build_of_a_retired_entry_never_runs(cache_dir, monkeypatch):
    first, first_inputs = _request("Harris")
    second, second_inputs = _request("ShiTomasi")
    run(first, first_inputs, options=NATIVE)
    run(second, second_inputs, options=NATIVE)
    gate = _Gate(monkeypatch, "build")
    _entry(first).price_ms = _entry(second).price_ms = 0.0
    _entry(first).execute(first_inputs)
    gate.arrived.wait(timeout=60)  # the builder is busy with Harris
    queued = _entry(second)
    queued.execute(second_inputs)  # queued behind it
    assert PROCESS_CACHE.quarantine(queued.key)
    gate.go.wait(timeout=60)
    wait_for_hot_builds()
    assert len(gate.built) == 1 and queued.hot is None


def test_close_waits_for_the_build_and_leaves_no_scratch(
    cache_dir, monkeypatch
):
    graph, inputs = _request("Harris")
    runtime = ServingRuntime(engine="native", workers=1)
    runtime.execute("Harris", inputs)
    (entry,) = runtime.cache._entries.values()
    gate = _Gate(monkeypatch, "build")
    retired = threading.Event()
    real_retire = entry.retire

    def retire():
        real_retire()
        retired.set()

    entry.retire = retire
    entry.price_ms = 0.0
    runtime.execute("Harris", inputs)
    gate.arrived.wait(timeout=60)  # the build is in flight
    closing = threading.Thread(target=runtime.close)
    closing.start()
    assert retired.wait(timeout=60)
    gate.go.wait(timeout=60)
    closing.join(timeout=120)
    assert not closing.is_alive()
    assert not runtime.cache._hot_jobs
    assert gate.built and entry.hot is None
    assert not list(cache_dir.glob("*.partial.*"))
    assert runtime.metrics_snapshot()["plan_cache"]["hot_published"] == 0


def test_close_drops_what_is_queued(cache_dir, monkeypatch):
    """A runtime closing behind another cache's build neither waits for
    that build nor lets its own queued one run."""
    graph, inputs = _request("Harris")
    run(graph, inputs, options=NATIVE)
    gate = _Gate(monkeypatch, "build")
    _entry(graph).price_ms = 0.0
    _entry(graph).execute(inputs)
    gate.arrived.wait(timeout=60)  # PROCESS_CACHE's build is in flight
    with ServingRuntime(engine="native", workers=1) as runtime:
        runtime.execute("ShiTomasi", _request("ShiTomasi")[1])
        (entry,) = runtime.cache._entries.values()
        entry.price_ms = 0.0
        runtime.execute("ShiTomasi", _request("ShiTomasi")[1])
    # close() returned while the other build still waits at the gate
    gate.go.wait(timeout=60)
    wait_for_hot_builds()
    assert len(gate.built) == 1 and entry.hot is None


def test_the_stats_name_every_counter():
    stats = PlanCache().stats()
    for name in TIER_COUNTERS:
        assert stats[name] == 0


def test_a_plan_cache_entry_built_without_a_cache_never_re_fuses(cache_dir):
    graph, inputs = _request("Harris")
    fusion = FusionSettings()
    key = plan_key(graph.structural_signature(), inputs, "native", fusion)
    entry = build_plan(graph, key=key, fusion=fusion, engine="native")
    entry.price_ms = 0.0
    entry.execute(inputs)
    assert entry.tier == "cold"
