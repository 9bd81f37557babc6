"""Hot plans re-fuse: a native entry that has paid its compile price
builds the maximal legal partition as a trial candidate, published once
bit-identical and faster in a paired test on live requests; the plan it
displaced is then on trial in turn.

These tests drive each step by hand where timing would decide it:
``entry.price_ms = 0.0`` makes the next execute pay,
``wait_for_builds()`` waits for the build, and trials read an injected
clock (``plancache.clock``) that the plans advance by set amounts.
"""

import json
import math
import os
import random
import subprocess
import sys
import threading

import numpy as np
import pytest

from helpers import app_request, chain_pipeline, process_entry, wait_for_builds

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
from repro.envknobs import validate_override
from repro.fusion.distribution import maximal_partition
from repro.graph.dag import KernelGraph
from repro.lazy.apps import lazy_trace
from repro.model.hardware import GTX680
from repro.serve import ServingRuntime
from repro.serve import plancache
from repro.serve.plancache import (
    PROCESS_CACHE,
    PROMOTION_TRIALS,
    CachedPlan,
    Candidate,
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
COUNTERS = ("published", "unequal", "slower", "failed", "served_hot")
APPS = ("Harris", "ShiTomasi", "Night", "Enhance", "Sobel", "Unsharp")
#: The apps whose maximal partition is the model's own.
SAME = {"Enhance", "Sobel", "Unsharp"}


class _Clock:
    """The injected clock: executes advance it, nothing sleeps."""

    now = 0.0

    def __call__(self):
        return self.now

    def charge(self, executor, ms):
        """Each execute of ``executor`` takes ``ms`` on this clock."""
        real = executor.execute

        def execute(*args, **kwargs):
            self.now += ms / 1e3
            return real(*args, **kwargs)

        executor.execute = execute


@pytest.fixture
def clock(monkeypatch):
    monkeypatch.setattr(plancache, "clock", _Clock())
    return plancache.clock


def _grown(before):
    """How much each promotion counter grew since ``before`` (a
    ``stats()`` snapshot: the cache outlives tests)."""
    after = PROCESS_CACHE.stats()
    return {name: after[name] - before[name] for name in COUNTERS}


def _build_hot(entry, inputs, params=None):
    """Let the next execute pay the price, then wait for the build; the
    next round costs the real price again."""
    price, entry.price_ms = entry.price_ms, 0.0
    entry.execute(inputs, params)
    wait_for_builds()
    if entry.price_ms is not None:
        entry.price_ms = price


def _promote(entry, inputs, clock):
    """Build the maximal plan and let it win every trial of a round."""
    _build_hot(entry, inputs)
    maximal = entry.candidate.plan.executor
    clock.charge(maximal, 1.0)
    clock.charge(entry.native_plan, 2.0)
    for _ in range(PROMOTION_TRIALS + 1):  # the first runs strict's differential
        entry.execute(inputs)
    assert entry.executor is maximal


class TestMaximalPartition:
    @pytest.mark.parametrize("app", APPS)
    def test_the_apps_fuse_into_one_block(self, app):
        graph, _, _ = app_request(app)
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


class TestPrice:
    def test_the_price_is_the_compile_that_ran_cc(self, cache_dir):
        graph, inputs, _ = app_request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = process_entry(graph)
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
        graph, inputs, _ = app_request("Harris")
        with ServingRuntime(
            engine="native", workers=1, cache_capacity=1
        ) as runtime:
            cache = runtime.cache
            runtime.execute_graph(graph, inputs)
            (first,) = cache._entries.values()
            paid = first.price_ms
            other, other_inputs, _ = app_request("Sobel")
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
        graph, inputs, _ = app_request("Harris")
        run(graph, inputs, options=NATIVE)
        paid = process_entry(graph).price_ms
        clear_native_caches()
        clear_plan_caches()
        graph, _, _ = app_request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = process_entry(graph)
        assert "library" in entry.restored
        bind_ms = entry.timings_ms["native_compile_ms"]
        assert entry.price_ms == paid > bind_ms
        while entry.executed_ms <= bind_ms or entry.executed_ms < paid / 2:
            run(graph, inputs, options=NATIVE)
            assert entry.candidate is None
        assert entry.executed_ms > bind_ms

    def test_a_library_from_the_cache_without_a_record_never_re_fuses(
        self, cache_dir
    ):
        graph, inputs, _ = app_request("Sobel")
        run(graph, inputs, options=NATIVE)
        clear_native_caches()
        for record in cache_dir.glob("plan-*.json"):
            record.unlink()
        graph, _, _ = app_request("Sobel")
        run(graph, inputs, options=NATIVE)
        entry = process_entry(graph)
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
        graph, inputs, _ = app_request("Harris")
        run(graph, inputs, options=options)
        assert process_entry(graph, options.engine).price_ms is None

    def test_an_explicit_partition_keeps_every_image(self, cache_dir):
        graph, inputs, _ = app_request("Harris")
        env = run(graph, inputs, options=ExecutionOptions(
            engine="native", fuse=False
        ))
        assert set(env) == set(inputs) | {
            graph.kernel(name).output.name for name in graph.kernel_names
        }

    @pytest.mark.parametrize("app", sorted(SAME))
    def test_same_partition_builds_nothing(self, cache_dir, monkeypatch, app):
        graph, inputs, params = app_request(app)
        run(graph, inputs, params, options=NATIVE)
        entry = process_entry(graph)
        built = []
        real = plancache.build_plan
        monkeypatch.setattr(
            plancache,
            "build_plan",
            lambda *a, **k: built.append(1) or real(*a, **k),
        )
        _build_hot(entry, inputs, params)
        assert entry.candidate is entry.price_ms is None and not built


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="per-thread priorities"
)
def test_a_hot_build_compiles_at_low_priority(cache_dir, monkeypatch):
    """The hot build runs every ``cc`` from the niced builder thread,
    which the compilers inherit; it starts no compile-pool thread, so
    none is left at that priority for the requests after."""
    graph, inputs, _ = app_request("Harris")
    run(graph, inputs, options=NATIVE)
    monkeypatch.setattr(cpu_exec, "_compile_pool", None)
    niceness = []
    real_run = subprocess.run

    def run_cc(command, *args, **kwargs):
        niceness.append(os.getpriority(os.PRIO_PROCESS, threading.get_native_id()))
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", run_cc)
    _build_hot(process_entry(graph), inputs)
    assert process_entry(graph).candidate.plan is not None
    assert len(niceness) >= 2  # compile and link
    assert set(niceness) == {plancache.BUILDER_NICE}
    assert cpu_exec._compile_pool is None


class TestPromotion:
    def test_trials_then_publish(self, cache_dir, clock):
        graph, inputs, _ = app_request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = process_entry(graph)
        cold = entry.executor
        before = PROCESS_CACHE.stats()
        _promote(entry, inputs, clock)
        hot = entry.candidate.plan
        assert entry.executor is hot.executor
        assert hot.partition.signature() == (tuple(sorted(graph.kernel_names)),)
        assert hot.native_plan.sanitized and hot.plan.verified  # strict
        assert _grown(before)["published"] == 1
        assert _grown(before)["served_hot"] == 0
        env = run(graph, inputs, options=NATIVE)
        assert _grown(before)["served_hot"] == 1
        expected = cold.execute(inputs)
        for name in graph.external_outputs:
            assert np.array_equal(env[name], expected[name])
        assert cold is entry.native_plan

    def test_the_key_set_does_not_change(self, cache_dir, clock):
        graph, inputs, _ = app_request("ShiTomasi")
        before = run(graph, inputs, options=NATIVE)
        assert set(before) == set(inputs) | set(graph.external_outputs)
        _promote(process_entry(graph), inputs, clock)
        after = run(graph, inputs, options=NATIVE)
        assert set(after) == set(before)

    def test_an_unequal_hot_plan_stays_out(self, cache_dir):
        graph, inputs, _ = app_request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = process_entry(graph)
        _build_hot(entry, inputs)
        hot = entry.candidate.plan
        real = hot.executor.execute

        def off_by_one_ulp(*args, **kwargs):
            env = dict(real(*args, **kwargs))
            for name in graph.external_outputs:
                env[name] = np.nextafter(env[name], np.inf)
            return env

        hot.executor.execute = off_by_one_ulp
        before = PROCESS_CACHE.stats()
        run(graph, inputs, options=NATIVE)
        assert entry.candidate is entry.price_ms is None  # final
        assert entry.executor is entry.native_plan
        assert _grown(before)["unequal"] == 1
        _assert_forgotten(graph, hot.partition)

    def test_a_slower_hot_plan_stays_out(self, cache_dir, clock):
        graph, inputs, _ = app_request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = process_entry(graph)
        _build_hot(entry, inputs)
        candidate = entry.candidate
        clock.charge(candidate.plan.executor, 2.0)
        clock.charge(entry.native_plan, 1.0)
        before = PROCESS_CACHE.stats()
        price = entry.price_ms
        with validate_override("standard"):  # no differential: every trial is timed
            for _ in range(PROMOTION_TRIALS):
                run(graph, inputs, options=NATIVE)
        assert entry.executor is entry.native_plan
        assert _grown(before)["slower"] == 1
        # Not final: the candidate kept, the price doubled.
        assert entry.candidate is candidate
        assert candidate.walk == -PROMOTION_TRIALS
        assert entry.price_ms == 2 * price and entry.executed_ms == 0.0

    def test_a_failing_build_keeps_cold(self, cache_dir, monkeypatch):
        graph, inputs, _ = app_request("Harris")
        run(graph, inputs, options=NATIVE)
        entry = process_entry(graph)

        def broken(*args, **kwargs):
            raise RuntimeError("no")

        monkeypatch.setattr(plancache, "build_plan", broken)
        before = PROCESS_CACHE.stats()
        _build_hot(entry, inputs)
        assert entry.candidate is entry.price_ms is None
        assert _grown(before)["failed"] == 1
        run(graph, inputs, options=NATIVE)

    def test_serving_promotes_and_reports(self, cache_dir, clock):
        graph, inputs, _ = app_request("Harris")
        with ServingRuntime(engine="native", workers=1) as runtime:
            runtime.execute("Harris", inputs)
            (entry,) = runtime.cache._entries.values()
            _promote(entry, inputs, clock)
            env = runtime.execute("Harris", inputs)
            cache = runtime.metrics_snapshot()["plan_cache"]
        assert set(env) == {"input", "corners"}
        assert cache["published"] == 1 and cache["served_hot"] == 1


class _Stand:
    """A stand-in executor: an execute takes ``ms`` times a lognormal
    draw (σ 0.13) on the injected clock, and returns Sobel's output."""

    def __init__(self, clock, ms, rng):
        self.clock, self.ms, self.rng, self.calls = clock, ms, rng, 0
        self.out = {"magnitude": 0}

    def execute(self, inputs, params=None, workers=None):
        self.calls += 1
        self.clock.now += self.ms * math.exp(self.rng.gauss(0.0, 0.13)) / 1e3
        return self.out


def _on_trial(clock, hot_ms=1.0, rng=None, graph=None):
    """A native entry on stand-in plans (the cold one takes 1 ms) whose
    maximal plan is built and on trial."""
    graph = graph or app_request("Sobel")[0]
    rng = rng or random.Random(0)
    cold, hot = _Stand(clock, 1.0, rng), _Stand(clock, hot_ms, rng)
    entry = CachedPlan(None, graph, None, None, native_plan=cold, executor=cold,
                       engine="native", price_ms=10.0, cache=PlanCache())
    maximal = CachedPlan(None, graph, maximal_partition(graph, GTX680), None,
                         executor=hot)
    entry.candidate = Candidate("trial", plan=maximal)
    return entry


def _round(entry):
    """Pay the price (a closed round opens), then serve till it is over."""
    entry._account(entry.price_ms)
    candidate = entry.candidate
    while entry.candidate is candidate and candidate.booked < PROMOTION_TRIALS:
        entry.execute({})


def simulate(clock, on_trial, rounds, entries, seed=0, published=False):
    """The share of ``entries`` seeded stand-in entries whose plan on
    trial, ``on_trial`` times as slow as the one serving, takes over
    within ``rounds`` rounds — the maximal plan as built, or with
    ``published`` the model's plan it displaced, after a publish."""
    rng, graph, taken = random.Random(seed), app_request("Sobel")[0], 0
    for _ in range(entries):
        entry = _on_trial(clock, 0.5, rng, graph)
        hot = entry.candidate.plan.executor
        while published and entry.executor is not hot:
            _round(entry)
        hot.ms = 1.0 / on_trial if published else on_trial
        for _ in range(rounds):
            _round(entry)
            if (entry.executor is hot) != published:
                taken += 1
                break
    return taken / entries


class TestSlowerIsNotFinal:
    def test_slower_then_faster_publishes(self, clock):
        entry = _on_trial(clock, 2.0)
        _round(entry)
        assert entry.candidate.walk == -PROMOTION_TRIALS
        entry.candidate.plan.executor.ms = 0.5
        for _ in range(2):  # the walk is kept: -8 + 8, then + 8
            assert entry.executor is entry.native_plan
            _round(entry)
        assert entry.executor is entry.candidate.plan.executor
        assert entry.cache.stats()["published"] == 1

    def test_slower_twice_re_trials_after_twice_and_four_times_the_price(self, clock):
        entry = _on_trial(clock, 2.0)
        _round(entry)
        for price in (20.0, 40.0):
            assert entry.price_ms == price and entry.executed_ms == 0.0
            entry._account(price - 0.5)
            assert entry._claim(entry.candidate) is None
            _round(entry)
        assert entry.cache.stats()["slower"] == 3 and entry.executor is entry.native_plan
        # A round ends once the walk is at its floor: one loss each.
        assert entry.candidate.plan.executor.calls == PROMOTION_TRIALS + 2

    def test_a_round_as_slower_as_the_last_is_not_enough(self, clock):
        entry = _on_trial(clock, 2.0)
        _round(entry)
        entry.candidate.plan.executor.ms = 0.5
        _round(entry)
        assert entry.candidate.walk == 0 and entry.executor is entry.native_plan
        assert entry.cache.stats()["slower"] == 2

    def test_unequal_stays_final(self, clock):
        entry = _on_trial(clock, 0.5)
        entry.candidate.plan.executor.out = {"magnitude": 1}
        entry.native_plan.out = {"magnitude": 2}
        entry.execute({})
        assert entry.candidate is entry.price_ms is None
        assert entry.cache.stats()["unequal"] == 1
        entry._account(1e9)
        assert entry.candidate is None


def test_the_promotion_rule_in_simulation(clock):
    """Seeded stand-in entries, lognormal noise σ 0.13 per execute
    (EXPERIMENTS.md runs the same at 10 000 entries)."""
    assert simulate(clock, 1.05, 16, 200) <= 0.05
    assert simulate(clock, 1 / 1.05, 16, 200) >= 0.90
    assert simulate(clock, 0.5, 1, 200) >= 0.99
    assert simulate(clock, 1 / 1.2, 4, 200, published=True) >= 0.90
    assert simulate(clock, 2.0, 16, 200, published=True) <= 0.01


def test_who_runs_first_alternates(clock):
    entry = _on_trial(clock)
    order = []
    for plan, name in ((entry.native_plan, "serving"), (entry.candidate.plan.executor, "trial")):
        plan.execute = lambda *args, name=name, real=plan.execute: (
            order.append(name) or real(*args)
        )
    for _ in range(4):
        entry.execute({})
    assert order == ["trial", "serving", "serving", "trial"] * 2


def test_a_published_plan_that_turns_slower_is_demoted(clock):
    entry = _on_trial(clock, 0.5)
    cold, hot = entry.native_plan, entry.candidate.plan.executor
    _round(entry)
    assert entry.executor is hot and entry.price_ms == 20.0
    assert entry._claim(entry.candidate) is None  # after the price is paid
    hot.ms = 2.0
    _round(entry)
    assert entry.executor is cold and entry.candidate.plan.executor is hot
    assert entry.cache.stats()["published"] == 2


def test_a_hot_build_compiles_where_its_request_resolved(cache_dir, tmp_path, monkeypatch):
    """The build is queued in one cache directory and runs after
    ``REPRO_CC_CACHE`` names another: it compiles where its request
    resolved, and writes nothing in the other."""
    graph, inputs, _ = app_request("Harris")
    run(graph, inputs, options=NATIVE)
    entry = process_entry(graph)
    go = threading.Event()
    held = plancache.builder("trial").submit(go.wait, 60)
    compiled = set(cache_dir.glob("kernel-*.o"))
    entry.price_ms = 0.0
    run(graph, inputs, options=NATIVE)  # pays: the build is queued
    later = tmp_path / "later"
    monkeypatch.setenv(CACHE_ENV, str(later))
    go.set()
    held.result()
    wait_for_builds()
    assert entry.candidate.plan is not None
    assert set(cache_dir.glob("kernel-*.o")) > compiled
    assert not later.exists() or not list(later.glob("*.o"))


def _assert_forgotten(graph, partition):
    blocks = partition.signature()
    table, _lock = graph.__dict__["_plan_memo"]
    assert not [
        key for key in table if key[0] in ("tape", "native") and key[1] == blocks
    ]


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
    entry = process_entry(graph)
    _build_hot(entry, inputs, params)
    plans = [entry.native_plan]
    if app in SAME:
        assert entry.candidate is None
    else:
        plans.append(entry.candidate.plan.native_plan)
        assert len(entry.candidate.plan.partition.blocks) == 1
    for native in plans:
        tolerance = tolerance_for(native.plan.plans)
        for threads in (1, 2):
            env = native.execute(inputs, params, None, threads=threads)
            assert native.threads == threads
            for name in graph.external_outputs:
                assert_native_equiv(tape[name], env[name], tolerance, name)


def test_a_swap_under_two_clients_serves_whole_plans(cache_dir, clock):
    """Client A takes the deciding trial; client B, served cold, is
    inside the cold plan when A publishes and stays there until A has:
    B's request finishes on the cold plan, its next one is all hot."""
    graph, inputs, _ = app_request("Harris")
    run(graph, inputs, options=NATIVE)
    entry = process_entry(graph)
    _build_hot(entry, inputs)
    candidate = entry.candidate
    cold, hot = entry.native_plan, candidate.plan.native_plan
    hot.execute(inputs)  # strict's differential, untimed
    clock.charge(hot, -1e3)  # faster, whatever B's execute adds meanwhile
    clock.charge(cold, 1.0)
    candidate.walk = PROMOTION_TRIALS - 1  # the next win publishes
    candidate.claimed = candidate.booked = PROMOTION_TRIALS - 1
    inside, published = threading.Barrier(2), threading.Barrier(2)
    a_claimed = threading.Event()
    calls, seen = [], {}

    def hook(tag):
        me = threading.current_thread().name
        if me == "a":
            a_claimed.set()  # A runs its trial's plans, the cold one first
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
    results = {}

    def client_a():
        results["a"] = entry.execute(inputs)
        results["hot after a"] = entry.executor is hot
        published.wait(timeout=60)

    def client_b():
        a_claimed.wait(timeout=60)  # the last trial slot is A's
        results["b"] = entry.execute(inputs)
        results["b next"] = entry.execute(inputs)

    threads = [threading.Thread(target=client_a, name="a"),
               threading.Thread(target=client_b, name="b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not any(thread.is_alive() for thread in threads)
    assert results["hot after a"]
    assert [tag for name, tag in calls if name == "b"] == (
        ["cold"] * len(cold.natives) + ["hot"] * len(hot.natives)
    )
    for name in graph.external_outputs:
        assert np.array_equal(results["a"][name], results["b"][name])
        assert np.array_equal(results["b"][name], results["b next"][name])


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
        graph, inputs, _ = app_request("Sobel", 32 + width, 16)
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
    graph, inputs, _ = app_request("Harris")
    run(graph, inputs, options=NATIVE)
    entry = process_entry(graph)
    gate = _Gate(monkeypatch, where)
    entry.price_ms = 0.0
    before = PROCESS_CACHE.stats()
    entry.execute(inputs)  # enqueues the build
    gate.arrived.wait(timeout=60)
    RETIRE[cause](entry)
    gate.go.wait(timeout=60)
    wait_for_builds()
    (hot,) = gate.built
    assert entry.candidate.plan is None
    assert _grown(before)["published"] == 0
    _assert_forgotten(graph, hot.partition)
    # A quarantine also forgets the cold plans; the next request builds anew.
    if cause == "quarantine":
        _assert_forgotten(graph, entry.partition)
        run(graph, inputs, options=NATIVE)
        assert process_entry(graph).native_plan is not entry.native_plan


def test_quarantine_forgets_a_published_hot_plan(cache_dir, clock):
    graph, inputs, _ = app_request("Harris")
    run(graph, inputs, options=NATIVE)
    entry = process_entry(graph)
    _promote(entry, inputs, clock)
    hot = entry.candidate.plan
    assert PROCESS_CACHE.quarantine(entry.key)
    _assert_forgotten(graph, entry.partition)
    _assert_forgotten(graph, hot.partition)
    run(graph, inputs, options=NATIVE)
    fresh = process_entry(graph)
    assert fresh.candidate is None and fresh.executor is fresh.native_plan


def test_a_queued_build_of_a_retired_entry_never_runs(cache_dir, monkeypatch):
    first, first_inputs, _ = app_request("Harris")
    second, second_inputs, _ = app_request("ShiTomasi")
    run(first, first_inputs, options=NATIVE)
    run(second, second_inputs, options=NATIVE)
    gate = _Gate(monkeypatch, "build")
    process_entry(first).price_ms = process_entry(second).price_ms = 0.0
    process_entry(first).execute(first_inputs)
    gate.arrived.wait(timeout=60)  # the builder is busy with Harris
    queued = process_entry(second)
    queued.execute(second_inputs)  # queued behind it
    assert PROCESS_CACHE.quarantine(queued.key)
    gate.go.wait(timeout=60)
    wait_for_builds()
    assert len(gate.built) == 1 and queued.candidate.plan is None


def test_close_waits_for_the_build_and_leaves_no_scratch(
    cache_dir, monkeypatch
):
    graph, inputs, _ = app_request("Harris")
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
    assert not runtime.cache._jobs
    assert gate.built and entry.candidate.plan is None
    assert not list(cache_dir.glob("*.partial.*"))
    assert runtime.metrics_snapshot()["plan_cache"]["published"] == 0


def test_close_drops_what_is_queued(cache_dir, monkeypatch):
    """A runtime closing behind another cache's build neither waits for
    that build nor lets its own queued one run."""
    graph, inputs, _ = app_request("Harris")
    run(graph, inputs, options=NATIVE)
    gate = _Gate(monkeypatch, "build")
    process_entry(graph).price_ms = 0.0
    process_entry(graph).execute(inputs)
    gate.arrived.wait(timeout=60)  # PROCESS_CACHE's build is in flight
    with ServingRuntime(engine="native", workers=1) as runtime:
        runtime.execute("ShiTomasi", app_request("ShiTomasi")[1])
        (entry,) = runtime.cache._entries.values()
        entry.price_ms = 0.0
        runtime.execute("ShiTomasi", app_request("ShiTomasi")[1])
    # close() returned while the other build still waits at the gate
    gate.go.wait(timeout=60)
    wait_for_builds()
    assert len(gate.built) == 1 and entry.candidate.plan is None


def test_the_stats_name_every_counter():
    stats = PlanCache().stats()
    for name in (*COUNTERS, "tape_first"):
        assert stats[name] == 0


def test_a_plan_cache_entry_built_without_a_cache_never_re_fuses(cache_dir):
    graph, inputs, _ = app_request("Harris")
    fusion = FusionSettings()
    key = plan_key(graph.structural_signature(), inputs, "native", fusion)
    entry = build_plan(graph, key=key, fusion=fusion, engine="native")
    entry.price_ms = 0.0
    entry.execute(inputs)
    assert entry.candidate is None
