"""The native thread budget: one function decides the OpenMP team.

With ``REPRO_NATIVE_THREADS`` unset a compiled call takes the caller's
share of the cores — all of them under ``api.run`` (whatever its
block-level ``workers``: native blocks run one at a time), ``cores /
workers`` under a serving runtime, ``cores / (runtimes x workers)``
for nested :func:`sharing_cores` scopes — and an explicit count wins
everywhere a team can run.  A plane below ``2 * MIN_PIXELS_PER_THREAD``
pixels, where the automatic share is always one, lowers its tile loop
without a parallel region and runs serially under any count.  Tiles are
independent and nothing is reduced, so every count computes the same
bits.
"""

import numpy as np
import pytest

from helpers import row_band_everywhere

from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS
from repro.backend import native_bind, native_exec
from repro.backend.cpu_exec import openmp_available
from repro.backend.native_bind import MIN_PIXELS_PER_THREAD
from repro.backend.native_exec import (
    NATIVE_THREADS_ENV,
    available_cores,
    lower_partition_source,
    native_available,
    native_plan_for_partition,
    resolve_native_threads,
    sharing_cores,
)
from repro.backend.native_lower import parallel_plane
from repro.backend.plan import plan_for_partition
from repro.eval.runner import partition_for
from repro.model.hardware import GTX680
from repro.serve import ServingRuntime
from repro.serve.plancache import PROCESS_CACHE
from repro.serve.registry import DEFAULT_APP_PARAMS

# A cold direct native request compiles before it answers: this suite's
# subject is native output, which a tiered first answer would not be.
pytestmark = pytest.mark.usefixtures("blocking_native")

needs_cc = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)
needs_openmp = pytest.mark.skipif(
    not (native_available() and openmp_available()),
    reason="requires a C compiler with -fopenmp",
)

NATIVE = ExecutionOptions(engine="native")

#: Large enough that the automatic share is not clipped to fewer than
#: four threads by the small-plane rule.
BIG = 512


@pytest.fixture
def four_cores(monkeypatch):
    monkeypatch.delenv(NATIVE_THREADS_ENV, raising=False)
    monkeypatch.setattr(native_bind, "available_cores", lambda: 4)


def _image(app, height, width, seed=0):
    shape = (height, width)
    if APPLICATIONS[app].channels > 1:
        shape += (APPLICATIONS[app].channels,)
    return np.random.default_rng(seed).uniform(0.0, 255.0, shape)


class TestShare:
    def test_unset_is_the_share_of_the_cores(self, four_cores):
        assert resolve_native_threads() == 4
        assert resolve_native_threads(side_by_side=2) == 2
        assert resolve_native_threads(side_by_side=3) == 1
        assert resolve_native_threads(side_by_side=16) == 1
        with sharing_cores(2):
            assert resolve_native_threads() == 2
            with sharing_cores(2):  # nested scopes compound
                assert resolve_native_threads() == 1
            # An explicit side-by-side count is taken as given.
            assert resolve_native_threads(side_by_side=1) == 4
        assert resolve_native_threads() == 4

    def test_small_planes_stay_serial(self, four_cores):
        floor = MIN_PIXELS_PER_THREAD
        assert resolve_native_threads(pixels=96 * 64) == 1
        assert resolve_native_threads(pixels=2 * floor - 1) == 1
        assert resolve_native_threads(pixels=2 * floor) == 2
        assert resolve_native_threads(pixels=1024 * 1024) == 4
        # ...but only the automatic share: an explicit count is exact.
        assert resolve_native_threads(3, pixels=1) == 3

    def test_explicit_and_environment_win(self, four_cores, monkeypatch):
        with sharing_cores(4):
            assert resolve_native_threads(3) == 3
            monkeypatch.setenv(NATIVE_THREADS_ENV, "3")
            assert resolve_native_threads() == 3
            assert resolve_native_threads(side_by_side=8, pixels=1) == 3
            assert resolve_native_threads(2) == 2  # the argument beats it

    def test_affinity_not_cpu_count(self, monkeypatch):
        import os

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cores() == 3


@needs_cc
@pytest.mark.parametrize("lowering", ["classic", "tile2d"])
@pytest.mark.parametrize("app", sorted(APPLICATIONS))
def test_every_thread_count_computes_the_same_bits(app, lowering, monkeypatch):
    """Six apps x {1, 2, 3, unset} threads x {classic, tile2d} at 1024^2,
    363x362, 97x61 and 1xN: bit-identical to one thread.  ``classic``
    lowers every block as the row band over its fused tape, ``tile2d``
    lets the fused chains materialize their stages.  363x362 is just
    above the smallest plane with a parallel tile loop and leaves a
    partial tile on both axes, so its seams run under a real team; the
    two small planes run serially under every count."""
    monkeypatch.delenv(NATIVE_THREADS_ENV, raising=False)
    params = DEFAULT_APP_PARAMS.get(app)
    for height, width in ((61, 97), (362, 363), (1024, 1024), (1, 300)):
        graph = APPLICATIONS[app].build(width, height).build()
        partition = partition_for(graph, GTX680, "optimized")
        with row_band_everywhere(lowering == "classic"):
            plan = native_plan_for_partition(graph, partition)
        assert plan.fallback_block_count == 0
        inputs = {"input": _image(app, height, width)}
        serial = plan.execute(inputs, params, threads=1)
        assert plan.threads == 1
        team = openmp_available() and parallel_plane(height * width)
        for threads in (2, 3, None):
            env = plan.execute(inputs, params, threads=threads)
            if threads == 2:
                assert plan.threads == (2 if team else 1), (height, width)
            for name, expected in serial.items():
                assert np.array_equal(env[name], expected), (name, threads)


class _Spy:
    """Stands in for a bound C function and records its last argument
    (``threads``) before calling it."""

    def __init__(self, fn, seen):
        self.fn, self.seen = fn, seen

    def __call__(self, *args):
        self.seen.append(args[-1])
        return self.fn(*args)


def _spy_on(native_plan):
    seen = []
    for _plan, native in native_plan.blocks:
        native._fn = _Spy(native._fn, seen)
    return seen


@needs_openmp
class TestWhoGetsTheCores:
    def _serve(self, runtime, inputs):
        """One warm-up request, then one with every ``_fn`` spied on."""
        runtime.execute("Harris", inputs)
        (entry,) = runtime.cache._entries.values()
        seen = _spy_on(entry.native_plan)
        runtime.execute("Harris", inputs)
        return seen

    def test_two_scheduler_workers_on_two_cores_run_serial(self, monkeypatch):
        """``serve_mixed`` executes exactly what it executed before the
        budget: cores <= workers means threads == 1 in every call."""
        monkeypatch.delenv(NATIVE_THREADS_ENV, raising=False)
        monkeypatch.setattr(native_bind, "available_cores", lambda: 2)
        inputs = {"input": _image("Harris", BIG, BIG)}
        with ServingRuntime(engine="native", workers=2) as runtime:
            seen = self._serve(runtime, inputs)
            snapshot = runtime.metrics_snapshot()
        assert seen and set(seen) == {1}
        assert snapshot["scheduler"]["native_threads"] == 1

    def test_one_worker_takes_them_all(self, four_cores):
        inputs = {"input": _image("Harris", BIG, BIG)}
        with ServingRuntime(engine="native", workers=1) as runtime:
            seen = self._serve(runtime, inputs)
            assert runtime.metrics_snapshot()["scheduler"][
                "native_threads"
            ] == 4
        assert set(seen) == {4}

    def test_a_plane_too_small_for_a_team_reports_one(self, four_cores):
        """The snapshot reports the team that ran, not the share a large
        plane would get."""
        inputs = {"input": _image("Harris", 64, 96)}
        with ServingRuntime(engine="native", workers=1) as runtime:
            seen = self._serve(runtime, inputs)
            snapshot = runtime.metrics_snapshot()
        assert set(seen) == {1}
        assert snapshot["scheduler"]["native_threads"] == 1

    def test_stage_budgets_keep_the_share(self, monkeypatch):
        """A budgeted execute stage runs on a side thread; the share
        must reach it."""
        from repro.serve.resilience import ResiliencePolicy, StageTimeouts

        monkeypatch.delenv(NATIVE_THREADS_ENV, raising=False)
        monkeypatch.setattr(native_bind, "available_cores", lambda: 2)
        policy = ResiliencePolicy(timeouts=StageTimeouts(execute_s=60.0))
        inputs = {"input": _image("Harris", BIG, BIG)}
        with ServingRuntime(
            engine="native", workers=2, resilience=policy
        ) as runtime:
            seen = self._serve(runtime, inputs)
        assert seen and set(seen) == {1}

    def test_api_run_takes_every_core(self, four_cores):
        inputs = {"input": _image("Harris", BIG, BIG)}
        run("Harris", inputs, options=NATIVE)
        (entry,) = PROCESS_CACHE._entries.values()
        seen = _spy_on(entry.native_plan)
        run("Harris", inputs, options=NATIVE)
        assert seen and set(seen) == {4}
        assert entry.native_plan.threads == 4

    def test_block_workers_keep_the_full_share(self, four_cores):
        """``workers`` overlaps blocks of tape plans only: a native
        block never has a sibling to share the cores with."""
        inputs = {"input": _image("Harris", BIG, BIG)}
        options = ExecutionOptions(engine="native", workers=2)
        run("Harris", inputs, options=options)
        (entry,) = PROCESS_CACHE._entries.values()
        seen = _spy_on(entry.native_plan)
        run("Harris", inputs, options=options)
        assert seen and set(seen) == {4}

    def test_blocks_start_in_dependence_order_one_at_a_time(self, four_cores):
        inputs = {"input": _image("Harris", BIG, BIG)}
        options = ExecutionOptions(engine="native", workers=4)
        run("Harris", inputs, options=options)
        (entry,) = PROCESS_CACHE._entries.values()
        plan = entry.native_plan
        started, in_flight = [], []
        for index, (_plan, native) in enumerate(plan.blocks):

            def call(*args, index=index, fn=native._fn):
                in_flight.append(index)
                started.append((index, tuple(in_flight)))
                try:
                    return fn(*args)
                finally:
                    in_flight.remove(index)

            native._fn = call
        run("Harris", inputs, options=options)
        order = [index for index, _ in started]
        assert sorted(order) == list(range(len(plan.blocks))) and len(order) > 1
        assert all(running == (index,) for index, running in started)
        for position, index in enumerate(order):
            assert plan.plan.deps[index] <= set(order[:position])

    def test_small_requests_stay_serial(self, four_cores):
        inputs = {"input": _image("Harris", 64, 96)}
        run("Harris", inputs, options=NATIVE)
        (entry,) = PROCESS_CACHE._entries.values()
        seen = _spy_on(entry.native_plan)
        run("Harris", inputs, options=NATIVE)
        assert seen and set(seen) == {1}

    def test_environment_and_argument_win_in_both(
        self, four_cores, monkeypatch
    ):
        inputs = {"input": _image("Harris", BIG, BIG)}
        monkeypatch.setenv(NATIVE_THREADS_ENV, "3")
        with ServingRuntime(engine="native", workers=2) as runtime:
            assert set(self._serve(runtime, inputs)) == {3}
            assert runtime.metrics_snapshot()["scheduler"][
                "native_threads"
            ] == 3
        run("Harris", inputs, options=NATIVE)
        (entry,) = PROCESS_CACHE._entries.values()
        seen = _spy_on(entry.native_plan)
        run("Harris", inputs, options=NATIVE)
        assert set(seen) == {3}
        monkeypatch.delenv(NATIVE_THREADS_ENV)
        del seen[:]
        with sharing_cores(4):  # as if under a serving runtime
            entry.native_plan.execute(inputs, None, None, threads=3)
        assert set(seen) == {3}


class TestParallelGate:
    """One predicate decides both the C text and the team: a plane whose
    automatic share can never exceed one thread compiles no parallel
    region, so gcc does not outline a team that would never run."""

    SMALL, GATE = (256, 511), (256, 512)  # 130 816 and 131 072 pixels

    def _lowered(self, app, width, height):
        graph = APPLICATIONS[app].build(width, height).build()
        return graph, partition_for(graph, GTX680, "optimized")

    def test_the_gate_is_where_the_automatic_share_exceeds_one(
        self, four_cores
    ):
        small, gate = (w * h for w, h in (self.SMALL, self.GATE))
        assert small < 2 * MIN_PIXELS_PER_THREAD == gate
        for pixels in (1, 96 * 64, small, gate, 1024 * 1024):
            assert parallel_plane(pixels) == (
                resolve_native_threads(pixels=pixels) > 1
            )

    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    def test_one_parallel_region_per_block_from_the_gate_on(self, app):
        for (width, height), regions in ((self.SMALL, 0), (self.GATE, 1)):
            graph, partition = self._lowered(app, width, height)
            blocks = len(plan_for_partition(graph, partition).plans)
            source = lower_partition_source(graph, partition)
            assert "runs on the tape engine" not in source
            assert source.count("#pragma omp parallel") == regions * blocks
            assert source.count("#pragma omp simd") > 0

    @needs_cc
    def test_an_explicit_count_below_the_gate_runs_serial(self, monkeypatch):
        monkeypatch.delenv(NATIVE_THREADS_ENV, raising=False)
        graph, partition = self._lowered("Harris", 96, 64)
        plan = native_plan_for_partition(graph, partition)
        assert not any(native.parallel for native in plan.natives)
        seen = _spy_on(plan)
        plan.execute({"input": _image("Harris", 64, 96)}, threads=4)
        assert seen and set(seen) == {1}
        assert plan.threads == 1

    @needs_cc
    @pytest.mark.parametrize("geometry", [(96, 64), GATE], ids=str)
    def test_a_restored_plan_derives_the_same_facts(self, geometry):
        """A plan bound from the record's manifest has the fresh
        build's ``parallel`` facts: the schedule records the flag, and
        the binding takes it only where the baked geometry gives it."""
        graph, partition = self._lowered("Harris", *geometry)
        fresh = native_plan_for_partition(graph, partition)
        recorded = native_exec.RecordedLibrary(
            fresh.library_path.stem,
            fresh.library_sha256,
            fresh.bindings(),
            fresh.library_path.parent,
        )
        restored = native_exec._bind_recorded(fresh.plan, recorded, False)
        assert restored.from_record
        facts = [native.parallel for native in fresh.natives]
        assert [native.parallel for native in restored.natives] == facts
        assert [
            native.spec.parallel for native in restored.natives
        ] == [native.spec.parallel for native in fresh.natives]
        assert set(facts) == {
            openmp_available() and parallel_plane(geometry[0] * geometry[1])
        }


@needs_cc
def test_without_openmp_the_effective_count_is_one(monkeypatch):
    """``(void)threads``: a library built without ``-fopenmp`` runs
    serial whatever is asked, and says so."""
    monkeypatch.setattr(native_exec, "openmp_available", lambda cc=None: False)
    native_exec.clear_native_caches()
    graph = APPLICATIONS["Sobel"].build(BIG, BIG).build()
    partition = partition_for(graph, GTX680, "optimized")
    try:
        plan = native_plan_for_partition(graph, partition)
        seen = _spy_on(plan)
        plan.execute({"input": _image("Sobel", BIG, BIG)}, threads=4)
        assert set(seen) == {1}
        assert plan.threads == 1
    finally:
        native_exec.clear_native_caches()


@needs_openmp
def test_a_forked_child_of_a_threaded_parent_runs_serial():
    """libgomp's pool does not survive ``fork``: a child that started a
    team of two after its parent had would hang (run this test body
    without the guard to see it)."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    graph = APPLICATIONS["Sobel"].build(BIG, BIG).build()
    partition = partition_for(graph, GTX680, "optimized")
    plan = native_plan_for_partition(graph, partition)
    inputs = {"input": _image("Sobel", BIG, BIG)}
    expected = plan.execute(inputs, threads=2)
    assert plan.threads == 2

    def child(conn):
        env = plan.execute(inputs, threads=2)
        same = np.array_equal(env["magnitude"], expected["magnitude"])
        conn.send((plan.threads, same))

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=child, args=(child_conn,))
    process.start()
    try:
        assert parent_conn.poll(30), "forked child hung in its parallel region"
        assert parent_conn.recv() == (1, True)
    finally:
        process.join(5)
        if process.is_alive():
            process.kill()
