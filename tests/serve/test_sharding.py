"""Multi-process sharded serving: transport, routing, recovery.

Four layers under test:

* the shared-memory transport — pack/unpack round-trips every app's
  plane set bit-identically (multi-channel included), the segment pool
  reuses capacity instead of reallocating, and ``close()`` unlinks
  every segment exactly once;
* consistent-hash routing — deterministic, complete, and stable under
  shard loss;
* the :class:`~repro.serve.sharding.ShardedRuntime` end to end —
  results bit-identical to direct execution for all six paper apps,
  per-worker plan caches absorbing repeat traffic;
* resilience — an injected ``worker.kill`` loses zero requests: the
  death is detected mid-round-trip, the request retries on a sibling
  shard, and the process respawns.

The fleet tests run real worker processes; geometry is kept small so
the whole module stays in CI budget.
"""

import multiprocessing.shared_memory as shared_memory
import time

import numpy as np
import pytest

from repro.api import run
from repro.apps import APPLICATIONS
from repro.serve import (
    HashRing,
    Metrics,
    RemoteServeError,
    RuntimeClosed,
    SegmentPool,
    ServeError,
    ShardedRuntime,
    ShardPolicy,
    attach_segment,
    fault_injection,
    merge_snapshots,
    pack_arrays,
    unpack_arrays,
)
from repro.apps import request_inputs
from repro.serve.registry import DEFAULT_APP_PARAMS

WIDTH, HEIGHT = 48, 32


def _direct(name, inputs):
    """Reference results outside the serving stack."""
    return run(name, dict(inputs), DEFAULT_APP_PARAMS.get(name))


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


class TestTransport:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_roundtrip_bit_identity_all_apps(self, name):
        inputs = request_inputs(APPLICATIONS[name], WIDTH, HEIGHT, seed=7)
        with SegmentPool() as pool:
            descriptor, segment = pack_arrays(inputs, pool)
            attached = attach_segment(descriptor[0])
            try:
                views = unpack_arrays(descriptor, attached)
                assert set(views) == set(inputs)
                for key in inputs:
                    assert views[key].dtype == inputs[key].dtype
                    assert views[key].shape == inputs[key].shape
                    assert np.array_equal(views[key], inputs[key])
            finally:
                attached.close()
            pool.release(segment)

    def test_roundtrip_multichannel_planes(self):
        rng = np.random.default_rng(3)
        arrays = {
            "rgb": rng.random((HEIGHT, WIDTH, 3)),
            "gray": rng.random((HEIGHT, WIDTH)),
            "wide": rng.random((HEIGHT, WIDTH, 7)),
        }
        with SegmentPool() as pool:
            descriptor, segment = pack_arrays(arrays, pool)
            views = unpack_arrays(descriptor, segment.shm)
            for key, array in arrays.items():
                assert np.array_equal(views[key], array)
            pool.release(segment)

    def test_pool_reuses_released_segments(self):
        rng = np.random.default_rng(4)
        arrays = {"plane": rng.random((HEIGHT, WIDTH))}
        with SegmentPool() as pool:
            _, first = pack_arrays(arrays, pool)
            pool.release(first)
            _, second = pack_arrays(arrays, pool)
            assert second.name == first.name
            pool.release(second)
            stats = pool.stats()
            assert stats["created"] == 1
            assert stats["reused"] == 1

    def test_close_unlinks_segments(self):
        pool = SegmentPool()
        segment = pool.acquire(1 << 12)
        name = segment.name
        pool.release(segment)
        pool.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        pool.close()  # idempotent

    def test_views_are_zero_copy(self):
        rng = np.random.default_rng(5)
        arrays = {"plane": rng.random((HEIGHT, WIDTH))}
        with SegmentPool() as pool:
            descriptor, segment = pack_arrays(arrays, pool)
            views = unpack_arrays(descriptor, segment.shm)
            assert views["plane"].base is not None  # a view, not a copy
            pool.release(segment)


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_preference_is_deterministic_and_complete(self):
        ring = HashRing(range(4))
        first = ring.preference("signature-a")
        assert sorted(first) == [0, 1, 2, 3]
        assert ring.preference("signature-a") == first
        assert HashRing(range(4)).preference("signature-a") == first

    def test_different_keys_spread_over_shards(self):
        ring = HashRing(range(4))
        owners = {ring.shard_for(f"sig-{i}") for i in range(64)}
        assert len(owners) > 1

    def test_shard_loss_moves_only_the_dead_shards_keys(self):
        # Consistent hashing: removing shard 3 re-homes only the keys
        # shard 3 owned — and each moves to its existing sibling, which
        # is exactly the shard the runtime's failover retried on.
        full = HashRing(range(4))
        reduced = HashRing(range(3))
        for i in range(64):
            key = f"sig-{i}"
            order = full.preference(key)
            if order[0] != 3:
                assert reduced.shard_for(key) == order[0]
            else:
                assert reduced.shard_for(key) == order[1]

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            HashRing([])


# ---------------------------------------------------------------------------
# Sharded runtime end-to-end
# ---------------------------------------------------------------------------


class TestShardedRuntime:
    @staticmethod
    def _assert_served_bit_identically(names, processes):
        with ShardedRuntime(names, processes=processes) as runtime:
            for seed, name in enumerate(names):
                inputs = request_inputs(
                    APPLICATIONS[name], WIDTH, HEIGHT, seed=seed
                )
                served = runtime.execute(name, inputs)
                reference = _direct(name, inputs)
                assert set(served) == set(reference)
                for key in reference:
                    assert np.array_equal(served[key], reference[key]), (
                        name,
                        key,
                    )

    def test_all_apps_bit_identical_across_two_processes(self):
        self._assert_served_bit_identically(sorted(APPLICATIONS), 2)

    def test_four_processes_stay_bit_identical(self):
        self._assert_served_bit_identically(["Sobel", "Harris", "Night"], 4)

    def test_repeat_traffic_hits_per_worker_plan_cache(self):
        with ShardedRuntime(["Sobel", "Harris"], processes=2) as runtime:
            for seed in range(10):
                for name in ("Sobel", "Harris"):
                    inputs = request_inputs(
                        APPLICATIONS[name], WIDTH, HEIGHT, seed=seed
                    )
                    runtime.execute(name, inputs)
            snapshot = runtime.metrics_snapshot()
        cache = snapshot["plan_cache"]
        # One miss per (pipeline, geometry) fleet-wide: signature
        # routing pins each pipeline to one worker's cache.
        assert cache["misses"] == 2
        assert cache["hits"] == 18
        assert cache["hit_rate"] > 0.85

    def test_routing_is_deterministic_per_signature(self):
        with ShardedRuntime(["Sobel"], processes=2) as runtime:
            inputs = request_inputs(APPLICATIONS["Sobel"], WIDTH, HEIGHT, 1)
            for _ in range(6):
                runtime.execute("Sobel", inputs)
            snapshot = runtime.metrics_snapshot()
        served = {
            key: value
            for key, value in snapshot["counters"].items()
            if key.startswith("shard_") and key.endswith("_served")
        }
        # Every request landed on the same shard.
        assert sorted(served.values()) == [6]

    def test_unknown_pipeline_raises_parent_side(self):
        from repro.serve import RegistryError

        with ShardedRuntime(["Sobel"], processes=1) as runtime:
            with pytest.raises(RegistryError):
                runtime.execute("NoSuchApp", {"input": np.zeros((4, 4))})

    def test_worker_side_error_surfaces_as_remote_error(self):
        with ShardedRuntime(["Sobel"], processes=1) as runtime:
            with pytest.raises(RemoteServeError):
                # The parent only validates the name and geometry; a
                # wrong input *name* dies in the worker and comes back
                # typed, with the worker still healthy afterwards.
                runtime.execute(
                    "Sobel", {"wrong_name": np.zeros((HEIGHT, WIDTH))}
                )
            inputs = request_inputs(APPLICATIONS["Sobel"], WIDTH, HEIGHT, 1)
            served = runtime.execute("Sobel", inputs)
            reference = _direct("Sobel", inputs)
            for key in reference:
                assert np.array_equal(served[key], reference[key])

    def test_execute_graph_is_rejected(self):
        with ShardedRuntime(["Sobel"], processes=1) as runtime:
            with pytest.raises(ServeError):
                runtime.execute_graph(None, {})

    def test_submit_after_close_raises(self):
        runtime = ShardedRuntime(["Sobel"], processes=1)
        runtime.close()
        with pytest.raises(RuntimeClosed):
            runtime.execute("Sobel", {"input": np.zeros((HEIGHT, WIDTH))})

    def test_snapshot_shape(self):
        with ShardedRuntime(["Sobel"], processes=2) as runtime:
            inputs = request_inputs(APPLICATIONS["Sobel"], WIDTH, HEIGHT, 1)
            runtime.execute("Sobel", inputs)
            snapshot = runtime.metrics_snapshot()
        assert snapshot["processes"] == 2
        assert set(snapshot["shards"]) == {"0", "1"}
        for view in snapshot["shards"].values():
            assert view["alive"] is True
            assert "queue_depth" in view
        assert "counters" in snapshot["fleet"]
        assert "hit_rate" in snapshot["plan_cache"]
        assert "libraries" in snapshot["compile_cache"]
        assert snapshot["engine"]["requested"] == "tape"


# ---------------------------------------------------------------------------
# Resilience: injected worker death
# ---------------------------------------------------------------------------


class TestWorkerKillRecovery:
    def test_injected_kill_loses_zero_requests(self):
        with ShardedRuntime(["Sobel"], processes=2) as runtime:
            inputs = [
                request_inputs(APPLICATIONS["Sobel"], WIDTH, HEIGHT, seed=s)
                for s in range(6)
            ]
            references = [_direct("Sobel", arrays) for arrays in inputs]
            runtime.execute("Sobel", inputs[0])  # warm the primary
            with fault_injection("worker.kill", "error", times=1):
                results = [
                    runtime.execute("Sobel", arrays) for arrays in inputs
                ]
            for served, reference in zip(results, references):
                for key in reference:
                    assert np.array_equal(served[key], reference[key])
            # Wait for the background respawn to complete.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                snapshot = runtime.metrics_snapshot()
                if snapshot["counters"].get("workers_respawned"):
                    break
                time.sleep(0.25)
            counters = snapshot["counters"]
            assert counters["worker_deaths"] >= 1
            assert counters["workers_respawned"] >= 1
            assert counters["requests_retried_on_sibling"] >= 1
            assert counters.get("requests_failed", 0) == 0
            assert all(
                view["alive"] for view in snapshot["shards"].values()
            )
            # The respawned fleet still serves bit-identically.
            served = runtime.execute("Sobel", inputs[0])
            for key in references[0]:
                assert np.array_equal(served[key], references[0][key])

    def test_no_respawn_when_policy_disables_it(self):
        with ShardedRuntime(
            ["Sobel"],
            processes=2,
            shard=ShardPolicy(respawn=False),
        ) as runtime:
            inputs = request_inputs(APPLICATIONS["Sobel"], WIDTH, HEIGHT, 1)
            reference = _direct("Sobel", inputs)
            with fault_injection("worker.kill", "error", times=1):
                served = runtime.execute("Sobel", inputs)
            for key in reference:
                assert np.array_equal(served[key], reference[key])
            time.sleep(0.5)
            snapshot = runtime.metrics_snapshot()
            assert snapshot["counters"]["worker_deaths"] == 1
            assert not snapshot["counters"].get("workers_respawned")
            alive = [
                view["alive"] for view in snapshot["shards"].values()
            ]
            assert sorted(alive) == [False, True]


# ---------------------------------------------------------------------------
# Fleet metrics aggregation
# ---------------------------------------------------------------------------


class TestMergeSnapshots:
    def _snapshot(self, requests, p50):
        metrics = Metrics()
        metrics.counter("requests_completed").inc(requests)
        metrics.gauge("queue_depth").set(2)
        metrics.state_gauge("breaker", "closed")
        histogram = metrics.histogram("total_ms")
        for _ in range(requests):
            histogram.observe(p50)
        return metrics.snapshot()

    def test_counters_sum_and_states_take_worst(self):
        left = self._snapshot(4, 10.0)
        right = self._snapshot(6, 30.0)
        right["states"]["breaker"]["state"] = "open"
        merged = merge_snapshots([left, right])
        assert merged["counters"]["requests_completed"] == 10
        assert merged["gauges"]["queue_depth"] == 4
        assert merged["states"]["breaker"]["state"] == "open"

    def test_histograms_merge_exact_accumulators(self):
        merged = merge_snapshots(
            [self._snapshot(4, 10.0), self._snapshot(6, 30.0)]
        )
        histogram = merged["histograms"]["total_ms"]
        assert histogram["count"] == 10
        assert histogram["min"] == 10.0
        assert histogram["max"] == 30.0
        assert histogram["mean"] == pytest.approx(22.0)
        # p50 is the count-weighted blend of the shard reservoirs.
        assert histogram["p50"] == pytest.approx(22.0)

    def test_empty_merge(self):
        merged = merge_snapshots([])
        assert merged == {
            "counters": {},
            "gauges": {},
            "states": {},
            "histograms": {},
        }
