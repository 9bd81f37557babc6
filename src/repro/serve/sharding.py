"""Multi-process sharded serving: every core, bit-identical fidelity.

The single-process :class:`~repro.serve.runtime.ServingRuntime` is
GIL-bound: its scheduler threads interleave NumPy dispatch and
bookkeeping on one interpreter.  :class:`ShardedRuntime` lifts the same
serving contract onto N worker **processes**, each hosting its own
complete ``ServingRuntime`` (plan cache, scheduler, metrics,
resilience ladder), so aggregate throughput scales with cores while
every response stays bit-identical to direct execution.

Design, layer by layer:

* **Routing** — requests route by the pipeline's *plan structural
  signature* at the request geometry over a consistent-hash ring
  (:class:`HashRing`, virtual nodes).  The signature is exactly the
  plan-cache identity, so one worker owns each (pipeline, geometry)
  and its PlanCache stays hot; adding or losing a shard remaps only
  the ring arc it owned.
* **Transport** — input planes are written once into pooled
  shared-memory segments and mapped zero-copy in the worker; results
  come back the same way (:mod:`repro.serve.transport`).  Only tiny
  descriptors cross the pipe.  Round-trips are serialized per worker,
  which is what makes pooled-segment reuse safe: a segment is never
  rewritten before its previous reader is done.
* **Compile sharing** — workers share the content-hash ``.so`` cache
  on disk (:mod:`repro.backend.cpu_exec`): the first worker to compile
  a native plan pays the C compiler, every other worker's miss loads
  the artifact.
* **Resilience** — each worker runs the full in-process ladder; this
  module adds the process level (:class:`~repro.serve.resilience.
  ShardPolicy`): a dead worker is detected mid-round-trip, its
  in-flight request retries on the next live shards clockwise on the
  ring, and the process respawns in the background.  Deterministic
  kills are injectable at the ``worker.kill`` fault site
  (``REPRO_FAULTS=worker.kill:error*1``) — fired parent-side, so a
  respawned worker does not re-arm its own assassin.

The layering follows rechunker's pluggable ``PipelineExecutor`` split:
what to execute (the registered pipelines and their plans) is decided
once, *where* it executes is an executor concern — threads in one
process or a shard fleet — behind the same ``submit``/``execute``
surface.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import queue
import threading
import time
from bisect import bisect_right
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.numpy_exec import Arrays, Params
from repro.serve import faultinject
from repro.serve.errors import (
    DeadlineExceeded,
    QueueFull,
    RemoteServeError,
    RuntimeClosed,
    ServeError,
    WorkerDied,
)
from repro.serve.metrics import Metrics, merge_snapshots
from repro.serve.plancache import FusionSettings
from repro.serve.registry import PipelineRegistry, default_registry
from repro.serve.resilience import ResiliencePolicy, ShardPolicy
from repro.serve.runtime import options_kwargs
from repro.serve.scheduler import ResponseHandle
from repro.serve.transport import (
    SegmentPool,
    attach_segment,
    pack_arrays,
    unpack_arrays,
)

__all__ = ["HashRing", "ShardedRuntime"]


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------


def _ring_hash(token: str) -> int:
    """A stable 64-bit point on the ring (sha1: same across processes
    and runs — ``hash()`` is salted per process and would reshard the
    fleet every restart)."""
    return int.from_bytes(hashlib.sha1(token.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing over shard ids with virtual nodes.

    ``preference(key)`` returns every distinct shard in ring order
    starting at the key's point — index 0 is the primary, the rest are
    the sibling fallbacks, so routing and failover walk one structure.
    """

    def __init__(self, shard_ids: Sequence[int], virtual_nodes: int = 64):
        if not shard_ids:
            raise ValueError("hash ring needs at least one shard")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        points: List[Tuple[int, int]] = []
        for shard_id in shard_ids:
            for vnode in range(virtual_nodes):
                points.append((_ring_hash(f"shard-{shard_id}#{vnode}"), shard_id))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]
        self._count = len(set(shard_ids))

    def preference(self, key: str) -> List[int]:
        """Distinct shard ids clockwise from ``key``'s ring position."""
        start = bisect_right(self._hashes, _ring_hash(key))
        order: List[int] = []
        seen = set()
        for offset in range(len(self._points)):
            _, shard_id = self._points[(start + offset) % len(self._points)]
            if shard_id not in seen:
                seen.add(shard_id)
                order.append(shard_id)
                if len(order) == self._count:
                    break
        return order

    def shard_for(self, key: str) -> int:
        return self.preference(key)[0]


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(worker_id: int, conn: Any, config: Dict[str, Any]) -> None:
    """The worker loop: a full ServingRuntime behind a pipe.

    Runs in a child process.  Requests arrive as shared-memory
    descriptors, execute on this worker's own runtime (plan cache,
    scheduler, in-process resilience ladder), and return through
    the worker's response segment pool.  The protocol is strictly
    request/response — the parent serializes round-trips per worker —
    so one response pool segment set is always safe to reuse.
    """
    from repro.serve.runtime import ServingRuntime

    registry = default_registry(
        include_extensions=True,
        apps=set(config["apps"]) if config["apps"] is not None else None,
    )
    runtime = ServingRuntime(
        registry,
        fusion=config["fusion"],
        workers=config["worker_threads"],
        intra_workers=config["intra_workers"],
        cache_capacity=config["cache_capacity"],
        engine=config["engine"],
        resilience=config["resilience"],
    )
    # Every shard's scheduler workers run side by side on one machine:
    # a compiled call takes 1/(shards x workers) of the cores, not
    # 1/workers of them per shard.
    runtime.side_by_side *= config["processes"]
    response_pool = SegmentPool()
    request_segments: Dict[str, Any] = {}  # parent-owned, attach once

    def request_views(descriptor) -> Arrays:
        name = descriptor[0]
        shm = request_segments.get(name)
        if shm is None:
            shm = attach_segment(name)
            request_segments[name] = shm
        return unpack_arrays(descriptor, shm)

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "exec":
                _, req_id, pipeline, descriptor, params = message
                try:
                    inputs = request_views(descriptor)
                    env = runtime.execute(pipeline, inputs, params)
                    out_descriptor, segment = pack_arrays(env, response_pool)
                    # The views into the request segment die with `env`;
                    # drop them before replying — a reply licenses the
                    # parent to rewrite that segment.
                    del inputs, env
                    conn.send(("ok", req_id, out_descriptor))
                    response_pool.release(segment)
                except BaseException as err:  # noqa: B036 - must cross the pipe
                    conn.send(("err", req_id, type(err).__name__, str(err)))
            elif kind == "metrics":
                snapshot = runtime.metrics_snapshot()
                snapshot["transport"] = response_pool.stats()
                conn.send(("metrics", snapshot))
            elif kind == "ping":
                conn.send(("pong", worker_id))
            elif kind == "close":
                conn.send(("bye", worker_id))
                break
    finally:
        runtime.close(drain=False)
        response_pool.close()
        for shm in request_segments.values():
            try:
                shm.close()
            except Exception:
                pass
        conn.close()


# ---------------------------------------------------------------------------
# Parent-side shard bookkeeping
# ---------------------------------------------------------------------------


class _Shard:
    """Parent-side state of one worker: process, pipe, pools, lock.

    ``lock`` serializes round-trips on the pipe (including sibling
    retries arriving from other dispatchers) — the invariant that makes
    pooled-segment reuse and in-order replies trivial.
    """

    def __init__(self, shard_id: int, max_queue: int):
        self.id = shard_id
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Any = None
        self.lock = threading.Lock()
        self.queue: "queue.Queue[Any]" = queue.Queue(maxsize=max_queue)
        self.request_pool = SegmentPool()
        #: Response segments (worker-owned) we attached, by name.
        self.attached: Dict[str, Any] = {}
        #: Incremented by every (re)launch: a death report carrying an
        #: older generation describes a process already replaced and
        #: must not trigger another respawn of the live successor.
        self.generation = 0
        self.death_handled = False
        self.respawning = False

    def drop_attachments(self, unlink: bool) -> None:
        """Detach (and after a death, unlink) the worker's response
        segments — a killed worker cannot clean up after itself."""
        for shm in self.attached.values():
            try:
                shm.close()
            except Exception:
                pass
            if unlink:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
        self.attached.clear()


class _ShardRequest:
    """One in-flight request: inputs held parent-side for retries."""

    __slots__ = (
        "req_id",
        "pipeline",
        "inputs",
        "params",
        "route_key",
        "deadline",
        "handle",
        "enqueued_at",
    )

    def __init__(
        self,
        req_id: int,
        pipeline: str,
        inputs: Arrays,
        params: Params | None,
        route_key: str,
        deadline: Optional[float],
    ):
        self.req_id = req_id
        self.pipeline = pipeline
        self.inputs = inputs
        self.params = params
        self.route_key = route_key
        self.deadline = deadline
        self.handle = ResponseHandle()
        self.enqueued_at = time.monotonic()


class ShardedRuntime:
    """N worker processes behind the ServingRuntime surface.

    Parameters
    ----------
    apps:
        Names of the pipelines to serve (resolved in each worker via
        :func:`~repro.serve.registry.default_registry` with extensions
        available); ``None`` serves the six paper apps.  Workers build
        their own registries — a :class:`PipelineRegistry` holds locks
        and memoized graphs and cannot cross a process boundary.
    processes:
        Worker process count; ``None`` defers to ``REPRO_SERVE_PROCS``
        (default 1 — but construct a plain ServingRuntime for that).
    fusion / engine / intra_workers / cache_capacity / resilience:
        Forwarded to each worker's ServingRuntime (``intra_workers``:
        tape plans only — the native engine parallelises inside each
        kernel).  ``resilience`` must stay picklable (the default
        policy is; injected lambda clocks are not).
    worker_threads:
        Scheduler threads inside each worker.
    max_queue:
        Bound of each shard's parent-side dispatch queue.
    shard:
        The :class:`~repro.serve.resilience.ShardPolicy` — sibling
        retries and respawn behaviour.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        ``"spawn"`` is the conservative choice, ``"fork"`` the fast
        one on Linux).
    virtual_nodes:
        Ring points per shard (routing smoothness).
    """

    def __init__(
        self,
        apps: Sequence[str] | None = None,
        *,
        processes: int | None = None,
        fusion: FusionSettings | None = None,
        engine: str = "tape",
        intra_workers: int | None = None,
        worker_threads: int = 2,
        max_queue: int = 128,
        cache_capacity: int = 64,
        resilience: ResiliencePolicy | None = None,
        shard: ShardPolicy | None = None,
        start_method: str | None = None,
        virtual_nodes: int = 64,
        metrics: Metrics | None = None,
    ):
        from repro.envknobs import serve_procs_env

        processes = serve_procs_env() if processes is None else processes
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self.apps = tuple(apps) if apps is not None else None
        self.fusion = fusion or FusionSettings()
        self.engine = engine
        self.shard_policy = shard or ShardPolicy()
        self.metrics = metrics or Metrics()
        self.max_queue = max_queue
        #: Parent-side registry: request validation + route signatures
        #: (memoized per geometry; workers build their own copies).
        self.registry: PipelineRegistry = default_registry(
            include_extensions=True,
            apps=set(self.apps) if self.apps is not None else None,
        )
        self._config: Dict[str, Any] = {
            "apps": self.apps,
            "processes": processes,
            "fusion": self.fusion,
            "engine": engine,
            "intra_workers": intra_workers,
            "worker_threads": worker_threads,
            "cache_capacity": cache_capacity,
            "resilience": resilience,
        }
        self._ctx = multiprocessing.get_context(start_method)
        self._closed = False
        self._req_counter = 0
        self._req_lock = threading.Lock()
        faultinject.refresh_from_env()
        # Start the shared-memory resource tracker *before* forking
        # workers so every child inherits this one tracker process.  A
        # fork-started worker that boots its own private tracker turns
        # each injected kill into cleanup noise: the orphaned tracker
        # "recovers" segments the parent already unlinked (double
        # unlink, ENOENT warnings) while the parent's tracker KeyErrors
        # on names it never saw registered.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._shards = [_Shard(i, max_queue) for i in range(processes)]
        self._ring = HashRing(range(processes), virtual_nodes=virtual_nodes)
        # Start every process first (spawns overlap), then handshake.
        for s in self._shards:
            self._launch(s)
        try:
            for s in self._shards:
                self._handshake(s)
        except BaseException:
            self.close(drain=False)
            raise
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(s,),
                name=f"repro-shard-{s.id}",
                daemon=True,
            )
            for s in self._shards
        ]
        for thread in self._dispatchers:
            thread.start()

    @classmethod
    def from_options(
        cls,
        options: Any,
        apps: Sequence[str] | None = None,
        **overrides: Any,
    ) -> "ShardedRuntime":
        """Build a sharded runtime from :class:`repro.api.
        ExecutionOptions` (the multi-process sibling of
        :meth:`ServingRuntime.from_options`)."""
        return cls(apps, **options_kwargs(options, overrides))

    # -- worker lifecycle ---------------------------------------------------

    def _launch(self, shard: _Shard, ctx: Any = None) -> None:
        ctx = ctx or self._ctx
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(shard.id, child_conn, self._config),
            name=f"repro-serve-worker-{shard.id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn
        shard.generation += 1
        shard.death_handled = False

    def _handshake(self, shard: _Shard, timeout: float = 60.0) -> None:
        shard.conn.send(("ping",))
        reply = self._await_reply(shard, timeout=timeout)
        if reply[0] != "pong":
            raise WorkerDied(shard.id, f"bad handshake reply {reply[0]!r}")

    def _await_reply(self, shard: _Shard, timeout: float | None = None) -> Any:
        """Receive one message, detecting a dead worker while waiting.

        A SIGKILLed worker does not fail the parent's ``send`` (the
        message buffers in the pipe) — the only reliable signal is
        polling with liveness checks.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if shard.conn.poll(0.05):
                    return shard.conn.recv()
            except (EOFError, OSError):
                raise WorkerDied(shard.id) from None
            if not shard.process.is_alive():
                # One last poll: the worker may have replied then died.
                try:
                    if shard.conn.poll(0):
                        return shard.conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerDied(shard.id)
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerDied(
                    shard.id, f"shard worker {shard.id} unresponsive"
                )

    def _on_death(self, shard: _Shard, generation: int | None = None) -> None:
        """Account a worker death once and kick off the respawn."""
        spawn_respawn = False
        with shard.lock:
            if generation is not None and generation != shard.generation:
                return  # that incarnation has already been replaced
            if shard.death_handled:
                return
            shard.death_handled = True
            shard.drop_attachments(unlink=True)
            if self.shard_policy.respawn and not self._closed:
                shard.respawning = True
                spawn_respawn = True
        self.metrics.counter("worker_deaths").inc()
        if spawn_respawn:
            threading.Thread(
                target=self._respawn,
                args=(shard,),
                name=f"repro-shard-respawn-{shard.id}",
                daemon=True,
            ).start()

    def _respawn(self, shard: _Shard) -> None:
        try:
            # Hold the shard lock through launch + handshake so a
            # dispatcher cannot interleave an exec round-trip with the
            # ping/pong of the half-born replacement; dispatch resumes
            # the moment the worker is known-good.
            #
            # Respawns always use the *spawn* start method, whatever the
            # construction-time method was.  Construction forks run
            # before any dispatcher thread exists, but a respawn forks
            # while dispatchers are mid-round-trip — a fork taken while
            # another thread holds the shared-memory resource tracker's
            # lock (every segment registration does, briefly) copies
            # that lock *held forever* into the child, which then hangs
            # on its first segment creation.  Spawn starts from a fresh
            # interpreter and is immune.
            with shard.lock:
                old_conn = shard.conn
                self._launch(shard, ctx=multiprocessing.get_context("spawn"))
                if old_conn is not None:
                    try:
                        old_conn.close()
                    except Exception:
                        pass
                self._handshake(
                    shard, timeout=self.shard_policy.respawn_timeout_s
                )
            self.metrics.counter("workers_respawned").inc()
        except BaseException:
            # The replacement failed too; siblings keep absorbing the
            # arc.  Mark it dead-handled so the next dispatch attempt
            # can trigger another respawn round.
            self.metrics.counter("respawn_failed").inc()
            with shard.lock:
                shard.death_handled = False
        finally:
            with shard.lock:
                shard.respawning = False

    # -- request admission --------------------------------------------------

    def submit(
        self,
        pipeline: str,
        inputs: Arrays,
        params: Params | None = None,
        *,
        deadline_s: float | None = None,
        block: bool = True,
        queue_timeout: float | None = None,
    ) -> ResponseHandle:
        """Enqueue one request; routing picks the owning shard.

        Same surface as :meth:`ServingRuntime.submit`: the handle's
        ``result()`` is the surviving-image environment, bit-identical
        to direct execution.
        """
        if self._closed:
            raise RuntimeClosed("sharded runtime is closed")
        graph, merged = self.registry.get(pipeline).bind(inputs, params)
        route_key = graph.structural_signature()
        with self._req_lock:
            self._req_counter += 1
            req_id = self._req_counter
        request = _ShardRequest(
            req_id,
            pipeline,
            inputs,
            merged,
            route_key,
            time.monotonic() + deadline_s if deadline_s is not None else None,
        )
        shard = self._shards[self._ring.shard_for(route_key)]
        self.metrics.counter("requests_submitted").inc()
        try:
            shard.queue.put(request, block=block, timeout=queue_timeout)
        except queue.Full:
            self.metrics.counter("requests_rejected").inc()
            raise QueueFull(
                f"shard {shard.id} queue full ({self.max_queue} pending)"
            ) from None
        self.metrics.gauge("queue_depth").set(
            sum(s.queue.qsize() for s in self._shards)
        )
        return request.handle

    def execute(
        self,
        pipeline: str,
        inputs: Arrays,
        params: Params | None = None,
        *,
        deadline_s: float | None = None,
    ) -> Arrays:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(
            pipeline, inputs, params, deadline_s=deadline_s
        ).result()

    def execute_graph(self, *args: Any, **kwargs: Any) -> Arrays:
        """Unsupported: ad-hoc graphs do not cross process boundaries.

        A sharded runtime serves *registered* pipelines — workers
        rebuild them by name.  Route graph execution through a
        single-process :class:`ServingRuntime` or register the
        pipeline under a name.
        """
        raise ServeError(
            "ShardedRuntime serves registered pipelines by name; "
            "execute_graph needs a single-process ServingRuntime"
        )

    # -- dispatch -----------------------------------------------------------

    def _dispatch_loop(self, shard: _Shard) -> None:
        while True:
            request = shard.queue.get()
            if request is None:
                return
            now = time.monotonic()
            if request.deadline is not None and now >= request.deadline:
                self.metrics.counter("requests_timed_out").inc()
                request.handle.set_error(
                    DeadlineExceeded(
                        "deadline expired after "
                        f"{now - request.enqueued_at:.3f}s in queue"
                    )
                )
                continue
            try:
                env, served_by = self._serve(request)
            except BaseException as err:
                self.metrics.counter("requests_failed").inc()
                request.handle.set_error(err)
                continue
            self.metrics.counter("requests_completed").inc()
            self.metrics.counter(f"shard_{served_by}_served").inc()
            self.metrics.histogram("total_ms").observe(
                (time.monotonic() - request.enqueued_at) * 1e3
            )
            request.handle.set_result(env)

    def _serve(self, request: _ShardRequest) -> Tuple[Arrays, int]:
        """Round-trip one request, walking the ring past dead shards."""
        order = self._ring.preference(request.route_key)
        candidates = order[: 1 + self.shard_policy.sibling_retries]
        last_death: Optional[WorkerDied] = None
        for position, shard_id in enumerate(candidates):
            shard = self._shards[shard_id]
            if position:
                self.metrics.counter("requests_retried_on_sibling").inc()
            try:
                return self._roundtrip(shard, request), shard_id
            except WorkerDied as err:
                last_death = err
                if not getattr(err, "handled", False):
                    self._on_death(shard, getattr(err, "generation", None))
        assert last_death is not None
        raise last_death

    def _roundtrip(self, shard: _Shard, request: _ShardRequest) -> Arrays:
        """One serialized exchange with a worker (caller owns retries)."""
        if shard.respawning:
            # Don't queue behind a respawn-in-progress (it holds the
            # shard lock for the whole spawn + handshake) — fail over
            # to the sibling now; the replacement picks up new traffic
            # the moment its handshake completes.  The death is
            # already being handled, so mark this report pre-handled.
            death = WorkerDied(
                shard.id, f"shard worker {shard.id} respawning"
            )
            death.handled = True
            raise death
        with shard.lock:
            generation = shard.generation
            try:
                return self._locked_roundtrip(shard, request)
            except WorkerDied as err:
                # Stamp which incarnation died so a report that lost
                # the race against a completed respawn is discarded.
                err.generation = generation
                raise

    def _locked_roundtrip(
        self, shard: _Shard, request: _ShardRequest
    ) -> Arrays:
        """The pipe exchange itself; caller holds ``shard.lock``."""
        if shard.process is None or not shard.process.is_alive():
            raise WorkerDied(shard.id)
        if faultinject.armed() and faultinject.take("worker.kill"):
            # Parent-side injected kill: SIGKILL the worker we were
            # about to use, then dispatch anyway — detection,
            # sibling retry, and respawn all run for real.
            shard.process.kill()
            shard.process.join(timeout=5.0)
        descriptor, segment = pack_arrays(request.inputs, shard.request_pool)
        try:
            try:
                shard.conn.send(
                    (
                        "exec",
                        request.req_id,
                        request.pipeline,
                        descriptor,
                        request.params,
                    )
                )
            except (BrokenPipeError, OSError):
                raise WorkerDied(shard.id) from None
            while True:
                reply = self._await_reply(shard)
                if reply[0] in ("ok", "err") and reply[1] == request.req_id:
                    break
                # Stale reply from a round-trip abandoned by a
                # previous error; drop it and keep waiting.
        finally:
            shard.request_pool.release(segment)
        if reply[0] == "err":
            raise RemoteServeError(reply[2], reply[3])
        out_descriptor = reply[2]
        name = out_descriptor[0]
        shm = shard.attached.get(name)
        if shm is None:
            shm = attach_segment(name)
            shard.attached[name] = shm
        views = unpack_arrays(out_descriptor, shm)
        # Copy out: the worker reuses its response segments on the
        # next round-trip through this shard.
        return {key: np.array(view) for key, view in views.items()}

    # -- observability ------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Parent metrics + per-shard snapshots + the fleet aggregate.

        ``shards`` holds each worker's own ``metrics_snapshot()``
        (plan-cache hit rate, engine, transport pool) plus its
        parent-side queue depth; ``fleet`` merges the workers'
        instruments (:func:`~repro.serve.metrics.merge_snapshots`);
        ``plan_cache`` is the fleet-wide cache view, so existing
        single-process consumers read the same keys.
        """
        snapshot = self.metrics.snapshot()
        shards: Dict[str, Any] = {}
        worker_snaps: List[Dict[str, Any]] = []
        for shard in self._shards:
            shard_view: Dict[str, Any] = {
                "queue_depth": shard.queue.qsize(),
                "request_pool": shard.request_pool.stats(),
            }
            try:
                with shard.lock:
                    if shard.process is None or not shard.process.is_alive():
                        raise WorkerDied(shard.id)
                    shard.conn.send(("metrics",))
                    reply = self._await_reply(shard, timeout=30.0)
                worker = reply[1]
                shard_view["alive"] = True
                shard_view["worker"] = worker
                shard_view["plan_cache"] = worker.get("plan_cache", {})
                worker_snaps.append(worker)
            except (WorkerDied, OSError):
                shard_view["alive"] = False
            shards[str(shard.id)] = shard_view
        snapshot["processes"] = self.processes
        snapshot["shards"] = shards
        snapshot["fleet"] = merge_snapshots(worker_snaps)
        snapshot["plan_cache"] = self._aggregate_cache(worker_snaps)
        snapshot["engine"] = (
            worker_snaps[0]["engine"]
            if worker_snaps
            else {"requested": self.engine, "active": None}
        )
        from repro.backend.cpu_exec import compile_cache_stats

        snapshot["compile_cache"] = compile_cache_stats()
        snapshot["resilience"] = {
            "shard_policy": {
                "sibling_retries": self.shard_policy.sibling_retries,
                "respawn": self.shard_policy.respawn,
            },
            "breakers": {},
            "faults": faultinject.stats(),
        }
        return snapshot

    @staticmethod
    def _aggregate_cache(worker_snaps: List[Dict[str, Any]]) -> Dict[str, Any]:
        total = {
            "size": 0,
            "capacity": 0,
            "hits": 0,
            "misses": 0,
            "miss_structure": 0,
            "miss_shape": 0,
            "coalesced": 0,
            "evictions": 0,
            "quarantined": 0,
        }
        for snap in worker_snaps:
            cache = snap.get("plan_cache", {})
            for key in total:
                total[key] += cache.get(key, 0)
        lookups = total["hits"] + total["misses"]
        total["hit_rate"] = (total["hits"] / lookups) if lookups else 0.0
        return total

    # -- lifecycle ----------------------------------------------------------

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admissions, drain dispatchers, shut the fleet down."""
        if self._closed:
            return
        self._closed = True  # stop admissions before draining
        dispatchers = getattr(self, "_dispatchers", [])
        for shard in self._shards:
            if not drain:
                # Fail queued work instead of serving it.
                while True:
                    try:
                        request = shard.queue.get_nowait()
                    except queue.Empty:
                        break
                    if request is not None:
                        request.handle.set_error(
                            RuntimeClosed("runtime shut down before execution")
                        )
            shard.queue.put(None)
        for thread in dispatchers:
            thread.join(timeout=timeout)
        for shard in self._shards:
            with shard.lock:
                if shard.process is not None and shard.process.is_alive():
                    try:
                        shard.conn.send(("close",))
                        self._await_reply(shard, timeout=10.0)
                    except (WorkerDied, OSError):
                        pass
                    shard.process.join(timeout=10.0)
                    if shard.process.is_alive():
                        shard.process.kill()
                        shard.process.join(timeout=5.0)
                # After worker death the response segments are orphans:
                # unlink; after clean exit the worker unlinked already
                # and closing our handles is enough.
                shard.drop_attachments(unlink=shard.death_handled)
                if shard.conn is not None:
                    try:
                        shard.conn.close()
                    except Exception:
                        pass
                shard.request_pool.close()

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
