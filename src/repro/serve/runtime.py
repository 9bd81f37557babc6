"""The serving runtime: registry + plan cache + scheduler + metrics.

:class:`ServingRuntime` turns the reproduction into a long-lived
pipeline service.  A request names a registered pipeline and binds
input arrays; the runtime

1. resolves the pipeline's dependence DAG at the request's geometry
   (inferred from the bound arrays — one registered pipeline serves
   any image size),
2. derives the plan-cache key from the graph's structural signature,
   the input shapes/dtypes, the execution engine, the fusion
   configuration and the native lowering triple the environment sets
   at submit time (the build lowers with the key's, whenever a worker
   runs it),
3. enqueues the request in the bounded FIFO scheduler; a worker pops
   it, fetches (or builds, exactly once) the plan from the
   :class:`~repro.serve.plancache.PlanCache`, and runs the request on
   the cached plan's executor — the runtime's engine, or the rung the
   degradation ladder handed it to,
4. records per-stage metrics: queue wait, execution latency,
   end-to-end latency, compile/fuse timings on misses, cache hit rate,
   queue depth.

Results are **bit-identical** to direct :func:`repro.api.run`
execution of the same configuration — the serving layer reorders
*when* work happens, never *what* is computed.

Every request additionally runs under the runtime's
:class:`~repro.serve.resilience.ResiliencePolicy`: a failed fuse /
plan / compile / verify stage steps the request down the degradation
ladder ``native → tape → recursive`` immediately (the three engines
compute bit-identical results, so the caller sees a slower answer, not
an error), repeated build failures trip a per-pipeline circuit breaker
that routes *future* requests straight to the degraded rung until a
half-open probe recovers, plans that fail at execute time are
quarantined out of the cache and rebuilt, and each stage can carry a
latency budget enforced with
:class:`~repro.serve.errors.StageTimeout`.  Every retry, downgrade,
breaker transition, timeout, and quarantine is visible in
:meth:`ServingRuntime.metrics_snapshot`.

The runtime is a context manager; exiting drains the queue and joins
the workers.
"""

from __future__ import annotations

import contextvars
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import asdict
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.backend import cpu_exec, engines, native_exec
from repro.backend.numpy_exec import Arrays, Params
from repro.backend.plan import resolve_workers
from repro.envknobs import native_lowering
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition
from repro.serve import faultinject
from repro.serve.errors import (
    BackpressureError,
    DeadlineExceeded,
    PlanBuildError,
    RuntimeClosed,
    StageTimeout,
)
from repro.serve.metrics import Metrics
from repro.serve.plancache import (
    CachedPlan,
    FusionSettings,
    PlanCache,
    build_plan,
    plan_key,
    validate_plan,
)
from repro.serve.registry import PipelineRegistry, default_registry
from repro.serve.resilience import (
    BreakerBoard,
    CircuitBreaker,
    ResiliencePolicy,
    ladder_from,
)
from repro.serve.scheduler import (
    RequestScheduler,
    ResponseHandle,
    ServeRequest,
)

__all__ = ["ServingRuntime"]


class ServingRuntime:
    """A long-lived, thread-safe, fault-tolerant pipeline service.

    Parameters
    ----------
    registry:
        Named pipelines to serve; defaults to the six paper apps
        (:func:`repro.serve.registry.default_registry`).
    fusion:
        The :class:`~repro.serve.plancache.FusionSettings` applied to
        every request that names none of its own (fusion version, GPU
        model, benefit constants, border handling).  Part of the
        plan-cache key.
    workers:
        Scheduler worker threads — the request-level concurrency.
        Block-level parallelism within one request (tape plans only) is
        ``REPRO_EXEC_WORKERS``'s.
    max_queue:
        Queue bound (backpressure).
    cache_capacity:
        LRU capacity of the plan cache, in distinct plans.  It bounds
        memory: an evicted entry's graph takes its plans along.
    engine:
        Execution engine serving requests, a name from the engine
        table (:mod:`repro.backend.engines`): ``"tape"`` (default),
        ``"recursive"``, or ``"native"`` — the compiled-C backend of
        :mod:`repro.backend.native_exec`.  With ``"native"`` each plan
        cache entry also carries the loaded kernel library, so a cache
        hit skips fusion, tape planning *and* the C compile.  An engine
        unavailable on this host (native without a C toolchain)
        resolves to the next one in the table at construction
        (recorded under ``metrics_snapshot()["engine"]``).
    resilience:
        The :class:`~repro.serve.resilience.ResiliencePolicy` applied
        to every request: retry/backoff, per-stage timeouts, circuit
        breakers routing down the degradation ladder, plan quarantine.
        Defaults to an enabled policy;
        ``ResiliencePolicy.disabled()`` restores the fail-fast
        behaviour of earlier revisions.
    """

    def __init__(
        self,
        registry: PipelineRegistry | None = None,
        *,
        fusion: FusionSettings | None = None,
        workers: int = 2,
        max_queue: int = 128,
        cache_capacity: int = 64,
        engine: str = "tape",
        resilience: ResiliencePolicy | None = None,
        metrics: Metrics | None = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.fusion = fusion or FusionSettings()
        #: The engine the caller asked for, before availability checks.
        self.requested_engine = engines.requested(engine)
        #: The engine serving requests: the requested one, or — when
        #: this host cannot run it — the next in the table, instead of
        #: failing every request (visible in ``metrics_snapshot()``).
        self.engine = engines.resolve(self.requested_engine).name
        self.cache = PlanCache(capacity=cache_capacity)
        self.metrics = metrics or Metrics()
        self.resilience = resilience or ResiliencePolicy()
        self._ladder = ladder_from(self.engine)
        self._board = BreakerBoard(
            self.resilience.breaker, self.resilience.clock
        )
        for rung in self._ladder[:-1]:
            self.metrics.state_gauge(f"breaker_{rung}", CircuitBreaker.CLOSED)
        # Stage-timeout enforcement runs the stage on a side thread; the
        # pool exists only when some budget is configured, so the
        # default no-timeout hot path pays nothing.
        self._timeout_pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=max(2, workers), thread_name_prefix="repro-stage"
            )
            if self.resilience.timeouts.any_set
            else None
        )
        # Pick up any REPRO_FAULTS rules armed since module import (the
        # registry makes this free when the spec is unchanged).
        faultinject.refresh_from_env()
        self._closed = False
        self.scheduler = RequestScheduler(
            self._handle_request, workers=workers, max_queue=max_queue
        )

    # -- request admission -------------------------------------------------

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
        """Enqueue one request against a registered pipeline.

        ``deadline_s`` is the request's total latency budget (queue wait
        included); expired requests fail with
        :class:`~repro.serve.errors.DeadlineExceeded`.  ``block`` /
        ``queue_timeout`` control backpressure behaviour when the queue
        is full.  Returns a handle; ``handle.result()`` yields the same
        surviving-image environment :func:`repro.api.run` returns.
        """
        graph, merged = self.registry.get(pipeline).bind(inputs, params)
        return self._submit_graph(
            graph,
            inputs,
            merged,
            partition=None,
            fusion=None,
            deadline_s=deadline_s,
            block=block,
            queue_timeout=queue_timeout,
        )

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

    def execute_graph(
        self,
        graph: KernelGraph,
        inputs: Arrays,
        params: Params | None = None,
        partition: Partition | None = None,
        *,
        fusion: FusionSettings | None = None,
        deadline_s: float | None = None,
    ) -> Arrays:
        """Serve an unregistered graph through the runtime.

        This is the integration hook behind
        ``repro.api.run(..., options=ExecutionOptions(runtime=...))``:
        ``partition=None`` fuses under the runtime's settings, while an
        explicit partition serves exactly those blocks
        (``Partition.singletons`` for staged semantics).  Plan caching
        still applies — the key is the graph's structural signature
        plus the partition's block signature, so repeated calls with
        structurally identical graphs reuse one compiled plan.
        ``fusion`` replaces the runtime's
        :class:`~repro.serve.plancache.FusionSettings` for this call (part
        of the key; with an explicit partition only its
        ``naive_borders`` matters).
        """
        handle = self._submit_graph(
            graph,
            inputs,
            params,
            partition=partition,
            fusion=fusion,
            deadline_s=deadline_s,
        )
        return handle.result()

    def _submit_graph(
        self,
        graph: KernelGraph,
        inputs: Arrays,
        params: Params | None,
        partition: Partition | None,
        fusion: FusionSettings | None,
        deadline_s: float | None = None,
        block: bool = True,
        queue_timeout: float | None = None,
    ) -> ResponseHandle:
        if self._closed:
            # Refuse immediately instead of racing the scheduler's own
            # shutdown flag — close() stops admissions synchronously.
            raise RuntimeClosed("runtime is closed")
        # Resolved here, once: every ladder rung's key, and so the
        # worker's build, lowers with what the environment said now, and
        # compiles into the cache directory it names now.
        payload = {
            "graph": graph,
            "inputs": inputs,
            "params": params,
            "partition": partition,
            "fusion": fusion or self.fusion,
            "lowering": native_lowering(),
            "cache_dir": cpu_exec._cache_dir(),
        }
        request = ServeRequest(
            key=self._plan_key(payload, self.engine),
            payload=payload,
            deadline=(
                time.monotonic() + deadline_s if deadline_s is not None else None
            ),
        )
        self.metrics.counter("requests_submitted").inc()
        try:
            self.scheduler.submit(request, block=block, timeout=queue_timeout)
        except BackpressureError:
            self.metrics.counter("requests_rejected").inc()
            raise
        self.metrics.gauge("queue_depth").set(self.scheduler.queue_depth)
        return request.handle

    # -- request execution (scheduler workers land here) --------------------

    def _handle_request(self, request: ServeRequest) -> None:
        # The ledger's, not the runtime's: benchmarks/ledger/workloads.py
        # reads this histogram's mean, and one dispatch is one request.
        # Goes when Ledger v2 retires serve.scheduler.batch_size_mean.
        self.metrics.histogram("batch_size").observe(1)
        self.metrics.gauge("queue_depth").set(self.scheduler.queue_depth)
        now = time.monotonic()
        self.metrics.histogram("queue_wait_ms").observe(
            request.queue_wait_s(now) * 1e3
        )
        if request.expired(now):
            self.metrics.counter("requests_timed_out").inc()
            request.handle.set_error(
                DeadlineExceeded(
                    "deadline expired after "
                    f"{request.queue_wait_s(now):.3f}s in queue"
                )
            )
            return
        try:
            # The compile cache directory the request resolved at submit,
            # for its build and any background build it queues.
            with cpu_exec.cache_directory(request.payload["cache_dir"]):
                env, engine = self._serve_request(request)
            finished = time.monotonic()
        except BaseException as err:
            self.metrics.counter("requests_failed").inc()
            request.handle.set_error(err)
            return
        self.metrics.counter(f"engine_{engine}_executions").inc()
        self.metrics.histogram("total_ms").observe(
            (finished - request.enqueued_at) * 1e3
        )
        self.metrics.counter("requests_completed").inc()
        request.handle.set_result(env)

    def _serve_request(self, request: ServeRequest) -> Tuple[Arrays, str]:
        """Serve one request under the resilience policy.

        The attempt loop owns the whole failure story: build failures
        step the request down the degradation ladder *immediately* (the
        caller gets a slower bit-identical answer instead of an error,
        even before the breaker trips), execute failures quarantine the
        plan and rebuild, and each retry beyond the first pays the
        policy's backoff against the per-request budget.  Returns the
        environment plus the ladder rung that produced it.
        """
        policy = self.resilience
        retry = policy.retry
        key = request.key
        pipeline = key[0]  # structural signature = per-pipeline identity
        backoff_spent = 0.0
        floor = 0  # lowest ladder index this request may still try
        stepped_down = False
        last_error: Optional[BaseException] = None
        for attempt in range(retry.max_attempts):
            if attempt:
                # A ladder step-down retries on a *different* engine —
                # the failure was not transient, so backing off first
                # would only add latency.  Same-rung retries pay the
                # policy's backoff against the per-request budget.  The
                # jitter token is derived here, not per request: only
                # retries ever need it.
                delay = (
                    0.0
                    if stepped_down
                    else retry.delay_s(
                        attempt - 1, zlib.crc32(repr(key).encode())
                    )
                )
                stepped_down = False
                if delay:
                    if backoff_spent + delay > retry.budget_s:
                        self.metrics.counter("retry_budget_exhausted").inc()
                        break
                    backoff_spent += delay
                    policy.sleep(delay)
                self.metrics.counter("request_retries").inc()
            if policy.degradation:
                routed = self._board.engine_for(pipeline, self._ladder)
                index = max(self._ladder.index(routed), floor)
            else:
                index = min(floor, len(self._ladder) - 1)
            engine = self._ladder[index]
            attempt_key = key
            if engine != self.engine:
                attempt_key = self._plan_key(request.payload, engine)
                self.metrics.counter(f"degraded_to_{engine}").inc()
            try:
                entry = self._lookup_plan(attempt_key, request, engine)
            except BaseException as err:
                last_error = err
                if policy.degradation:
                    self._board.record_failure(pipeline, engine)
                    self._update_breaker_gauges()
                    if index < len(self._ladder) - 1:
                        # Step down *this* request right away; the
                        # breaker handles future traffic.
                        floor = index + 1
                        stepped_down = True
                    continue
                raise
            started = time.monotonic()
            try:
                env = self._execute_entry(entry, request)
            except BaseException as err:
                last_error = err
                if policy.quarantine:
                    if self.cache.quarantine(attempt_key):
                        self.metrics.counter("plans_quarantined").inc()
                if retry.max_attempts == 1:
                    raise
                continue
            self.metrics.histogram("execute_ms").observe(
                (time.monotonic() - started) * 1e3
            )
            if policy.degradation and engine in self._ladder[:-1]:
                # record_success is a no-op (False) while the breaker
                # is quiet, so healthy traffic skips the gauge sweep.
                if self._board.record_success(pipeline, engine):
                    self._update_breaker_gauges()
            return env, engine
        assert last_error is not None
        raise last_error

    def _plan_key(self, payload: Dict[str, Any], engine: str) -> tuple:
        """The cache key of one request on one ladder rung."""
        return plan_key(
            payload["graph"].structural_signature(),
            payload["inputs"],
            engine,
            payload["fusion"],
            partition=payload["partition"],
            lowering=payload["lowering"],
        )

    def _lookup_plan(
        self, attempt_key: tuple, request: ServeRequest, engine: str
    ) -> CachedPlan:
        """Fetch or build the plan for one (request, ladder rung)."""
        structure = request.payload["graph"].structure_signature()
        while True:
            entry, hit = self.cache.get_or_build(
                attempt_key,
                lambda: self._build_plan(attempt_key, request, engine),
                structure_key=structure,
            )
            if not hit:
                return entry
            validate_plan(entry, partial(self._build_stage, engine))
            if not (
                faultinject.armed()
                and faultinject.take_corruption("cache.hit")
            ):
                return entry
            # An injected corruption marks the served entry poisoned:
            # quarantine it and rebuild, exactly as the resilience
            # layer does for a genuinely bad plan.
            if self.cache.quarantine(attempt_key):
                self.metrics.counter("plans_quarantined").inc()

    def _timed_stage(self, stage: str, fn: Callable[[], Any]) -> Any:
        """Run one pipeline stage behind its fault site and under its
        configured latency budget.

        Without a budget (the default) the stage runs inline; with one,
        it runs on the side pool and a blown budget raises
        :class:`StageTimeout` (the stage thread is abandoned — numpy
        work cannot be interrupted — but the request moves on).
        """

        def guarded() -> Any:
            faultinject.check(stage)
            return fn()

        budget = self.resilience.timeouts.budget_for(stage)
        if budget is None or self._timeout_pool is None:
            return guarded()
        # In a copy of this context: the stage sees the request's scopes.
        future = self._timeout_pool.submit(contextvars.copy_context().run, guarded)
        try:
            return future.result(timeout=budget)
        except _FutureTimeout:
            future.cancel()
            self.metrics.counter(f"stage_timeout_{stage}").inc()
            raise StageTimeout(stage, budget) from None

    def _execute_entry(
        self, entry: CachedPlan, request: ServeRequest
    ) -> Arrays:
        def execute() -> Arrays:
            # Each scheduler worker's compiled call takes its share of
            # the cores.
            with native_exec.sharing_cores(self.scheduler.workers):
                return entry.execute(
                    request.payload["inputs"], request.payload["params"]
                )

        return self._timed_stage("execute", execute)

    def _build_stage(
        self, engine: str, stage: str, fn: Callable[[], Any]
    ) -> Any:
        """The serving door's stage runner for
        :func:`~repro.serve.plancache.build_plan` (with ``engine``
        bound): failures surface as :class:`PlanBuildError` carrying
        the stage and engine, so the retry loop can route the request
        down the ladder."""
        try:
            return self._timed_stage(stage, fn)
        except StageTimeout:
            raise
        except Exception as err:
            raise PlanBuildError(
                stage, engine, f"{stage} stage failed: {err}"
            ) from err

    def _build_plan(
        self, key: tuple, request: ServeRequest, engine: str
    ) -> CachedPlan:
        """Build one plan for one ladder rung (cache miss) and book its
        stage timings, native counters and plan-record counters."""
        entry = build_plan(
            request.payload["graph"],
            key=key,
            partition=request.payload["partition"],
            fusion=request.payload["fusion"],
            engine=engine,
            stage=partial(self._build_stage, engine),
        )
        for label, value in entry.timings_ms.items():
            self.metrics.histogram(f"compile_{label}").observe(value)
        native_plan = entry.native_plan
        if native_plan is not None:
            self.metrics.counter("native_blocks_compiled").inc(
                native_plan.native_block_count
            )
            if native_plan.fallback_block_count:
                self.metrics.counter("native_blocks_fallback").inc(
                    native_plan.fallback_block_count
                )
            if native_plan.from_cache:
                self.metrics.counter("native_artifact_cache_hits").inc()
            self.metrics.counter("native_objects_compiled").inc(
                native_plan.objects_compiled
            )
            self.metrics.counter("native_objects_reused").inc(
                native_plan.objects_reused
            )
        record = entry.record
        self.metrics.counter("plan_records_restored").inc(
            1 if record.restored else 0
        )
        self.metrics.counter("plan_records_rejected").inc(
            1 if record.rejected else 0
        )
        # The differential verdict is written after the first execute.
        written = self.metrics.counter("plan_records_written")
        written.inc(record.writes)
        record.on_write = written.inc
        return entry

    def _update_breaker_gauges(self) -> None:
        for rung in self._ladder[:-1]:
            self.metrics.state_gauge(
                f"breaker_{rung}", CircuitBreaker.CLOSED
            ).set(self._board.worst_state(rung))

    # -- observability -------------------------------------------------------

    def native_threads(self) -> int:
        """The widest OpenMP team a cached native plan ran on its most
        recent execute — the team that runs, not the share a large
        plane would get: 1 off the native engine, without OpenMP, and
        when every plane served is too small for a team."""
        return self.cache.native_threads()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Instruments + plan-cache stats + scheduler state, one dict."""
        snapshot = self.metrics.snapshot()
        snapshot["plan_cache"] = self.cache.stats()
        snapshot["engine"] = {
            "requested": self.requested_engine,
            "active": self.engine,
        }
        snapshot["scheduler"] = {
            "queue_depth": self.scheduler.queue_depth,
            "inflight": self.scheduler.inflight,
            "max_queue": self.scheduler.max_queue,
            "exec_workers": resolve_workers(None),
            "native_threads": self.native_threads(),
        }
        snapshot["fusion"] = asdict(self.fusion)
        retry = self.resilience.retry
        snapshot["resilience"] = {
            "ladder": list(self._ladder),
            "degradation": self.resilience.degradation,
            "quarantine": self.resilience.quarantine,
            "retry": {
                "max_attempts": retry.max_attempts,
                "backoff_base_s": retry.backoff_base_s,
                "backoff_max_s": retry.backoff_max_s,
                "budget_s": retry.budget_s,
            },
            "breakers": self._board.states(),
            "faults": faultinject.stats(),
        }
        return snapshot

    # -- lifecycle -----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        return self.scheduler.drain(timeout)

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admissions, optionally finish queued work, join workers.

        New submits fail with :class:`RuntimeClosed` from the moment
        this is entered, *before* the scheduler starts draining — a
        drain cannot race fresh work into the queue.  Then the plan
        cache stops re-fusing (:meth:`PlanCache.close`): a hot build in
        flight finishes, a queued one is dropped.
        """
        if self._closed:
            return
        self._closed = True
        self.scheduler.close(drain=drain, timeout=timeout)
        self.cache.close()
        if self._timeout_pool is not None:
            self._timeout_pool.shutdown(wait=False)

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
