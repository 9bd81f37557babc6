"""The serving runtime: pipelines as a long-lived, cached service.

Everything upstream of this package treats each execution as a
one-shot: build, fuse, plan, run, discard.  :mod:`repro.serve` turns
that into a service with the compile-once/run-many cost model the
paper's analysis implies:

* :mod:`~repro.serve.registry` — named, geometry-generic pipelines
  (the six paper apps pre-registered);
* :mod:`~repro.serve.plancache` — LRU cache of fused partitions +
  compiled tapes keyed on structural signature, geometry, engine, and
  fusion configuration, with in-flight build coalescing and entry
  quarantine;
* :mod:`~repro.serve.scheduler` — bounded FIFO queue + worker pool with
  backpressure, deadlines, and graceful drain;
* :mod:`~repro.serve.metrics` — counters/gauges/state gauges/latency
  histograms behind one snapshot call;
* :mod:`~repro.serve.errors` — the typed :class:`ServeError`
  exception hierarchy;
* :mod:`~repro.serve.resilience` — retry/backoff policies, per-stage
  timeouts, and the circuit breakers routing down the degradation
  ladder ``native → tape → recursive``;
* :mod:`~repro.serve.faultinject` — deterministic fault injection at
  named sites (``REPRO_FAULTS`` + programmatic API) so every
  degradation path is testable in CI;
* :mod:`~repro.serve.runtime` — :class:`ServingRuntime`, composing the
  above; results are bit-identical to direct execution.

Throughput and latency of the layer are measured by the perf ledger's
``serve_mixed`` workload (``benchmarks/ledger/``).
"""

from repro.serve.errors import (
    BackpressureError,
    DeadlineExceeded,
    PlanBuildError,
    QueueFull,
    RuntimeClosed,
    SchedulerClosed,
    ServeError,
    StageTimeout,
)
from repro.serve.faultinject import FaultInjected, FaultRule, fault_injection
from repro.serve.metrics import Counter, Gauge, Histogram, Metrics, StateGauge
from repro.serve.plancache import (
    CachedPlan,
    FusionSettings,
    PlanCache,
    inputs_signature,
    plan_key,
)
from repro.serve.registry import (
    PipelineEntry,
    PipelineRegistry,
    RegistryError,
    default_registry,
)
from repro.serve.resilience import (
    DEGRADATION_LADDER,
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
    StageTimeouts,
)
from repro.serve.runtime import ServingRuntime
from repro.serve.scheduler import (
    RequestScheduler,
    ResponseHandle,
    ServeRequest,
)

__all__ = [
    "BackpressureError",
    "BreakerBoard",
    "BreakerConfig",
    "CachedPlan",
    "CircuitBreaker",
    "Counter",
    "DEGRADATION_LADDER",
    "DeadlineExceeded",
    "FaultInjected",
    "FaultRule",
    "FusionSettings",
    "Gauge",
    "Histogram",
    "Metrics",
    "PipelineEntry",
    "PipelineRegistry",
    "PlanBuildError",
    "PlanCache",
    "QueueFull",
    "RegistryError",
    "RequestScheduler",
    "ResiliencePolicy",
    "ResponseHandle",
    "RetryPolicy",
    "RuntimeClosed",
    "SchedulerClosed",
    "ServeError",
    "ServeRequest",
    "ServingRuntime",
    "StageTimeout",
    "StageTimeouts",
    "StateGauge",
    "default_registry",
    "fault_injection",
    "inputs_signature",
    "plan_key",
]
