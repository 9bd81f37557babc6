"""Fault tolerance for the serving runtime: retry, breakers, degradation.

The pipeline a request crosses — fuse → plan → (native) compile →
execute — now spans three engines, a plan cache, and a C toolchain.
Any of them can fail or stall at runtime: a native compile hits a
toolchain bug, a cached plan is poisoned, a stage hangs.  This module
holds the *policy* objects that decide what happens next; the
:class:`~repro.serve.runtime.ServingRuntime` enforces them:

* :class:`RetryPolicy` — bounded attempts with exponential backoff,
  deterministic jitter, and a per-request backoff budget;
* :class:`StageTimeouts` — per-stage latency budgets (fuse / plan /
  compile / execute), enforced with :class:`~repro.serve.errors.
  StageTimeout`;
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-(pipeline,
  engine) breakers that trip after repeated compile or verify
  failures and route traffic down the **degradation ladder**
  ``native → tape → recursive``, with half-open probing to recover;
* :class:`ResiliencePolicy` — the bundle the runtime (and
  :func:`repro.api.run`) consumes, with injectable ``clock`` and
  ``sleep`` so every path is deterministic under test.

All three engines compute bit-identical results (the native engine
under its pinned tolerance policy), so degradation trades *throughput*
for availability, never correctness — the property the fault-injected
suite in ``tests/serve/test_resilience.py`` pins.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.backend import engines

__all__ = [
    "BreakerBoard",
    "BreakerConfig",
    "CircuitBreaker",
    "DEGRADATION_LADDER",
    "ResiliencePolicy",
    "RetryPolicy",
    "StageTimeouts",
    "ladder_from",
]


#: The engine degradation ladder, fastest first: the order of the
#: engine table.  A breaker guards every rung except the last; tripping
#: routes traffic one rung down.
DEGRADATION_LADDER: Tuple[str, ...] = engines.ENGINE_NAMES


def ladder_from(engine: str) -> Tuple[str, ...]:
    """The degradation ladder starting at ``engine`` (``ValueError``
    for a name outside the table)."""
    return tuple(rung.name for rung in engines.ladder_from(engine))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts the first try: ``3`` means one try plus two
    retries.  The delay before retry *n* (0-based) is::

        min(backoff_max_s, backoff_base_s * backoff_multiplier ** n)

    plus/minus up to ``jitter`` (a fraction) derived from a CRC of the
    attempt and the caller-supplied token — stable across runs, so
    tests and incident reproductions see identical schedules.
    ``budget_s`` caps the *total* backoff one request may spend; a
    retry whose delay would exceed the remaining budget is abandoned
    and the request fails with its last error.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.25
    jitter: float = 0.1
    budget_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        if self.budget_s < 0:
            raise ValueError("budget_s must be >= 0")

    def delay_s(self, attempt: int, token: int = 0) -> float:
        """The backoff before retry ``attempt`` (0-based), jittered."""
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_multiplier**attempt,
        )
        if not self.jitter or not base:
            return base
        # Deterministic jitter in [-jitter, +jitter]: a CRC of the
        # (attempt, token) pair spreads concurrent retries without an
        # RNG, so schedules reproduce bit-for-bit.
        crc = zlib.crc32(f"{attempt}:{token}".encode())
        fraction = (crc % 10001) / 5000.0 - 1.0
        return max(0.0, base * (1.0 + self.jitter * fraction))


@dataclass(frozen=True)
class StageTimeouts:
    """Per-stage latency budgets in seconds; ``None`` disables a stage's
    budget (the default — timeout enforcement runs the stage on a side
    thread, which the no-timeout hot path should not pay for)."""

    fuse_s: float | None = None
    plan_s: float | None = None
    compile_s: float | None = None
    execute_s: float | None = None

    def budget_for(self, stage: str) -> float | None:
        return {
            "fuse": self.fuse_s,
            "plan": self.plan_s,
            "compile": self.compile_s,
            "execute": self.execute_s,
        }.get(stage)

    @property
    def any_set(self) -> bool:
        return any(
            budget is not None
            for budget in (
                self.fuse_s, self.plan_s, self.compile_s, self.execute_s
            )
        )


@dataclass(frozen=True)
class BreakerConfig:
    """When a circuit breaker trips and how it probes to recover.

    ``failure_threshold`` consecutive compile/verify failures open the
    breaker; after ``reset_timeout_s`` the next request becomes the
    **half-open probe** — its success closes the breaker, its failure
    re-opens it for another full timeout.
    """

    failure_threshold: int = 3
    reset_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")


class CircuitBreaker:
    """One breaker: closed → open → half-open → closed (or open again).

    Thread-safe; the ``clock`` is injectable so recovery timing is
    testable without sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        config: BreakerConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self.trips = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def quiet(self) -> bool:
        """Closed with zero recorded failures — read without the lock.

        The serving hot path uses this to skip breaker bookkeeping on
        healthy traffic; a stale read can at worst admit one request
        during a concurrent trip, which breaker semantics tolerate.
        """
        return self._state == self.CLOSED and self._failures == 0

    def allow(self) -> bool:
        """Whether a request may use the guarded engine right now.

        An open breaker whose reset timeout elapsed transitions to
        half-open and admits exactly one probe; concurrent requests are
        refused until the probe settles via :meth:`record_success` /
        :meth:`record_failure`.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if (
                    self._clock() - self._opened_at
                    >= self.config.reset_timeout_s
                ):
                    self._state = self.HALF_OPEN
                    return True
                return False
            return False  # half-open: a probe is already in flight

    def record_success(self) -> None:
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                # The probe failed: back to a full open window.
                self._state = self.OPEN
                self._opened_at = self._clock()
                return
            self._failures += 1
            if (
                self._state == self.CLOSED
                and self._failures >= self.config.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.trips += 1


class BreakerBoard:
    """Per-(pipeline, engine) breakers plus the ladder walk.

    Keys are ``(pipeline identity, engine)`` — a native-compile failure
    in one pipeline must not degrade every other pipeline's traffic.
    Breakers are created on first use; :meth:`engine_for` walks the
    degradation ladder top-down and returns the first rung whose
    breaker admits the request (the last rung is unguarded).
    """

    def __init__(
        self,
        config: BreakerConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[Tuple[str, str], CircuitBreaker] = {}

    def breaker(self, pipeline: str, engine: str) -> CircuitBreaker:
        key = (pipeline, engine)
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(self.config, self._clock)
                self._breakers[key] = breaker
            return breaker

    def engine_for(self, pipeline: str, ladder: Tuple[str, ...]) -> str:
        """The highest ladder rung currently admitting ``pipeline``."""
        # Healthy fast path: no breaker yet (none was ever tripped for
        # this pipeline's top rung) or a quiet one — no locks taken.
        top = self._breakers.get((pipeline, ladder[0]))
        if top is None or top.quiet:
            return ladder[0]
        for engine in ladder[:-1]:
            if self.breaker(pipeline, engine).allow():
                return engine
        return ladder[-1]

    def record_success(self, pipeline: str, engine: str) -> bool:
        """Record a success; returns whether any breaker state changed.

        Quiet breakers (and pipelines that never failed, which have no
        breaker at all) are left untouched so the no-fault hot path
        pays no locking.
        """
        breaker = self._breakers.get((pipeline, engine))
        if breaker is None or breaker.quiet:
            return False
        breaker.record_success()
        return True

    def record_failure(self, pipeline: str, engine: str) -> None:
        self.breaker(pipeline, engine).record_failure()

    def states(self) -> Dict[str, Dict[str, object]]:
        """Every breaker's state, keyed ``"<pipeline>/<engine>"``."""
        with self._lock:
            items = list(self._breakers.items())
        return {
            f"{pipeline}/{engine}": {
                "state": breaker.state,
                "trips": breaker.trips,
            }
            for (pipeline, engine), breaker in items
        }

    def worst_state(self, engine: str) -> str:
        """The most-degraded state of any pipeline's ``engine`` breaker
        (``open`` > ``half_open`` > ``closed``) — the aggregate behind
        the per-rung breaker state gauge."""
        rank = {
            CircuitBreaker.CLOSED: 0,
            CircuitBreaker.HALF_OPEN: 1,
            CircuitBreaker.OPEN: 2,
        }
        with self._lock:
            states = [
                breaker.state
                for (_, rung), breaker in self._breakers.items()
                if rung == engine
            ]
        if not states:
            return CircuitBreaker.CLOSED
        return max(states, key=rank.__getitem__)


@dataclass(frozen=True)
class ResiliencePolicy:
    """The full resilience configuration one runtime enforces.

    ``degradation`` gates the breaker/ladder machinery and
    ``quarantine`` the evict-and-rebuild of plans that fail at execute
    or verify time.  ``clock`` and ``sleep`` are injectable for
    deterministic tests.  :meth:`disabled` yields the PR-4 behaviour —
    one attempt, no breakers, no quarantine — which the overhead
    benchmark uses as its baseline.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeouts: StageTimeouts = field(default_factory=StageTimeouts)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    quarantine: bool = True
    degradation: bool = True
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep

    @classmethod
    def disabled(cls) -> "ResiliencePolicy":
        """No retries, no breakers, no quarantine, no stage budgets."""
        return cls(
            retry=RetryPolicy(max_attempts=1),
            quarantine=False,
            degradation=False,
        )
