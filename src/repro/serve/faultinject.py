"""Deterministic fault injection at named sites of the serving path.

Every degradation path of the resilience layer — retry, circuit
breaker, engine downgrade, plan quarantine, per-stage timeout — exists
to absorb failures that are rare in practice.  This module makes those
failures *reproducible on demand* so each path is testable in CI: a
registry of fault rules, armed programmatically (:func:`inject` /
:func:`fault_injection`) or through the ``REPRO_FAULTS`` environment
knob, fires at named **sites** instrumented throughout the stack:

========================  ====================================================
site                      instrumented where
========================  ====================================================
``fuse``                  partitioning a graph (runtime / ``repro.api``)
``plan.compile``          tape compilation (a :func:`repro.backend.plan.
                          plan_for_partition` miss)
``native.compile``        native-plan build (:mod:`repro.backend.native_exec`)
``cc.compile``            the C compiler invocation (:mod:`repro.backend.
                          cpu_exec`)
``verify``                strict plan verification (serving cache insert)
``execute``               plan execution (runtime worker / ``repro.api``)
``cache.hit``             a plan-cache hit — ``corrupt`` poisons the served
                          entry, exercising quarantine-and-rebuild
========================  ====================================================

Three **actions**: ``error`` raises :class:`FaultInjected`, ``slow``
sleeps ``delay_s`` (tripping per-stage timeouts), ``corrupt`` marks a
cache hit poisoned.  Rules fire a bounded number of ``times``, or
deterministically every ``every``-th hit (``every=10`` = a 10% failure
rate with no randomness), so CI runs are bit-for-bit repeatable.

The ``REPRO_FAULTS`` grammar is comma-separated rules::

    site:action[:seconds][*count|@every]

    REPRO_FAULTS=native.compile:error            # every native compile fails
    REPRO_FAULTS=native.compile:error@10         # every 10th fails
    REPRO_FAULTS=execute:slow:0.2*3              # first three executes stall
    REPRO_FAULTS=cache.hit:corrupt*1             # poison one cache hit

Malformed specs raise :class:`repro.envknobs.EnvKnobError` naming the
variable.  The backends reach this module through a ``sys.modules``
probe (see :func:`repro.backend.plan._fault_check`), so a process that
never imports the serving stack pays nothing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.envknobs import FAULTS_ENV, EnvKnobError, faults_env

__all__ = [
    "FAULT_SITES",
    "FaultInjected",
    "FaultRule",
    "armed",
    "check",
    "clear",
    "fault_injection",
    "inject",
    "parse_spec",
    "refresh_from_env",
    "stats",
    "take_corruption",
]

#: The instrumented sites, in pipeline order.
FAULT_SITES = (
    "fuse",
    "plan.compile",
    "native.compile",
    "cc.compile",
    "verify",
    "execute",
    "cache.hit",
)

#: The supported actions.
FAULT_ACTIONS = ("error", "slow", "corrupt")


class FaultInjected(RuntimeError):
    """An injected failure; carries the ``site`` it fired at."""

    def __init__(self, site: str, message: str | None = None):
        super().__init__(message or f"injected fault at {site!r}")
        self.site = site


@dataclass
class FaultRule:
    """One armed fault: where it fires, what it does, and how often.

    ``times`` bounds the number of firings (``None`` = unbounded);
    ``every`` makes the rule fire on hits ``every, 2*every, ...`` of
    its site — an exact ``1/every`` failure rate with zero randomness.
    """

    site: str
    action: str = "error"
    delay_s: float = 0.0
    times: int | None = 1
    every: int | None = None
    fired: int = 0
    hits: int = 0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"known: {FAULT_ACTIONS}"
            )
        if self.action == "slow" and self.delay_s <= 0:
            raise ValueError("slow faults need a positive delay_s")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (or None for unbounded)")
        if self.every is not None and self.every < 1:
            raise ValueError("every must be >= 1")

    def should_fire(self) -> bool:
        """Account one hit; True when the rule fires on it."""
        self.hits += 1
        if self.times is not None and self.fired >= self.times:
            return False
        if self.every is not None and self.hits % self.every != 0:
            return False
        self.fired += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times


class FaultRegistry:
    """Thread-safe store of armed fault rules, programmatic + env."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rules: List[FaultRule] = []
        self._env_rules: List[FaultRule] = []
        self._env_spec: str | None = None
        self._fired: Dict[str, int] = {}
        #: Lock-free fast-path flag: ``check`` is called on hot paths
        #: and must cost one attribute read when nothing is armed.
        self.armed = False

    # -- arming ----------------------------------------------------------

    def inject(self, rule: FaultRule) -> FaultRule:
        with self._lock:
            self._rules.append(rule)
            self.armed = True
        return rule

    def remove(self, rule: FaultRule) -> None:
        with self._lock:
            if rule in self._rules:
                self._rules.remove(rule)
            self._refresh_armed()

    def clear(self) -> None:
        """Disarm every programmatic and env-sourced rule."""
        with self._lock:
            self._rules.clear()
            self._env_rules.clear()
            self._env_spec = None
            self._fired.clear()
            self.armed = False

    def refresh_from_env(self) -> None:
        """(Re)arm the rules named by ``REPRO_FAULTS``.

        Idempotent per spec string: the env rules are rebuilt only when
        the variable changed since the last refresh, so long-lived
        runtimes can call this on every construction for free.
        """
        spec = faults_env()
        with self._lock:
            if spec == self._env_spec:
                return
            self._env_spec = spec
            self._env_rules = parse_spec(spec) if spec else []
            self._refresh_armed()

    def _refresh_armed(self) -> None:
        self.armed = bool(self._rules or self._env_rules)

    # -- firing ----------------------------------------------------------

    def _fire(self, site: str, actions: Tuple[str, ...]) -> FaultRule | None:
        """The first matching armed rule that fires at ``site``."""
        with self._lock:
            for rule in self._rules + self._env_rules:
                if rule.site != site or rule.action not in actions:
                    continue
                if rule.should_fire():
                    self._fired[site] = self._fired.get(site, 0) + 1
                    return rule
            return None

    def check(self, site: str) -> None:
        """Fire any armed ``error``/``slow`` rule at ``site``.

        ``slow`` rules sleep, then fall through to the next rule, so a
        site can be both slowed and failed in one spec.
        """
        if not self.armed:
            return
        rule = self._fire(site, ("slow",))
        if rule is not None:
            time.sleep(rule.delay_s)
        rule = self._fire(site, ("error",))
        if rule is not None:
            raise FaultInjected(site)

    def take_corruption(self, site: str = "cache.hit") -> bool:
        """True when an armed ``corrupt`` rule fires at ``site``."""
        if not self.armed:
            return False
        return self._fire(site, ("corrupt",)) is not None

    def stats(self) -> Dict[str, int]:
        """Fired-fault counts per site (the injection ledger)."""
        with self._lock:
            return dict(self._fired)


def parse_spec(spec: str) -> List[FaultRule]:
    """Parse a ``REPRO_FAULTS`` spec into rules.

    Unsuffixed rules fire on every hit of their site; ``*count`` bounds
    the firings; ``@every`` fires deterministically on every
    ``every``-th hit.  Raises :class:`~repro.envknobs.EnvKnobError`
    naming the variable on any malformed rule, so a typo in a
    deployment manifest fails at startup with one clear message.
    """
    rules: List[FaultRule] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        times: int | None = None
        every: int | None = None
        body = chunk
        try:
            if "@" in body:
                body, _, rate = body.partition("@")
                every = int(rate)
            elif "*" in body:
                body, _, count = body.partition("*")
                times = int(count)
            parts = body.split(":")
            if len(parts) == 2:
                site, action = parts
                delay = 0.0
            elif len(parts) == 3:
                site, action, seconds = parts
                delay = float(seconds)
            else:
                raise ValueError("expected site:action[:seconds]")
            rule = FaultRule(
                site=site.strip(),
                action=action.strip(),
                delay_s=delay,
                times=times,
                every=every,
            )
        except ValueError as err:
            raise EnvKnobError(
                f"invalid {FAULTS_ENV} rule {chunk!r}: {err}"
            ) from None
        rules.append(rule)
    return rules


#: The process-wide registry every instrumented site consults.
_REGISTRY = FaultRegistry()


def inject(
    site: str,
    action: str = "error",
    *,
    delay_s: float = 0.0,
    times: int | None = 1,
    every: int | None = None,
) -> FaultRule:
    """Arm one fault rule programmatically; returns it (see
    :meth:`FaultRegistry.remove` via :func:`remove`)."""
    return _REGISTRY.inject(
        FaultRule(
            site=site, action=action, delay_s=delay_s, times=times, every=every
        )
    )


def remove(rule: FaultRule) -> None:
    """Disarm one previously injected rule."""
    _REGISTRY.remove(rule)


def clear() -> None:
    """Disarm everything (tests call this between cases)."""
    _REGISTRY.clear()


def armed() -> bool:
    """Whether any fault rule is currently armed."""
    return _REGISTRY.armed


def check(site: str) -> None:
    """Instrumentation hook: raise/sleep when a rule fires at ``site``."""
    _REGISTRY.check(site)


def take_corruption(site: str = "cache.hit") -> bool:
    """Instrumentation hook for ``corrupt`` rules (plan-cache hits)."""
    return _REGISTRY.take_corruption(site)


def refresh_from_env() -> None:
    """(Re)load the ``REPRO_FAULTS`` environment spec into the registry."""
    _REGISTRY.refresh_from_env()


def stats() -> Dict[str, int]:
    """Fired-fault counts per site."""
    return _REGISTRY.stats()


@contextmanager
def fault_injection(
    site: str,
    action: str = "error",
    *,
    delay_s: float = 0.0,
    times: int | None = 1,
    every: int | None = None,
) -> Iterator[FaultRule]:
    """Scoped fault: armed inside the ``with``, disarmed after."""
    rule = inject(
        site, action, delay_s=delay_s, times=times, every=every
    )
    try:
        yield rule
    finally:
        remove(rule)


# Arm any faults the environment requested as soon as the serving stack
# is imported; runtimes re-check at construction (the spec may change
# between imports in long-lived test processes).
refresh_from_env()
