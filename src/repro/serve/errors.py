"""Typed exception hierarchy of the serving layer.

Every failure the serving stack can hand back to a caller derives from
:class:`ServeError`, so a client distinguishes *what went wrong* by
type instead of parsing ``RuntimeError`` strings:

* :class:`RuntimeClosed` — the runtime (or its scheduler) stopped
  accepting work; :class:`SchedulerClosed` is its scheduler-level
  refinement, kept for backward compatibility;
* :class:`QueueFull` — the bounded request queue stayed full
  (:data:`BackpressureError` is the historical alias);
* :class:`DeadlineExceeded` — a request's latency budget expired
  (still a :class:`TimeoutError`, so generic timeout handling works);
  :class:`StageTimeout` narrows it to one pipeline stage exceeding its
  configured per-stage budget;
* :class:`PlanBuildError` — fusing/compiling a plan failed; carries
  the failing ``stage`` and ``engine`` so the resilience layer can
  route the retry down the degradation ladder.

:class:`ServeError` deliberately subclasses :class:`RuntimeError`:
every exception here used to *be* a bare ``RuntimeError``, and callers
that caught that continue to work.
"""

from __future__ import annotations

__all__ = [
    "BackpressureError",
    "DeadlineExceeded",
    "PlanBuildError",
    "QueueFull",
    "RuntimeClosed",
    "SchedulerClosed",
    "ServeError",
    "StageTimeout",
]


class ServeError(RuntimeError):
    """Base class of every serving-layer failure."""


class RuntimeClosed(ServeError):
    """Work was submitted to a runtime that stopped accepting it."""


class SchedulerClosed(RuntimeClosed):
    """Submission after scheduler shutdown, or a request dropped by a
    hard close."""


class QueueFull(ServeError):
    """The bounded queue is full and the caller declined to wait."""


#: Historical name of :class:`QueueFull`; existing callers catch this.
BackpressureError = QueueFull


class DeadlineExceeded(ServeError, TimeoutError):
    """The request's latency budget expired before completion."""


class StageTimeout(DeadlineExceeded):
    """One pipeline stage exceeded its configured per-stage budget.

    ``stage`` names the stage (``fuse`` / ``plan`` / ``compile`` /
    ``execute``); ``timeout_s`` is the budget that was exceeded.
    """

    def __init__(self, stage: str, timeout_s: float):
        super().__init__(f"stage {stage!r} exceeded its {timeout_s:g}s budget")
        self.stage = stage
        self.timeout_s = timeout_s


class PlanBuildError(ServeError):
    """Fusing or compiling a plan failed.

    ``stage`` is the stage that failed (``fuse`` / ``plan`` /
    ``compile`` / ``verify``) and ``engine`` the execution engine the
    plan was being built for; the original failure is chained as
    ``__cause__``.
    """

    def __init__(self, stage: str, engine: str, message: str):
        super().__init__(message)
        self.stage = stage
        self.engine = engine
