"""Bounded FIFO request scheduler.

Requests enter a bounded FIFO queue; each worker thread pops the oldest
request and handles it — one request, one dispatch, in submit order, so
an idle worker always takes the next request whatever its plan.

Operational semantics, in one place:

* **Backpressure** — the queue is bounded; ``submit`` blocks until
  space frees (optionally up to a timeout) or raises
  :class:`BackpressureError` immediately with ``block=False``.
* **Deadlines** — each request may carry a latency budget; requests
  whose budget expires while queued fail with
  :class:`DeadlineExceeded` instead of wasting execution on an answer
  nobody is waiting for.
* **Graceful shutdown** — ``close(drain=True)`` stops admissions,
  lets queued work finish, then joins the workers; ``drain=False``
  fails queued requests with :class:`SchedulerClosed`.

The scheduler is execution-agnostic: a *handler* callback receives the
request and settles its :class:`ResponseHandle`.  The serving runtime
supplies the handler that looks up plans and runs tapes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional

# The exception types historically lived here; they are defined in
# :mod:`repro.serve.errors` now (as part of the typed ServeError
# hierarchy) and re-exported for compatibility.
from repro.serve.errors import (
    BackpressureError,
    DeadlineExceeded,
    SchedulerClosed,
)

__all__ = [
    "BackpressureError",
    "DeadlineExceeded",
    "RequestScheduler",
    "ResponseHandle",
    "SchedulerClosed",
    "ServeRequest",
]


class ResponseHandle:
    """A waitable, one-shot result slot for a submitted request."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None

    def set_result(self, value: Any) -> None:
        self._result = value
        self._event.set()

    def set_error(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Any:
        """Block for the outcome; re-raises the request's error."""
        if not self._event.wait(timeout):
            raise TimeoutError("request not completed within timeout")
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: float | None = None) -> Optional[BaseException]:
        if not self._event.wait(timeout):
            raise TimeoutError("request not completed within timeout")
        return self._error


@dataclass
class ServeRequest:
    """One queued unit of work.

    ``key`` and ``payload`` are opaque to the scheduler (the runtime
    stores the request's plan-cache key, and the bound arrays,
    parameters, and plan builder there).  ``deadline`` is
    an absolute ``time.monotonic()`` instant, or ``None`` for
    best-effort requests.
    """

    key: Any
    payload: Dict[str, Any]
    deadline: Optional[float] = None
    handle: ResponseHandle = field(default_factory=ResponseHandle)
    enqueued_at: float = field(default_factory=time.monotonic)

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline

    def queue_wait_s(self, now: float | None = None) -> float:
        return (now if now is not None else time.monotonic()) - self.enqueued_at


Handler = Callable[[ServeRequest], None]


class RequestScheduler:
    """Bounded FIFO queue + worker pool, one request per dispatch."""

    def __init__(
        self,
        handler: Handler,
        workers: int = 2,
        max_queue: int = 128,
        name: str = "repro-serve",
    ):
        if workers < 1:
            raise ValueError("scheduler needs at least one worker")
        if max_queue < 1:
            raise ValueError("queue bound must be >= 1")
        self._handler = handler
        self.workers = workers
        self.max_queue = max_queue
        self._pending: Deque[ServeRequest] = deque()
        self._cond = threading.Condition()
        self._accepting = True
        self._stop = False
        self._inflight = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"{name}-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        request: ServeRequest,
        block: bool = True,
        timeout: float | None = None,
    ) -> ResponseHandle:
        """Enqueue ``request``; returns its handle.

        Raises :class:`SchedulerClosed` after shutdown began and
        :class:`BackpressureError` when the queue stays full
        (immediately with ``block=False``, after ``timeout`` seconds
        otherwise; ``timeout=None`` waits indefinitely).
        """
        limit = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if not self._accepting:
                    raise SchedulerClosed("scheduler is shut down")
                if len(self._pending) < self.max_queue:
                    break
                if not block:
                    raise BackpressureError(
                        f"queue full ({self.max_queue} pending)"
                    )
                remaining = None if limit is None else limit - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise BackpressureError(
                        f"queue full ({self.max_queue} pending) "
                        f"after {timeout:g}s"
                    )
                self._cond.wait(remaining)
            self._pending.append(request)
            self._cond.notify_all()
        return request.handle

    # -- worker loop -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stop:
                    self._cond.wait()
                if not self._pending and self._stop:
                    return
                request = self._pending.popleft()
                self._inflight += 1
                self._cond.notify_all()
            try:
                self._handler(request)
            except BaseException as err:  # handler bug: fail the request
                if not request.handle.done():
                    request.handle.set_error(err)
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    # -- lifecycle ---------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def drain(self, timeout: float | None = None) -> bool:
        """Block until queue and in-flight work are empty; True on success."""
        limit = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._pending or self._inflight:
                remaining = None if limit is None else limit - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop admissions, optionally drain, then join the workers.

        With ``drain=False`` (or on drain timeout) still-queued
        requests fail with :class:`SchedulerClosed` rather than hanging
        their waiters forever.
        """
        with self._cond:
            self._accepting = False
            self._cond.notify_all()
        if drain:
            self.drain(timeout)
        with self._cond:
            self._stop = True
            while self._pending:
                request = self._pending.popleft()
                request.handle.set_error(
                    SchedulerClosed("scheduler shut down before execution")
                )
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
