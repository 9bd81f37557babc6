"""RequestScheduler: FIFO dispatch, backpressure, deadlines, shutdown."""

import threading
import time

import pytest

from repro.serve import (
    BackpressureError,
    RequestScheduler,
    SchedulerClosed,
    ServeRequest,
)


def _request(key="k", payload=None, deadline=None):
    return ServeRequest(key=key, payload=payload or {}, deadline=deadline)


def _echo_handler(request):
    request.handle.set_result((request.key, request.payload))


class TestBasics:
    def test_submit_and_result(self):
        scheduler = RequestScheduler(_echo_handler, workers=1)
        try:
            handle = scheduler.submit(_request(payload={"n": 1}))
            key, payload = handle.result(timeout=5.0)
            assert key == "k"
            assert payload == {"n": 1}
        finally:
            scheduler.close()

    def test_handler_exception_fails_request(self):
        def explode(request):
            raise RuntimeError("handler bug")

        scheduler = RequestScheduler(explode, workers=1)
        try:
            handle = scheduler.submit(_request())
            with pytest.raises(RuntimeError, match="handler bug"):
                handle.result(timeout=5.0)
        finally:
            scheduler.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RequestScheduler(_echo_handler, workers=0)
        with pytest.raises(ValueError):
            RequestScheduler(_echo_handler, max_queue=0)


class TestDispatch:
    def test_dispatch_order_is_submit_order(self):
        """A younger request never overtakes an older one of another
        key (an older deadline could expire behind it)."""
        order = []
        gate = threading.Event()

        def handler(request):
            gate.wait(5.0)  # hold the one worker so the queue fills
            order.append((request.key, request.payload["n"]))
            request.handle.set_result(None)

        scheduler = RequestScheduler(handler, workers=1)
        try:
            handles = [
                scheduler.submit(_request(key=f"k{i % 2}", payload={"n": i}))
                for i in range(4)
            ]
            gate.set()
            for handle in handles:
                handle.result(timeout=5.0)
        finally:
            scheduler.close()
        assert order == [("k0", 0), ("k1", 1), ("k0", 2), ("k1", 3)]

    def test_same_key_requests_spread_over_idle_workers(self):
        """Two queued same-key requests land on two workers: the
        handler meets itself on a barrier, which one worker running
        them back to back could never pass."""
        gate = threading.Event()
        meet = threading.Barrier(2, timeout=5.0)

        def handler(request):
            if request.key == "hold":
                gate.wait(5.0)
            else:
                meet.wait()
            request.handle.set_result(None)

        scheduler = RequestScheduler(handler, workers=2)
        try:
            held = [scheduler.submit(_request(key="hold")) for _ in range(2)]
            deadline = time.monotonic() + 5.0
            while scheduler.inflight < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert scheduler.inflight == 2  # both workers on the gate
            pair = [scheduler.submit(_request(key="same")) for _ in range(2)]
            gate.set()
            for handle in held + pair:
                handle.result(timeout=10.0)
        finally:
            gate.set()
            scheduler.close()


class TestBackpressure:
    def test_nonblocking_submit_raises_when_full(self):
        gate = threading.Event()

        def handler(request):
            gate.wait(5.0)
            request.handle.set_result(None)

        scheduler = RequestScheduler(handler, workers=1, max_queue=2)
        try:
            scheduler.submit(_request())  # taken by the worker
            time.sleep(0.05)
            scheduler.submit(_request(), block=False)
            scheduler.submit(_request(), block=False)
            with pytest.raises(BackpressureError):
                scheduler.submit(_request(), block=False)
        finally:
            gate.set()
            scheduler.close()

    def test_blocking_submit_times_out(self):
        gate = threading.Event()

        def handler(request):
            gate.wait(5.0)
            request.handle.set_result(None)

        scheduler = RequestScheduler(handler, workers=1, max_queue=1)
        try:
            scheduler.submit(_request())
            time.sleep(0.05)
            scheduler.submit(_request(), block=False)
            with pytest.raises(BackpressureError):
                scheduler.submit(_request(), timeout=0.05)
        finally:
            gate.set()
            scheduler.close()


class TestLifecycle:
    def test_submit_after_close_raises(self):
        scheduler = RequestScheduler(_echo_handler, workers=1)
        scheduler.close()
        with pytest.raises(SchedulerClosed):
            scheduler.submit(_request())

    def test_close_drains_queued_work(self):
        scheduler = RequestScheduler(_echo_handler, workers=2)
        handles = [
            scheduler.submit(_request(payload={"n": i})) for i in range(20)
        ]
        scheduler.close(drain=True)
        for handle in handles:
            assert handle.result(timeout=1.0) is not None

    def test_hard_close_fails_pending(self):
        gate = threading.Event()

        def handler(request):
            gate.wait(5.0)
            request.handle.set_result(None)

        scheduler = RequestScheduler(handler, workers=1, max_queue=8)
        taken = scheduler.submit(_request())
        time.sleep(0.05)
        queued = scheduler.submit(_request(key="other"))
        scheduler.close(drain=False)
        gate.set()
        with pytest.raises(SchedulerClosed):
            queued.result(timeout=5.0)
        taken.result(timeout=5.0)  # in-flight work still completes

    def test_drain_returns_true_when_idle(self):
        scheduler = RequestScheduler(_echo_handler, workers=1)
        try:
            assert scheduler.drain(timeout=1.0)
        finally:
            scheduler.close()
