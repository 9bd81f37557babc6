"""The resilience layer under deterministic fault injection.

Every degradation path — bounded retry, circuit breaker with half-open
probing, per-stage timeouts, plan quarantine, the native → tape →
recursive ladder — exercised end to end through the serving runtime
with faults armed at named sites.  The availability contract under
test: a request never observes an error any rung of the ladder could
have absorbed, and every served answer is bit-identical to the
fault-free tape reference.
"""

import numpy as np
import pytest

from repro.apps import APPLICATIONS
from repro.serve import (
    BreakerConfig,
    CircuitBreaker,
    DEGRADATION_LADDER,
    FaultInjected,
    FaultRule,
    ResiliencePolicy,
    RetryPolicy,
    ServingRuntime,
    StageTimeouts,
    fault_injection,
)
from repro.serve import faultinject
from repro.apps import request_inputs
from repro.serve.resilience import BreakerBoard, ladder_from

WIDTH, HEIGHT = 32, 24


@pytest.fixture(autouse=True)
def _clean_faults():
    faultinject.clear()
    yield
    faultinject.clear()


class FakeClock:
    """An injectable monotonic clock the breaker tests advance by hand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _policy(**overrides):
    defaults = dict(
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0),
        breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=5.0),
        sleep=lambda _s: None,
    )
    defaults.update(overrides)
    return ResiliencePolicy(**defaults)


def _serve_one(runtime, name="Sobel", seed=0):
    inputs = request_inputs(APPLICATIONS[name], WIDTH, HEIGHT, seed=seed)
    return runtime.execute(name, inputs)


class TestRetry:
    def test_execute_error_retries_then_succeeds(self):
        with ServingRuntime(resilience=_policy()) as runtime:
            with fault_injection("execute", "error", times=1):
                env = _serve_one(runtime)
            snapshot = runtime.metrics_snapshot()
        assert "magnitude" in env
        assert snapshot["counters"]["request_retries"] == 1
        assert snapshot["counters"]["requests_completed"] == 1
        assert "requests_failed" not in snapshot["counters"]

    def test_execute_error_quarantines_the_plan(self):
        with ServingRuntime(resilience=_policy()) as runtime:
            _serve_one(runtime)  # warm the cache
            with fault_injection("execute", "error", times=1):
                _serve_one(runtime)
            snapshot = runtime.metrics_snapshot()
        assert snapshot["counters"]["plans_quarantined"] == 1
        assert snapshot["plan_cache"]["quarantined"] == 1

    def test_retries_exhausted_surfaces_the_fault(self):
        policy = _policy(retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0))
        with ServingRuntime(resilience=policy) as runtime:
            with fault_injection("execute", "error", times=None):
                with pytest.raises(FaultInjected):
                    _serve_one(runtime)
            snapshot = runtime.metrics_snapshot()
        assert snapshot["counters"]["requests_failed"] == 1

    def test_backoff_is_deterministic_and_bounded(self):
        retry = RetryPolicy(
            max_attempts=5,
            backoff_base_s=0.01,
            backoff_multiplier=2.0,
            backoff_max_s=0.025,
            jitter=0.5,
        )
        first = [retry.delay_s(attempt, token=42) for attempt in range(4)]
        second = [retry.delay_s(attempt, token=42) for attempt in range(4)]
        assert first == second  # same token, same schedule
        assert all(d <= 0.025 * 1.5 for d in first)
        assert all(d >= 0.0 for d in first)
        assert first != [
            retry.delay_s(attempt, token=43) for attempt in range(4)
        ]


class TestStageTimeouts:
    def test_slow_execute_trips_the_stage_budget(self):
        policy = _policy(timeouts=StageTimeouts(execute_s=0.05))
        with ServingRuntime(resilience=policy) as runtime:
            with fault_injection("execute", "slow", delay_s=0.5, times=1):
                env = _serve_one(runtime)
            snapshot = runtime.metrics_snapshot()
        assert "magnitude" in env  # the retry served it
        assert snapshot["counters"]["stage_timeout_execute"] == 1

    def test_no_budget_means_no_side_pool(self):
        with ServingRuntime(resilience=_policy()) as runtime:
            assert runtime._timeout_pool is None


class TestCircuitBreaker:
    def test_unit_trip_and_half_open_cycle(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=2, reset_timeout_s=10.0),
            clock=clock,
        )
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()  # open: reject
        clock.advance(10.5)
        assert breaker.allow()  # half-open: one probe through
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # a second concurrent probe is not
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.trips == 1

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=1, reset_timeout_s=5.0),
            clock=clock,
        )
        breaker.record_failure()
        clock.advance(6.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()  # a fresh full open window

    def test_board_routes_down_the_ladder(self):
        clock = FakeClock()
        board = BreakerBoard(
            BreakerConfig(failure_threshold=1, reset_timeout_s=5.0),
            clock=clock,
        )
        ladder = ("native", "tape", "recursive")
        assert board.engine_for("pipe", ladder) == "native"
        board.record_failure("pipe", "native")
        assert board.engine_for("pipe", ladder) == "tape"
        board.record_failure("pipe", "tape")
        assert board.engine_for("pipe", ladder) == "recursive"
        clock.advance(6.0)
        assert board.engine_for("pipe", ladder) == "native"  # probe

    def test_runtime_breaker_trips_and_recovers(self):
        clock = FakeClock()
        policy = _policy(
            breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=5.0),
            clock=clock,
        )
        if not _native_available():
            pytest.skip("no C compiler on PATH")
        with ServingRuntime(engine="native", resilience=policy) as runtime:
            with fault_injection("native.compile", "error", times=2):
                _serve_one(runtime, seed=0)  # failure 1/2: step down
                _serve_one(runtime, seed=1)  # failure 2/2: breaker trips
            mid = runtime.metrics_snapshot()["resilience"]["breakers"]
            assert any(
                state["state"] == "open" for state in mid.values()
            ), mid
            # While open, requests route straight to tape: no native
            # compile attempts, still no errors.
            _serve_one(runtime, seed=2)
            clock.advance(6.0)  # reset window: half-open probe recompiles
            _serve_one(runtime, seed=3)
            snapshot = runtime.metrics_snapshot()
        breakers = snapshot["resilience"]["breakers"]
        assert all(
            state["state"] == "closed" for state in breakers.values()
        ), breakers
        counters = snapshot["counters"]
        assert "requests_failed" not in counters
        assert counters["degraded_to_tape"] >= 2
        assert counters["engine_native_executions"] >= 1
        assert snapshot["states"]["breaker_native"]["transitions"] >= 2


def _native_available():
    from repro.backend.native_exec import native_available

    return native_available()


class TestQuarantine:
    def test_corrupt_cache_hit_rebuilds_the_plan(self):
        with ServingRuntime(resilience=_policy()) as runtime:
            first = _serve_one(runtime)
            with fault_injection("cache.hit", "corrupt", times=1):
                second = _serve_one(runtime)
            snapshot = runtime.metrics_snapshot()
        assert snapshot["counters"]["plans_quarantined"] == 1
        assert snapshot["plan_cache"]["quarantined"] == 1
        np.testing.assert_array_equal(
            first["magnitude"], second["magnitude"]
        )


class TestDegradationLadder:
    def test_ladder_from_each_rung(self):
        assert ladder_from("native") == ("native", "tape", "recursive")
        assert ladder_from("tape") == ("tape", "recursive")
        assert ladder_from("recursive") == ("recursive",)
        assert DEGRADATION_LADDER == ("native", "tape", "recursive")

    def test_native_failures_downgrade_bit_identically_all_apps(self):
        """The tentpole acceptance: every native compile fails, every
        request still completes, every answer matches the fault-free
        tape reference bit for bit."""
        if not _native_available():
            pytest.skip("no C compiler on PATH")
        names = sorted(APPLICATIONS)
        arrays = {
            name: request_inputs(APPLICATIONS[name], WIDTH, HEIGHT, seed=7)
            for name in names
        }
        with ServingRuntime(engine="tape") as reference_runtime:
            references = {
                name: reference_runtime.execute(name, arrays[name])
                for name in names
            }
        policy = _policy(
            breaker=BreakerConfig(failure_threshold=2, reset_timeout_s=60.0)
        )
        with ServingRuntime(engine="native", resilience=policy) as runtime:
            with fault_injection("native.compile", "error", times=None):
                served = {
                    name: runtime.execute(name, arrays[name])
                    for name in names
                }
            snapshot = runtime.metrics_snapshot()
        counters = snapshot["counters"]
        assert "requests_failed" not in counters
        assert counters["requests_completed"] == len(names)
        assert counters["degraded_to_tape"] >= len(names)
        assert "request_retries" in counters
        assert "breakers" in snapshot["resilience"]
        for name in names:
            for image, expected in references[name].items():
                np.testing.assert_array_equal(
                    served[name][image], expected,
                    err_msg=f"{name}/{image} diverged on downgrade",
                )

    def test_recursive_rung_survives_tape_compiler_failure(self):
        """Even the tape compiler failing leaves the recursive walk."""
        with ServingRuntime(engine="tape", resilience=_policy()) as runtime:
            with fault_injection("plan.compile", "error", times=None):
                env = _serve_one(runtime)
            snapshot = runtime.metrics_snapshot()
        assert "magnitude" in env
        counters = snapshot["counters"]
        assert counters["degraded_to_recursive"] >= 1
        assert "requests_failed" not in counters

    def test_degradation_disabled_raises_the_build_error(self):
        policy = ResiliencePolicy.disabled()
        assert policy.retry.max_attempts == 1
        assert not policy.degradation and not policy.quarantine
        with ServingRuntime(engine="tape", resilience=policy) as runtime:
            with fault_injection("plan.compile", "error", times=None):
                with pytest.raises(Exception):
                    _serve_one(runtime)


class TestFaultInjection:
    def test_parse_spec_grammar(self):
        rules = faultinject.parse_spec(
            "native.compile:error, execute:slow:0.2*3, cache.hit:corrupt@10"
        )
        assert [r.site for r in rules] == [
            "native.compile", "execute", "cache.hit",
        ]
        assert rules[0].times is None and rules[0].every is None
        assert rules[1].action == "slow"
        assert rules[1].delay_s == pytest.approx(0.2)
        assert rules[1].times == 3
        assert rules[2].every == 10

    @pytest.mark.parametrize("spec", [
        "nope:error",            # unknown site
        "execute:explode",       # unknown action
        "execute:slow",          # slow without a delay
        "execute",               # missing action
        "execute:error@zero",    # malformed rate
    ])
    def test_malformed_specs_raise_envknoberror(self, spec):
        from repro.envknobs import EnvKnobError

        with pytest.raises(EnvKnobError):
            faultinject.parse_spec(spec)

    def test_every_fires_an_exact_rate(self):
        rule = FaultRule(site="execute", times=None, every=3)
        fired = [rule.should_fire() for _ in range(12)]
        assert fired == [False, False, True] * 4

    def test_times_bounds_the_firings(self):
        rule = FaultRule(site="execute", times=2)
        assert [rule.should_fire() for _ in range(4)] == [
            True, True, False, False,
        ]
        assert rule.exhausted

    def test_env_spec_arms_the_registry(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "execute:error*1")
        faultinject.refresh_from_env()
        assert faultinject.armed()
        with pytest.raises(FaultInjected):
            faultinject.check("execute")
        faultinject.check("execute")  # exhausted: a no-op
        assert faultinject.stats() == {"execute": 1}

    def test_disarmed_check_is_free(self):
        assert not faultinject.armed()
        faultinject.check("execute")  # must not raise

    def test_fault_ledger_lands_in_metrics_snapshot(self):
        with ServingRuntime(resilience=_policy()) as runtime:
            with fault_injection("execute", "error", times=1):
                _serve_one(runtime)
            snapshot = runtime.metrics_snapshot()
        assert snapshot["resilience"]["faults"] == {"execute": 1}
        assert snapshot["resilience"]["retry"]["max_attempts"] == 3
        assert snapshot["resilience"]["ladder"][-1] == "recursive"
