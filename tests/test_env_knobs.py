"""Environment-knob hardening: every ``REPRO_*`` variable rejects bad
values with a :class:`ValueError` naming the variable and what it
expected — at the parsing layer and through the public entry points
that consume it."""

import numpy as np
import pytest

from helpers import chain_pipeline, random_image

from repro.backend.cpu_exec import CACHE_ENV, _cache_dir
from repro.api import run
from repro.backend.engines import ENGINE_ENV
from repro.backend.plan import WORKERS_ENV, resolve_workers
from repro.envknobs import (
    VALIDATE_ENV,
    VALIDATE_MODES,
    EnvKnobError,
    choice_env,
    dir_env,
    int_env,
    raw_env,
    size_env,
    validate_mode,
)


class TestHelpers:
    def test_raw_env_blank_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "   ")
        assert raw_env("REPRO_TEST_KNOB") is None
        monkeypatch.delenv("REPRO_TEST_KNOB")
        assert raw_env("REPRO_TEST_KNOB") is None

    def test_int_env_parses_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", " 7 ")
        assert int_env("REPRO_TEST_KNOB", default=1) == 7
        monkeypatch.delenv("REPRO_TEST_KNOB")
        assert int_env("REPRO_TEST_KNOB", default=3) == 3

    def test_int_env_rejects_garbage_naming_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "many")
        with pytest.raises(EnvKnobError, match="REPRO_TEST_KNOB"):
            int_env("REPRO_TEST_KNOB", default=1)

    def test_int_env_enforces_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        with pytest.raises(EnvKnobError, match=">= 1"):
            int_env("REPRO_TEST_KNOB", default=1, minimum=1)

    def test_choice_env_lists_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "warp")
        with pytest.raises(EnvKnobError) as err:
            choice_env("REPRO_TEST_KNOB", ("tape", "recursive"), "tape")
        assert "REPRO_TEST_KNOB" in str(err.value)
        assert "tape" in str(err.value)

    def test_dir_env_rejects_file_path(self, monkeypatch, tmp_path):
        afile = tmp_path / "not-a-dir"
        afile.write_text("")
        monkeypatch.setenv("REPRO_TEST_KNOB", str(afile))
        with pytest.raises(EnvKnobError, match="REPRO_TEST_KNOB"):
            dir_env("REPRO_TEST_KNOB", tmp_path)

    def test_env_knob_error_is_value_error(self):
        assert issubclass(EnvKnobError, ValueError)

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("1048576", 1048576),
            ("512k", 512 * 1024),
            ("512K", 512 * 1024),
            ("2M", 2 * 1024**2),
            ("1g", 1024**3),
            ("0", 0),
        ],
    )
    def test_size_env_parses_suffixes(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        assert size_env("REPRO_TEST_KNOB", default=None) == expected

    def test_size_env_defaults_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert size_env("REPRO_TEST_KNOB", default=None) is None
        assert size_env("REPRO_TEST_KNOB", default=4096) == 4096

    @pytest.mark.parametrize("raw", ["many", "1T", "12kb", "-1", "-2M"])
    def test_size_env_rejects_garbage_naming_variable(
        self, monkeypatch, raw
    ):
        monkeypatch.setenv("REPRO_TEST_KNOB", raw)
        with pytest.raises(EnvKnobError, match="REPRO_TEST_KNOB"):
            size_env("REPRO_TEST_KNOB", default=None)


class TestWorkersKnob:
    def test_invalid_workers_raises_value_error(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            resolve_workers()

    def test_explicit_argument_bypasses_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        assert resolve_workers(3) == 3

    def test_valid_workers_parsed(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers() == 4

    def test_non_positive_workers_clamped(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "-2")
        assert resolve_workers() == 1


class TestEngineKnob:
    def test_invalid_engine_raises_value_error(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "warp-drive")
        graph = chain_pipeline(("p",), 6, 6).build()
        with pytest.raises(ValueError, match=ENGINE_ENV):
            run(graph, {"img0": random_image(6, 6)})

    def test_valid_engine_from_environment(self, monkeypatch):
        graph = chain_pipeline(("p",), 6, 6).build()
        data = random_image(6, 6)
        monkeypatch.setenv(ENGINE_ENV, "recursive")
        via_env = run(graph, {"img0": data})
        monkeypatch.delenv(ENGINE_ENV)
        default = run(graph, {"img0": data})
        np.testing.assert_array_equal(via_env["img1"], default["img1"])


class TestNativeKnobs:
    def test_native_threads_default_and_parse(self, monkeypatch):
        from repro.backend.native_exec import (
            NATIVE_THREADS_ENV,
            available_cores,
            resolve_native_threads,
        )

        monkeypatch.delenv(NATIVE_THREADS_ENV, raising=False)
        # Unset is the caller's share of the cores (it was 1 before the
        # thread budget; tests/backend/test_native_threads.py has the rest).
        assert resolve_native_threads() == available_cores()
        monkeypatch.setenv(NATIVE_THREADS_ENV, "6")
        assert resolve_native_threads() == 6
        assert resolve_native_threads(2) == 2  # argument wins
        monkeypatch.setenv(NATIVE_THREADS_ENV, "-4")
        assert resolve_native_threads() == 1  # clamped like workers
        monkeypatch.setenv(NATIVE_THREADS_ENV, "plenty")
        with pytest.raises(EnvKnobError, match=NATIVE_THREADS_ENV):
            resolve_native_threads()

    def test_cc_cache_max_flows_through_size_env(self, monkeypatch):
        from repro.backend.cpu_exec import CACHE_MAX_ENV

        monkeypatch.setenv(CACHE_MAX_ENV, "64M")
        assert size_env(CACHE_MAX_ENV, default=None) == 64 * 1024**2


class TestValidateKnob:
    def test_default_is_standard(self, monkeypatch):
        monkeypatch.delenv(VALIDATE_ENV, raising=False)
        assert validate_mode() == "standard"

    @pytest.mark.parametrize("mode", VALIDATE_MODES)
    def test_every_documented_mode_parses(self, monkeypatch, mode):
        monkeypatch.setenv(VALIDATE_ENV, mode)
        assert validate_mode() == mode

    def test_whitespace_and_case_are_tolerated(self, monkeypatch):
        monkeypatch.setenv(VALIDATE_ENV, "  STRICT ")
        assert validate_mode() == "strict"

    def test_invalid_mode_names_variable_and_choices(self, monkeypatch):
        monkeypatch.setenv(VALIDATE_ENV, "paranoid")
        with pytest.raises(EnvKnobError) as err:
            validate_mode()
        message = str(err.value)
        assert VALIDATE_ENV in message
        for mode in VALIDATE_MODES:
            assert mode in message

    def test_strict_mode_verifies_fresh_plans(self, monkeypatch):
        # End to end: a fresh plan build under strict runs the verifier
        # (and therefore succeeds only because the plan is sound).
        from repro.backend.plan import clear_plan_caches, plan_for_partition
        from repro.eval.runner import partition_for
        from repro.graph.partition import Partition
        from repro.model.hardware import GTX680

        monkeypatch.setenv(VALIDATE_ENV, "strict")
        graph = chain_pipeline(("p", "l"), 8, 8).build()
        clear_plan_caches()
        plan = plan_for_partition(graph, Partition.singletons(graph))
        assert plan.plans
        clear_plan_caches()


class TestCacheDirKnob:
    def test_invalid_cache_path_raises_value_error(self, monkeypatch, tmp_path):
        afile = tmp_path / "occupied"
        afile.write_text("")
        monkeypatch.setenv(CACHE_ENV, str(afile))
        with pytest.raises(ValueError, match=CACHE_ENV):
            _cache_dir()

    def test_cache_dir_from_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cc"))
        assert _cache_dir() == tmp_path / "cc"


class TestFaultsKnob:
    """``REPRO_FAULTS``: the deterministic fault-injection spec."""

    def test_unset_yields_none(self, monkeypatch):
        from repro.envknobs import FAULTS_ENV, faults_env

        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert faults_env() is None
        monkeypatch.setenv(FAULTS_ENV, "   ")
        assert faults_env() is None

    def test_spec_flows_into_the_registry(self, monkeypatch):
        from repro.envknobs import FAULTS_ENV
        from repro.serve import faultinject

        monkeypatch.setenv(FAULTS_ENV, "plan.compile:error*2")
        faultinject.refresh_from_env()
        try:
            assert faultinject.armed()
        finally:
            faultinject.clear()
        assert not faultinject.armed()

    def test_malformed_spec_names_the_variable(self, monkeypatch):
        from repro.envknobs import FAULTS_ENV
        from repro.serve import faultinject

        monkeypatch.setenv(FAULTS_ENV, "plan.compile:frobnicate")
        try:
            with pytest.raises(EnvKnobError, match=FAULTS_ENV):
                faultinject.refresh_from_env()
        finally:
            monkeypatch.delenv(FAULTS_ENV)
            faultinject.clear()

    def test_runtime_arms_env_faults_at_construction(self, monkeypatch):
        from repro.envknobs import FAULTS_ENV
        from repro.serve import ServingRuntime, faultinject

        monkeypatch.setenv(FAULTS_ENV, "execute:error*1")
        try:
            with ServingRuntime() as runtime:
                env = runtime.execute(
                    "Sobel", {"input": random_image(24, 16, seed=0)}
                )
                snapshot = runtime.metrics_snapshot()
            assert "magnitude" in env
            assert snapshot["resilience"]["faults"] == {"execute": 1}
            assert snapshot["counters"]["request_retries"] == 1
        finally:
            faultinject.clear()


class TestValidateOverride:
    def test_override_scopes_and_restores(self, monkeypatch):
        from repro.envknobs import validate_override

        monkeypatch.setenv(VALIDATE_ENV, "off")
        with validate_override("strict"):
            assert validate_mode() == "strict"
        assert validate_mode() == "off"

    def test_none_leaves_environment_in_force(self, monkeypatch):
        from repro.envknobs import validate_override

        monkeypatch.setenv(VALIDATE_ENV, "strict")
        with validate_override(None):
            assert validate_mode() == "strict"

    def test_none_nested_leaves_the_enclosing_scope_in_force(self, monkeypatch):
        """``run(..., ExecutionOptions(validate=None))`` inside a
        standard scope runs at standard, not at the environment's."""
        from repro.envknobs import validate_override

        monkeypatch.setenv(VALIDATE_ENV, "strict")
        with validate_override("standard"):
            with validate_override(None):
                assert validate_mode() == "standard"
            assert validate_mode() == "standard"

    def test_invalid_override_rejected(self):
        from repro.envknobs import validate_override

        with pytest.raises(EnvKnobError, match="paranoid"):
            with validate_override("paranoid"):
                pass


class TestNativeTile2DKnob:
    def test_unset_defaults_to_auto(self, monkeypatch):
        from repro.envknobs import NATIVE_TILE2D_ENV, native_tile2d_env

        monkeypatch.delenv(NATIVE_TILE2D_ENV, raising=False)
        assert native_tile2d_env() == "auto"
        monkeypatch.setenv(NATIVE_TILE2D_ENV, "   ")
        assert native_tile2d_env() == "auto"

    def test_auto_parses_case_insensitively(self, monkeypatch):
        from repro.envknobs import NATIVE_TILE2D_ENV, native_tile2d_env

        for raw in ("auto", "AUTO", "Auto"):
            monkeypatch.setenv(NATIVE_TILE2D_ENV, raw)
            assert native_tile2d_env() == "auto"

    def test_explicit_shape_parses(self, monkeypatch):
        from repro.envknobs import NATIVE_TILE2D_ENV, native_tile2d_env

        monkeypatch.setenv(NATIVE_TILE2D_ENV, "64x128")
        assert native_tile2d_env() == (64, 128)
        monkeypatch.setenv(NATIVE_TILE2D_ENV, " 8X32 ")
        assert native_tile2d_env() == (8, 32)

    @pytest.mark.parametrize(
        "raw",
        ["64", "64x", "x128", "0x32", "8x-1", "8x32x2", "tall", "8*32", "off"],
    )
    def test_garbage_names_the_variable(self, monkeypatch, raw):
        from repro.envknobs import NATIVE_TILE2D_ENV, native_tile2d_env

        monkeypatch.setenv(NATIVE_TILE2D_ENV, raw)
        with pytest.raises(EnvKnobError, match="REPRO_NATIVE_TILE2D"):
            native_tile2d_env()


class TestNativeF32Knob:
    def test_default_is_off(self, monkeypatch):
        from repro.envknobs import NATIVE_F32_ENV, native_f32_enabled

        monkeypatch.delenv(NATIVE_F32_ENV, raising=False)
        assert native_f32_enabled() is False

    def test_on_enables(self, monkeypatch):
        from repro.envknobs import NATIVE_F32_ENV, native_f32_enabled

        monkeypatch.setenv(NATIVE_F32_ENV, "on")
        assert native_f32_enabled() is True
        monkeypatch.setenv(NATIVE_F32_ENV, "off")
        assert native_f32_enabled() is False

    def test_garbage_names_the_variable(self, monkeypatch):
        from repro.envknobs import NATIVE_F32_ENV, native_f32_enabled

        monkeypatch.setenv(NATIVE_F32_ENV, "fast")
        with pytest.raises(EnvKnobError, match="REPRO_NATIVE_F32"):
            native_f32_enabled()
