"""The canonical execution API: ``repro.api.run`` and its options.

Pins the contract: ``run`` is the one way in — ``run_block`` is a
one-block request through it — every entry of the engine table computes
the same bits, and the table's order is the degradation ladder.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import ExecutionOptions, FusionSettings, run, run_block
from repro.apps import APPLICATIONS
from repro.backend import engines, native_exec
from repro.backend.numpy_exec import ExecutionError
from repro.eval.runner import partition_for
from repro.graph.partition import Partition, PartitionBlock
from repro.model.hardware import GTX680
from repro.serve import ServingRuntime, faultinject
from repro.apps import request_inputs
from repro.serve.registry import DEFAULT_APP_PARAMS
from repro.serve.resilience import DEGRADATION_LADDER, ladder_from

from helpers import chain_pipeline, random_image

WIDTH, HEIGHT = 32, 24


def _app_inputs(name, seed=0):
    return request_inputs(APPLICATIONS[name], WIDTH, HEIGHT, seed=seed)


class TestRun:
    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_fused_matches_staged_every_app(self, name):
        graph = APPLICATIONS[name].build(WIDTH, HEIGHT).build()
        inputs = _app_inputs(name)
        params = DEFAULT_APP_PARAMS.get(name)
        fused = run(graph, inputs, params)
        staged = run(graph, inputs, params,
                     options=ExecutionOptions(fuse=False))
        for image in graph.external_outputs:
            np.testing.assert_allclose(
                fused[image], staged[image], rtol=1e-8, atol=1e-8
            )

    @pytest.mark.parametrize("name", sorted(APPLICATIONS))
    def test_run_by_registered_name(self, name):
        inputs = _app_inputs(name)
        by_name = run(name, inputs)
        graph = APPLICATIONS[name].build(WIDTH, HEIGHT).build()
        by_graph = run(graph, inputs, DEFAULT_APP_PARAMS.get(name))
        assert sorted(by_name) == sorted(by_graph)
        for image, expected in by_graph.items():
            np.testing.assert_array_equal(by_name[image], expected)

    def test_recursive_engine_is_bit_identical(self):
        graph = chain_pipeline(("l", "p", "l"), width=16, height=12).build()
        inputs = {"img0": random_image(16, 12, seed=5)}
        tape = run(graph, inputs, options=ExecutionOptions(engine="tape"))
        recursive = run(
            graph, inputs, options=ExecutionOptions(engine="recursive")
        )
        for image, expected in tape.items():
            np.testing.assert_array_equal(recursive[image], expected)

    @pytest.mark.parametrize("index", range(len(engines.ENGINES)))
    def test_engine_table_is_the_ladder_and_matches_the_oracle(self, index):
        engine = engines.ENGINES[index]
        assert len(engines.ENGINES) == len(DEGRADATION_LADDER)
        assert engine.name == DEGRADATION_LADDER[index]
        assert ladder_from(engine.name) == DEGRADATION_LADDER[index:]
        if not engine.available():
            pytest.skip(f"{engine.name} engine unavailable on this host")
        graph = APPLICATIONS["Harris"].build(96, 64).build()
        inputs = request_inputs(APPLICATIONS["Harris"], 96, 64, seed=1)
        partition = partition_for(graph, GTX680, "optimized")
        oracle = engines.ORACLE.plan_partition(graph, partition, False)
        expected = oracle.execute(inputs)
        env = engine.plan_partition(graph, partition, False).execute(inputs)
        assert sorted(env) == sorted(expected)
        for image, value in expected.items():
            np.testing.assert_array_equal(env[image], value)
        block = max(partition.blocks, key=len)
        np.testing.assert_array_equal(
            run_block(
                graph, block, expected,
                options=ExecutionOptions(engine=engine.name),
            ),
            run_block(
                graph, block, expected,
                options=ExecutionOptions(engine=engines.ORACLE.name),
            ),
        )

    def test_unavailable_native_resolves_to_tape_on_every_surface(
        self, monkeypatch
    ):
        monkeypatch.setattr(native_exec, "native_available", lambda: False)
        assert engines.resolve("native").name == "tape"
        graph = APPLICATIONS["Harris"].build(WIDTH, HEIGHT).build()
        inputs = _app_inputs("Harris")
        block = PartitionBlock(graph, {"sx", "gx"})
        native = ExecutionOptions(engine="native")
        tape = ExecutionOptions(engine="tape")
        faultinject.clear()
        try:
            # Any call into the native builder would now fail loudly.
            with faultinject.fault_injection(
                "native.compile", "error", times=None
            ):
                env = run(graph, inputs, options=native)
                # The block reads ``Ix``, which only a staged run returns.
                images = run(graph, inputs, options=replace(native, fuse=False))
                fused = run_block(graph, block, images, options=native)
                with ServingRuntime(engine="native") as runtime:
                    served = runtime.execute("Harris", inputs)
                    serving = runtime.metrics_snapshot()["engine"]
        finally:
            faultinject.clear()
        assert serving == {"requested": "native", "active": "tape"}
        for image, expected in run(graph, inputs, options=tape).items():
            np.testing.assert_array_equal(env[image], expected)
            np.testing.assert_array_equal(served[image], expected)
        np.testing.assert_array_equal(
            fused, run_block(graph, block, images, options=tape)
        )

    def test_top_level_exports(self):
        import repro

        assert repro.run is run
        assert repro.ExecutionOptions is ExecutionOptions
        assert repro.run_block is run_block

    def test_explicit_partition_is_respected(self):
        graph = chain_pipeline(("l", "p", "l"), width=16, height=12).build()
        inputs = {"img0": random_image(16, 12, seed=5)}
        partition = partition_for(graph, GTX680, "optimized")
        explicit = run(
            graph, inputs, options=ExecutionOptions(partition=partition)
        )
        fused = run(graph, inputs)
        for image, expected in fused.items():
            np.testing.assert_array_equal(explicit[image], expected)

    def test_singleton_partition_equals_staged(self):
        graph = chain_pipeline(("l", "p", "l"), width=16, height=12).build()
        inputs = {"img0": random_image(16, 12, seed=5)}
        staged = run(graph, inputs, options=ExecutionOptions(fuse=False))
        singleton = run(
            graph,
            inputs,
            options=ExecutionOptions(partition=Partition.singletons(graph)),
        )
        for image, expected in staged.items():
            np.testing.assert_array_equal(singleton[image], expected)

    def test_resilience_ladder_protects_direct_execution(self):
        from repro.serve import ResiliencePolicy
        from repro.serve import faultinject

        graph = chain_pipeline(("l", "p", "l"), width=16, height=12).build()
        inputs = {"img0": random_image(16, 12, seed=5)}
        reference = run(graph, inputs)
        faultinject.clear()
        try:
            with faultinject.fault_injection(
                "plan.compile", "error", times=None
            ):
                env = run(
                    graph,
                    inputs,
                    options=ExecutionOptions(
                        engine="tape", resilience=ResiliencePolicy()
                    ),
                )
        finally:
            faultinject.clear()
        for image, expected in reference.items():
            np.testing.assert_array_equal(env[image], expected)


class TestRunBlock:
    def test_block_matches_legacy_semantics(self):
        graph = chain_pipeline(("l", "p"), width=16, height=12).build()
        block = PartitionBlock(graph, set(graph))
        inputs = {"img0": random_image(16, 12, seed=3)}
        fused = run_block(graph, block, inputs)
        assert fused.shape == (12, 16)

    def test_call_counter_forces_recursive_instrumentation(self):
        graph = chain_pipeline(("l", "p"), width=16, height=12).build()
        block = PartitionBlock(graph, set(graph))
        inputs = {"img0": random_image(16, 12, seed=3)}
        counter = {}
        run_block(graph, block, inputs, call_counter=counter)
        assert counter  # the recursive walk filled it

    def test_block_whose_member_output_leaves_it_is_rejected(self):
        graph = chain_pipeline(("l", "l", "l"), width=16, height=12).build()
        block = PartitionBlock(graph, {"k0", "k2"})  # k1 reads k0's output
        inputs = {"img0": random_image(16, 12, seed=3)}
        with pytest.raises(ExecutionError, match="no unique destination"):
            run_block(graph, block, inputs)

    @staticmethod
    def _harris_block():
        """Harris, its widest fused block, and every image it reads."""
        graph = APPLICATIONS["Harris"].build(WIDTH, HEIGHT).build()
        block = max(partition_for(graph, GTX680, "optimized"), key=len)
        staged = ExecutionOptions(fuse=False)
        return graph, block, run(graph, _app_inputs("Harris"), options=staged)

    def test_runtime_serves_the_block(self):
        graph, block, env = self._harris_block()
        expected = run_block(graph, block, env)
        with ServingRuntime(engine="tape", workers=1) as runtime:
            served = run_block(
                graph, block, env, options=ExecutionOptions(runtime=runtime)
            )
            counters = runtime.metrics_snapshot()["counters"]
        assert counters.get("requests_completed") == 1
        np.testing.assert_array_equal(served, expected)

    def test_resilience_degrades_a_faulted_native_build(self):
        from repro.serve import ResiliencePolicy

        graph, block, env = self._harris_block()
        tape = run_block(
            graph, block, env, options=ExecutionOptions(engine="tape")
        )
        options = ExecutionOptions(
            engine="native", resilience=ResiliencePolicy()
        )
        faultinject.clear()
        try:
            with faultinject.fault_injection(
                "native.compile", "error", times=None
            ):
                served = run_block(graph, block, env, options=options)
        finally:
            faultinject.clear()
        np.testing.assert_array_equal(served, tape)

    @pytest.mark.parametrize("engine", engines.ENGINE_NAMES)
    def test_global_operator_block_is_reduced(self, engine):
        from repro.apps import ALL_APPS

        graph = ALL_APPS["DoG"].build(40, 30).build()
        inputs = request_inputs(ALL_APPS["DoG"], 40, 30, seed=2)
        params = {"tau": 4.0}
        staged = run(
            graph, inputs, params,
            options=ExecutionOptions(engine="recursive", fuse=False),
        )
        peak = run_block(
            graph, PartitionBlock(graph, {"peak"}), staged, params,
            options=ExecutionOptions(engine=engine),
        )
        assert peak.shape == (1, 1)
        np.testing.assert_array_equal(peak, staged["peak"])


class TestOptionsValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ExecutionError, match="unknown execution engine"):
            ExecutionOptions(engine="cuda")

    def test_unknown_validate_level_rejected(self):
        with pytest.raises(ExecutionError, match="unknown validation level"):
            ExecutionOptions(validate="paranoid")

    def test_unknown_fusion_version_rejected(self):
        with pytest.raises(ExecutionError, match="unknown fusion version 'nonsense'"):
            FusionSettings(version="nonsense")

    def test_unknown_gpu_rejected(self):
        with pytest.raises(ExecutionError, match="unknown GPU 'H100'; known: "):
            ExecutionOptions(fusion=FusionSettings(gpu_name="H100"))

    def test_options_are_immutable(self):
        options = ExecutionOptions()
        with pytest.raises(Exception):
            options.engine = "native"

    def test_unknown_pipeline_type_rejected(self):
        with pytest.raises(ExecutionError, match="expected a KernelGraph"):
            run(42, {})

    def test_strict_validate_scopes_over_the_call(self, monkeypatch):
        from repro.envknobs import validate_mode

        graph = chain_pipeline(("l", "p"), width=16, height=12).build()
        inputs = {"img0": random_image(16, 12, seed=3)}
        monkeypatch.setenv("REPRO_VALIDATE", "off")
        assert validate_mode() == "off"
        run(graph, inputs, options=ExecutionOptions(validate="strict"))
        assert validate_mode() == "off"  # the scope did not leak


class TestRuntimeRouting:
    """A routed call is served on the runtime's own engine, workers,
    validation and resilience: an option that would be dropped raises,
    naming the field, instead of going silently unapplied."""

    @staticmethod
    def _call(runtime, **fields):
        graph = chain_pipeline(("l", "p"), width=16, height=12).build()
        inputs = {"img0": random_image(16, 12, seed=4)}
        options = ExecutionOptions(runtime=runtime, **fields)
        return run(graph, inputs, options=options)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("engine", "native"),
            ("workers", 2),
            ("validate", "strict"),
            ("resilience", "policy"),
        ],
    )
    def test_an_option_the_runtime_would_ignore_raises(self, field, value):
        from repro.serve import ResiliencePolicy

        if value == "policy":
            value = ResiliencePolicy()
        with ServingRuntime(engine="tape", workers=1) as runtime:
            with pytest.raises(ExecutionError, match=f"ExecutionOptions.{field}"):
                self._call(runtime, **{field: value})
            with pytest.raises(ExecutionError, match=f"ExecutionOptions.{field}"):
                run("Sobel", _app_inputs("Sobel"), options=ExecutionOptions(
                    runtime=runtime, **{field: value}
                ))
            assert runtime.metrics_snapshot()["counters"].get(
                "requests_completed", 0
            ) == 0

    def test_a_runtime_that_is_not_a_serving_runtime_is_refused(self):
        refused = "ExecutionOptions.runtime must be a ServingRuntime, not a object"
        with pytest.raises(ExecutionError, match=refused):
            self._call(object())
        with pytest.raises(ExecutionError, match=refused):
            run("Sobel", _app_inputs("Sobel"), options=ExecutionOptions(
                runtime=object()
            ))

    def test_the_runtime_engine_by_name_is_accepted(self):
        direct = self._call(None)
        with ServingRuntime(engine="tape", workers=1) as runtime:
            routed = self._call(runtime, engine="tape")
        assert sorted(routed) == sorted(direct)
        for name, array in direct.items():
            np.testing.assert_array_equal(routed[name], array)
