"""The tape/plan verifier: every invariant has a test that violates it,
and strict mode wires verification into the plan compiler and the
serving plan cache."""

import numpy as np
import pytest

from helpers import random_image

from repro.analysis.verifier import (
    PlanVerificationError,
    enforce,
    verify_block_plan,
    verify_partition_plan,
    verify_tape,
)
from repro.apps import APPLICATIONS
from repro.backend.numpy_exec import block_schedule
from repro.backend.plan import (
    BlockPlan,
    Instr,
    clear_plan_caches,
    compile_kernel,
    plan_for_partition,
)
from repro.envknobs import validate_mode
from repro.eval.runner import partition_for
from repro.graph.partition import Partition
from repro.model.hardware import GTX680


def codes(diagnostics):
    return [d.code for d in diagnostics]


def _graph(app="Sobel", width=40, height=28):
    return APPLICATIONS[app].build(width, height).build()


def _partition_plan(app="Sobel", version="optimized"):
    graph = _graph(app)
    partition = partition_for(graph, GTX680, version)
    return graph, partition, plan_for_partition(graph, partition)


def _mutant(plan, tape=None, root=None):
    """A copy of ``plan`` with a replaced tape and/or root."""
    return BlockPlan(
        plan.destination,
        list(tape if tape is not None else plan.tape),
        plan.root if root is None else root,
        plan.store,
        plan.apply_reduction,
        plan.stats,
        plan.naive_borders,
        plan.kind,
    )


class TestVerifyTape:
    def test_compiled_kernels_are_clean(self):
        graph = _graph("Harris")
        for name in graph.kernel_names:
            plan = compile_kernel(graph.kernel(name))
            assert verify_tape(plan.tape, plan.root) == []

    def test_empty_tape_is_tape006(self):
        assert codes(verify_tape([], 0)) == ["TAPE006"]

    def test_forward_reference_is_tape001(self):
        tape = [Instr("un", (1,), ("neg",)), Instr("const", (), (1.0,))]
        assert "TAPE001" in codes(verify_tape(tape, 0))

    def test_use_after_release_is_tape002(self):
        tape = [Instr("const", (), (1.0,)), Instr("un", (0,), ("neg",))]
        found = verify_tape(tape, 1, release=[(0,), ()])
        assert "TAPE002" in codes(found)

    def test_release_length_mismatch_is_tape002(self):
        tape = [Instr("const", (), (1.0,))]
        assert "TAPE002" in codes(verify_tape(tape, 0, release=[(), ()]))

    def test_unknown_opcode_is_tape003(self):
        tape = [Instr("frobnicate", (), ())]
        assert "TAPE003" in codes(verify_tape(tape, 0))

    def test_malformed_operands_are_tape004(self):
        bad = [
            Instr("bin", (0,), ("add",)),       # arity
            Instr("bin", (0, 0), ("xor",)),     # unknown operator
            Instr("const", (), (float("nan"),)),  # non-finite immediate
            Instr("call", (0,), ("exp", "extra")),  # malformed immediates
            Instr("cast", (0,), ("floaty128",)),  # invalid dtype
        ]
        base = [Instr("const", (), (1.0,))]
        for instr in bad:
            found = verify_tape(base + [instr], 1)
            assert "TAPE004" in codes(found), instr

    def test_malformed_grid_key_is_tape005(self):
        from repro.dsl.boundary import BoundarySpec

        tape = [Instr("gather", (), ("img", ("base", "z", 4, 4),
                                     ("base", "y", 4, 4), BoundarySpec()))]
        assert "TAPE005" in codes(verify_tape(tape, 0))

    def test_root_out_of_range_is_tape006(self):
        tape = [Instr("const", (), (1.0,))]
        assert "TAPE006" in codes(verify_tape(tape, 5))

    def test_released_root_is_tape006(self):
        tape = [Instr("const", (), (1.0,)), Instr("const", (), (2.0,))]
        found = verify_tape(tape, 0, release=[(), (0,)])
        assert "TAPE006" in codes(found)

    def test_unreachable_instruction_is_tape007_warning(self):
        tape = [Instr("const", (), (1.0,)), Instr("const", (), (2.0,))]
        found = verify_tape(tape, 1)
        assert codes(found) == ["TAPE007"]
        assert found[0].severity.value == "warning"


class TestRecompileDiff:
    def test_flipped_constant_is_tape008(self):
        graph = _graph()
        plan = compile_kernel(graph.kernel(graph.kernel_names[0]))
        tape = list(plan.tape)
        index = next(i for i, t in enumerate(tape) if t.op == "const")
        tape[index] = Instr("const", (), (tape[index].aux[0] + 1.0,))
        found = verify_block_plan(_mutant(plan, tape=tape))
        assert "TAPE008" in codes(found)

    def test_swapped_operator_is_tape008(self):
        graph = _graph()
        plan = compile_kernel(graph.kernel("mag"))
        tape = list(plan.tape)
        index = next(
            i for i, t in enumerate(tape)
            if t.op == "bin" and t.aux[0] == "add"
        )
        tape[index] = Instr("bin", tape[index].args, ("sub",))
        found = verify_block_plan(_mutant(plan, tape=tape))
        assert "TAPE008" in codes(found)

    def test_internal_gather_is_tape009(self):
        graph, partition, plan = _partition_plan("Sobel")
        schedule = block_schedule(graph, partition)
        index, block = next(
            (i, b) for i, b in enumerate(schedule) if len(b.vertices) > 1
        )
        block_plan = plan.plans[index]
        internal = graph.kernel(
            sorted(block.vertices - set(block.destination_kernels()))[0]
        ).output.name
        tape = list(block_plan.tape)
        gather_at = next(i for i, t in enumerate(tape) if t.op == "gather")
        tape[gather_at] = Instr(
            "gather", (), (internal,) + tape[gather_at].aux[1:]
        )
        found = verify_block_plan(_mutant(block_plan, tape=tape),
                                  graph=graph, block=block)
        assert "TAPE009" in codes(found)


class TestVerifyPartitionPlan:
    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    @pytest.mark.parametrize("version", ["baseline", "optimized"])
    def test_all_apps_verify_clean(self, app, version):
        graph, _, plan = _partition_plan(app, version)
        assert verify_partition_plan(plan, graph=graph) == []

    def test_structurally_different_graph_is_plan003(self):
        _, _, plan = _partition_plan("Sobel")
        other = _graph("Harris")
        found = verify_partition_plan(plan, graph=other)
        assert "PLAN003" in codes(found)

    def test_tampered_deps_are_plan001(self):
        graph, partition, _ = _partition_plan("Harris", "optimized")
        clear_plan_caches()
        plan = plan_for_partition(graph, partition)
        dependent = next(i for i, d in enumerate(plan.deps) if d)
        plan.deps[dependent] = set()
        found = verify_partition_plan(plan, graph=graph)
        assert "PLAN001" in codes(found)
        clear_plan_caches()


class TestEnforceAndStrictMode:
    def test_tests_run_in_strict_mode(self):
        # conftest.py pins REPRO_VALIDATE=strict for the whole suite.
        assert validate_mode() == "strict"

    def test_enforce_raises_with_context_and_codes(self):
        found = verify_tape([], 0)
        with pytest.raises(PlanVerificationError) as err:
            enforce(found, context="unit test")
        assert "unit test" in str(err.value)
        assert "TAPE006" in str(err.value)
        assert err.value.diagnostics == tuple(found)

    def test_enforce_passes_warnings(self):
        tape = [Instr("const", (), (1.0,)), Instr("const", (), (2.0,))]
        enforce(verify_tape(tape, 1))  # TAPE007 is only a warning

    def test_serving_cache_inserts_are_verified(self):
        from repro.serve import ServingRuntime, default_registry

        with ServingRuntime(
            default_registry(apps={"Sobel"}), workers=1
        ) as runtime:
            runtime.execute("Sobel", {"input": random_image(40, 28)})
            entries = list(runtime.cache._entries.values())
        assert entries
        assert all(entry.verified for entry in entries)
