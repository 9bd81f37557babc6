"""Structural signatures: the identity half of the plan cache.

Two separately built but structurally identical pipelines must sign
identically (so they share one cached plan); any change that alters
execution — a mask constant, a geometry, a boundary mode, an extra
kernel — must change the signature (so it misses).
"""

import enum
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import ExecutionOptions, run
from repro.backend.native_exec import native_available
from repro.backend.plan import clear_plan_caches, plan_for_partition
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.kernel import Kernel
from repro.dsl.mask import Mask
from repro.eval.runner import partition_for
from repro.graph.dag import KernelGraph
from repro.ir import expr_signature
from repro.ir.expr import (
    BinOp,
    Call,
    Cast,
    Cmp,
    Const,
    Expr,
    InputAt,
    Param,
    Select,
    UnOp,
)
from repro.ir.signature import canonical_digest
from repro.model.hardware import GTX680
from repro.serve import FusionSettings, inputs_signature, plan_key

from helpers import BLUR3, EDGE3, chain_pipeline, diamond_pipeline, image


class TestExprSignature:
    def test_identical_expressions_sign_equal(self):
        a = BinOp("add", Const(1.0), Param("gamma"))
        b = BinOp("add", Const(1.0), Param("gamma"))
        assert expr_signature(a) == expr_signature(b)

    def test_constant_change_signs_different(self):
        a = BinOp("add", Const(1.0), Param("gamma"))
        b = BinOp("add", Const(2.0), Param("gamma"))
        assert expr_signature(a) != expr_signature(b)

    def test_shared_subtree_vs_duplicate_subtree(self):
        # Value numbering: a physically shared subtree signs the same
        # as two structurally equal copies (same computation).
        shared = BinOp("mul", Const(3.0), Param("x"))
        with_sharing = BinOp("add", shared, shared)
        without = BinOp(
            "add",
            BinOp("mul", Const(3.0), Param("x")),
            BinOp("mul", Const(3.0), Param("x")),
        )
        assert expr_signature(with_sharing) == expr_signature(without)



def _deep_chain(depth):
    """``in + c0 + c1 + ...``: one ``add`` per level, ``depth`` deep."""
    node = InputAt("in")
    for level in range(depth):
        node = BinOp("add", node, Const(float(level % 7)))
    return node


def _wide_dag(width, levels):
    """``levels`` rows of ``width`` nodes, each read by two nodes of the
    next row, then folded by a ``max`` chain: every node is shared."""
    row = [InputAt("in", dx, 0) for dx in range(width)]
    for level in range(levels):
        op = "mul" if level % 2 else "add"
        row = [BinOp(op, row[i], row[(i + 1) % width]) for i in range(width)]
    root = row[0]
    for node in row[1:]:
        root = BinOp("max", root, node)
    return root


class TestSignatureWalk:
    """The walk's shape limits and its node coverage.  The digests were
    computed by the iterative walk the recursive one replaced: a change
    to either would move every plan key and every plan record name."""

    def test_a_20000_deep_chain_signs(self):
        limit = sys.getrecursionlimit()
        signature = expr_signature(_deep_chain(20000))
        assert sys.getrecursionlimit() == limit
        assert len(signature) == 20008
        assert canonical_digest(signature) == (
            "925f3208dd63b3b6a5efdb2bc3aade271fe738a258fde3a59137252f2d3e3840"
        )

    def test_a_wide_shared_dag_signs(self):
        signature = expr_signature(_wide_dag(64, 48))
        assert len(signature) == 64 + 64 * 48 + 63
        assert canonical_digest(signature) == (
            "ce12070cfee56dd033c5a0eb10a643064b3652933fac53145fdf769a2af5a973"
        )

    def test_every_node_type(self):
        x = InputAt("in", 1, -1)
        gain = Param("gain")
        angle = Call("atan2", (BinOp("mul", x, gain), UnOp("neg", x)))
        picked = Select(
            Cmp("gt", angle, Const(0.5)), Call("sqrt", (angle,)), UnOp("abs", x)
        )
        body = Cast("float32", BinOp("add", picked, gain))
        assert expr_signature(body) == (
            ("input", "in", 1, -1),
            ("param", "gain"),
            ("bin", "mul", 0, 1),
            ("un", "neg", 0),
            ("call", "atan2", 2, 3),
            ("const", 0.5),
            ("cmp", "gt", 4, 5),
            ("call", "sqrt", 4),
            ("un", "abs", 0),
            ("select", 6, 7, 8),
            ("bin", "add", 9, 1),
            ("cast", "float32", 10),
        )

    def test_an_unknown_node_type_raises(self):
        class Foreign(Expr):
            pass

        class Derived(Const):
            pass

        for node in (Foreign(), Derived(1.0)):
            with pytest.raises(TypeError, match="cannot sign node"):
                expr_signature(BinOp("add", Const(1.0), node))

class TestGraphSignature:
    def test_separately_built_pipelines_sign_equal(self):
        one = chain_pipeline(("l", "p", "l")).build()
        two = chain_pipeline(("l", "p", "l")).build()
        assert one is not two
        assert one.structural_signature() == two.structural_signature()

    def test_mask_constant_changes_signature(self):
        one = chain_pipeline(("l",), masks=[BLUR3]).build()
        two = chain_pipeline(("l",), masks=[EDGE3]).build()
        assert one.structural_signature() != two.structural_signature()

    def test_single_mask_entry_changes_signature(self):
        tweaked = Mask([[1, 2, 1], [2, 5, 2], [1, 2, 1]])  # BLUR3 center+1
        one = chain_pipeline(("l",), masks=[BLUR3]).build()
        two = chain_pipeline(("l",), masks=[tweaked]).build()
        assert one.structural_signature() != two.structural_signature()

    def test_geometry_changes_signature(self):
        one = chain_pipeline(("l", "p"), width=8, height=8).build()
        two = chain_pipeline(("l", "p"), width=16, height=8).build()
        assert one.structural_signature() != two.structural_signature()

    def test_boundary_mode_changes_signature(self):
        one = chain_pipeline(("l",), boundary=BoundaryMode.CLAMP).build()
        two = chain_pipeline(("l",), boundary=BoundaryMode.MIRROR).build()
        assert one.structural_signature() != two.structural_signature()

    def test_topology_changes_signature(self):
        chain = chain_pipeline(("l", "p", "p")).build()
        diamond = diamond_pipeline().build()
        assert chain.structural_signature() != diamond.structural_signature()

    def test_pipeline_signature_matches_graph(self):
        pipe = chain_pipeline(("p", "l"))
        assert pipe.signature() == pipe.build().structural_signature()

    def test_signature_is_cached_and_stable(self):
        graph = diamond_pipeline().build()
        assert graph.structural_signature() == graph.structural_signature()

    @pytest.mark.parametrize(
        "setting, value",
        [("block_shape", (16, 16)), ("force_no_shared_memory", True)],
    )
    def test_a_header_set_after_signing_is_signed(self, setting, value):
        """``block_shape`` and ``force_no_shared_memory`` may be set after
        construction: the kernel's and the graph's cached signatures
        follow them, and setting them back restores the old ones."""
        graph = chain_pipeline(("l", "p")).build()
        kernel = graph.kernel("k0")
        signs = (
            kernel.structural_signature,
            kernel.structure_signature,
            graph.structural_signature,
            graph.structure_signature,
        )
        before = [sign() for sign in signs]
        old = getattr(kernel, setting)
        setattr(kernel, setting, value)
        after = [sign() for sign in signs]
        assert all(a != b for a, b in zip(before, after))
        setattr(kernel, setting, old)
        assert [sign() for sign in signs] == before


class TestPlanKey:
    def test_same_structure_same_key(self):
        fusion = FusionSettings()
        inputs = {"img0": np.zeros((8, 8))}
        one = plan_key(
            chain_pipeline(("l", "p")).build().structural_signature(),
            inputs,
            "tape",
            fusion,
        )
        two = plan_key(
            chain_pipeline(("l", "p")).build().structural_signature(),
            inputs,
            "tape",
            fusion,
        )
        assert one == two

    def test_shape_and_dtype_change_key(self):
        fusion = FusionSettings()
        signature = chain_pipeline(("l",)).build().structural_signature()
        base = plan_key(signature, {"img0": np.zeros((8, 8))}, "tape", fusion)
        wide = plan_key(signature, {"img0": np.zeros((8, 16))}, "tape", fusion)
        f32 = plan_key(
            signature,
            {"img0": np.zeros((8, 8), dtype=np.float32)},
            "tape",
            fusion,
        )
        assert base != wide
        assert base != f32

    def test_fusion_settings_change_key(self):
        signature = chain_pipeline(("l",)).build().structural_signature()
        inputs = {"img0": np.zeros((8, 8))}
        base = plan_key(signature, inputs, "tape", FusionSettings())
        basic = plan_key(
            signature, inputs, "tape", FusionSettings(version="basic")
        )
        gpu = plan_key(
            signature, inputs, "tape", FusionSettings(gpu_name="K20c")
        )
        assert base != basic
        assert base != gpu

    def test_inputs_signature_is_order_independent(self):
        a = {"x": np.zeros((4, 4)), "y": np.ones((4, 4))}
        b = {"y": np.ones((4, 4)), "x": np.zeros((4, 4))}
        assert inputs_signature(a) == inputs_signature(b)


def _digests(graph):
    """Both graph signatures and the tape digest of the default fusion."""
    plan = plan_for_partition(graph, partition_for(graph, GTX680, "optimized"))
    return (
        graph.structural_signature(),
        graph.structure_signature(),
        plan.tape_digest(),
    )


def _blur_then_point(name=str, number=float, offset=int, shared=True):
    """src -> blur (local, CONSTANT border) -> mid -> point -> out, with
    every name passed through ``name``, every constant through ``number``
    and every read offset through ``offset``; the point kernel's body
    shares one subtree three times, or builds three equal copies."""
    src, mid, out = (image(name(text), 12, 10) for text in ("src", "mid", "out"))

    def blur(a):
        return a(offset(-1), offset(0)) * Const(number(0.25)) + a(
            offset(1), offset(1)
        ) * Const(number(0.75))

    def scale(a):
        if shared:
            term = a(offset(1), offset(0)) * Const(number(2.0))
            return term + term * term
        return a(offset(1), offset(0)) * Const(number(2.0)) + (
            a(offset(1), offset(0)) * Const(number(2.0))
        ) * (a(offset(1), offset(0)) * Const(number(2.0)))

    border = BoundarySpec(BoundaryMode.CONSTANT, number(1.5))
    return KernelGraph(
        [
            Kernel.from_function(name("blur"), [src], mid, blur, boundary=border),
            Kernel.from_function(name("scale"), [mid], out, scale),
        ]
    )


class TestCanonicalDigest:
    """The graph signatures and the tape digest hash canonical bytes, not
    ``repr``: equal structure, equal digests, however it was built."""

    def test_runtime_built_names_digest_like_literals(self):
        def joined(text):
            return "".join(list(text))

        assert joined("blur") is not sys.intern("blur")  # not interned
        assert _digests(_blur_then_point(name=joined)) == _digests(
            _blur_then_point()
        )

    def test_shared_and_copied_subtrees_digest_alike(self):
        shared = _blur_then_point(shared=True)
        copied = _blur_then_point(shared=False)
        assert _digests(shared) == _digests(copied)
        partition = partition_for(shared, GTX680, "optimized")
        tapes = [
            [block.tape for block in plan_for_partition(graph, partition).plans]
            for graph in (shared, copied)
        ]
        assert tapes[0] == tapes[1]

    def test_digests_do_not_depend_on_the_hash_seed(self):
        script = (
            "import json\n"
            "from repro.apps import APPLICATIONS\n"
            "from repro.backend.plan import plan_for_partition\n"
            "from repro.eval.runner import partition_for\n"
            "from repro.model.hardware import GTX680\n"
            "graphs = [APPLICATIONS[app].build(96, 64).build()"
            " for app in ('Harris', 'Night')]\n"
            "print(json.dumps([[g.structural_signature(), g.structure_signature(),"
            " plan_for_partition(g, partition_for(g, GTX680, 'optimized'))"
            ".tape_digest()] for g in graphs]))\n"
        )
        src = str(Path(repro.__file__).parents[1])
        readings = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            process = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            readings.append(json.loads(process.stdout))
        from repro.apps import APPLICATIONS

        here = [
            list(_digests(APPLICATIONS[app].build(96, 64).build()))
            for app in ("Harris", "Night")
        ]
        assert readings[0] == readings[1] == here

    def test_numpy_scalar_constants_and_offsets_key_and_run(self, blocking_native):
        plain = _blur_then_point()
        scalars = _blur_then_point(number=np.float64, offset=np.int64)
        assert _digests(scalars) == _digests(plain)
        inputs = {"src": np.random.default_rng(5).uniform(0, 255, (10, 12))}
        clear_plan_caches()
        expected = run(plain, inputs, options=ExecutionOptions(engine="recursive"))
        engines = ["recursive", "tape"] + (["native"] if native_available() else [])
        for engine in engines:
            clear_plan_caches()  # the scalar graph's own build, not a hit
            got = run(scalars, inputs, options=ExecutionOptions(engine=engine))
            np.testing.assert_array_equal(got["out"], expected["out"])

    def test_payloads_marshal_rejects_are_coerced_not_raised(self):
        class Tag(enum.Enum):
            A = "a"

        class Name(str):
            pass

        odd = (Name("k"), Tag.A, [np.float64(0.5)], object)
        plain = ("k", repr(Tag.A), [0.5], repr(object))
        assert canonical_digest(odd) == canonical_digest(plain)
