"""Unit tests for IR node construction and operator overloading."""

import pytest

from repro.ir.expr import (
    BinOp,
    Call,
    Cast,
    Cmp,
    Const,
    InputAt,
    Param,
    Select,
    UnOp,
)


class TestOperatorOverloading:
    def test_addition_builds_binop(self):
        expr = Const(1.0) + Const(2.0)
        assert isinstance(expr, BinOp)
        assert expr.op == "add"

    def test_scalar_coercion_right(self):
        expr = Const(1.0) + 2
        assert expr.rhs == Const(2)

    def test_scalar_coercion_left(self):
        expr = 3.0 * InputAt("img")
        assert isinstance(expr, BinOp)
        assert expr.op == "mul"
        assert expr.lhs == Const(3.0)

    def test_subtraction_and_reverse(self):
        assert (Const(5.0) - 1).op == "sub"
        reverse = 1 - Const(5.0)
        assert reverse.op == "sub"
        assert reverse.lhs == Const(1)

    def test_division(self):
        assert (Const(1.0) / Const(2.0)).op == "div"
        assert (1.0 / Const(2.0)).op == "div"

    def test_modulo(self):
        assert (Const(7.0) % 3).op == "mod"

    def test_negation(self):
        expr = -Const(1.0)
        assert isinstance(expr, UnOp)
        assert expr.op == "neg"

    def test_abs(self):
        expr = abs(Const(-1.0))
        assert isinstance(expr, UnOp)
        assert expr.op == "abs"

    def test_comparisons_build_cmp_nodes(self):
        assert (Const(1.0) < 2).op == "lt"
        assert (Const(1.0) <= 2).op == "le"
        assert (Const(1.0) > 2).op == "gt"
        assert (Const(1.0) >= 2).op == "ge"

    def test_equality_stays_structural(self):
        # __eq__ must NOT build IR nodes: structural equality is needed
        # for dict/set usage and CSE-aware counting.
        assert Const(1.0) == Const(1.0)
        assert Const(1.0) != Const(2.0)

    def test_non_numeric_operand_rejected(self):
        with pytest.raises(TypeError):
            Const(1.0) + "two"


class TestNodeValidation:
    def test_unknown_binop_rejected(self):
        with pytest.raises(ValueError):
            BinOp("xor", Const(1.0), Const(2.0))

    def test_unknown_unop_rejected(self):
        with pytest.raises(ValueError):
            UnOp("sqrt", Const(1.0))

    def test_unknown_cmp_rejected(self):
        with pytest.raises(ValueError):
            Cmp("approx", Const(1.0), Const(2.0))

    def test_unknown_call_rejected(self):
        with pytest.raises(ValueError):
            Call("gamma", (Const(1.0),))

    def test_call_arity_checked(self):
        with pytest.raises(ValueError):
            Call("exp", (Const(1.0), Const(2.0)))
        with pytest.raises(ValueError):
            Call("pow", (Const(1.0),))

    def test_binary_sfu_functions(self):
        assert Call("pow", (Const(2.0), Const(3.0))).fn == "pow"
        assert Call("atan2", (Const(1.0), Const(1.0))).fn == "atan2"


class TestStructuralEquality:
    def test_input_at_defaults(self):
        assert InputAt("img") == InputAt("img", 0, 0)

    def test_input_at_offset_matters(self):
        assert InputAt("img", 1, 0) != InputAt("img", 0, 1)

    def test_deep_equality(self):
        a = (InputAt("x") + 1.0) * 2.0
        b = (InputAt("x") + 1.0) * 2.0
        assert a == b

    def test_nodes_hashable(self):
        seen = {InputAt("x"), InputAt("x"), Const(1.0)}
        assert len(seen) == 2

    def test_select_structure(self):
        sel = Select(Cmp("lt", Const(0.0), Const(1.0)), Const(1.0), Const(2.0))
        assert sel.if_true == Const(1.0)

    def test_cast_holds_dtype(self):
        cast = Cast("uint8", Const(300.0))
        assert cast.dtype == "uint8"

    def test_param_named(self):
        assert Param("gamma").name == "gamma"


class TestCachedHash:
    def test_hash_is_computed_once_per_node(self):
        tree = (InputAt("x", 1, 0) + Param("gain")) * Const(2.0)
        assert "_hash" not in vars(tree)
        value = hash(tree)
        assert vars(tree)["_hash"] == value == hash(tree)
        # Children were hashed on the way and keep their own value.
        assert vars(tree.lhs)["_hash"] == hash(tree.lhs)

    def test_cache_changes_neither_equality_nor_repr(self):
        hashed, fresh = InputAt("x") + 1.0, InputAt("x") + 1.0
        hash(hashed)
        assert hashed == fresh and hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh)
        assert len({hashed, fresh}) == 1

    def test_every_node_type_caches(self):
        from repro.ir.expr import NODE_TYPES

        nodes = [
            Const(1.0), Param("p"), InputAt("a"), Const(1.0) + 2.0,
            -Const(1.0), Const(1.0) < 2.0,
            Select(Const(1.0), Const(2.0), Const(3.0)),
            Call("sqrt", (Const(4.0),)), Cast("uint8", Const(1.0)),
        ]
        assert {type(node) for node in nodes} == set(NODE_TYPES)
        for node in nodes:
            hash(node)
            assert "_hash" in vars(node)

    def test_cached_hash_does_not_cross_a_process_boundary(self):
        # String hashes are salted per process: a node pickled with its
        # hash cached must still find itself in a dict of another
        # process that unpickles it.
        import os
        import pickle
        import subprocess
        import sys
        from pathlib import Path

        import repro

        tree = (InputAt("img", 1, -1) + Param("gain")) * Const(2.0)
        hash(tree)
        payload = pickle.dumps(tree)
        assert b"_hash" not in payload
        child = (
            "import pickle, sys\n"
            "from repro.ir.expr import Const, InputAt, Param\n"
            "tree = pickle.loads(sys.stdin.buffer.read())\n"
            "twin = (InputAt('img', 1, -1) + Param('gain')) * Const(2.0)\n"
            "assert '_hash' not in vars(tree)\n"
            "assert tree in {twin: 1} and twin in {tree} and tree == twin\n"
        )
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
            result = subprocess.run(
                [sys.executable, "-c", child],
                input=payload, env=env, capture_output=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr.decode()
