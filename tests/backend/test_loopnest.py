"""The loop-nest printer: the text means the tree.

The native sanitizer proves index *trees*; the compiler reads the text
printed from them.  These tests pin that the two agree: random index
trees are printed, compiled by ``cc`` and evaluated, and must equal the
tree evaluated in Python with C's integer semantics — including trees
built without a single ``paren`` node, which only stay correct because
the printer parenthesises every child that binds looser than its parent.
"""

import ctypes
import random

import pytest

from repro.backend import native_exec, native_lower
from repro.backend.cpu_exec import CACHE_ENV, _find_compiler, load_shared_library
from repro.backend.loopnest import _OPERAND, expr_text, strip_parens

needs_cc = pytest.mark.skipif(
    not native_exec.native_available(), reason="requires a C compiler on PATH"
)

_INT_MAX = 2**31 - 1
_RESOLVERS = ("idx_clamp", "idx_mirror", "idx_repeat")
#: (x, y, width, height) evaluation points, borders and beyond included.
_POINTS = [(0, 0, 1, 1), (3, 2, 7, 5), (-4, 9, 8, 3), (63, 47, 64, 48), (5, -1, 2, 33)]


class _Undefined(Exception):
    """The C value is undefined (division by zero, int overflow)."""


def _int(value):
    if abs(value) > _INT_MAX:
        raise _Undefined
    return value


def _evaluate(node, env):
    """``node``'s value with C ``int`` semantics."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "id":
        return env[node[1]]
    if kind == "paren":
        return _evaluate(node[1], env)
    if kind == "neg":
        return _int(-_evaluate(node[1], env))
    if kind == "tern":
        return _evaluate(node[2] if _evaluate(node[1], env) else node[3], env)
    if kind == "call":
        i, n = (_evaluate(arg, env) for arg in node[2])
        if n < 1 or 2 * n > _INT_MAX:
            raise _Undefined
        if node[1] == "idx_clamp":
            return min(max(i, 0), n - 1)
        if node[1] == "idx_repeat":
            return i % n
        j = i % (2 * n)
        return j if j < n else 2 * n - 1 - j
    op = node[1]
    if kind == "log":  # short-circuit, like C
        a = _evaluate(node[2], env)
        if op == "&&":
            return int(bool(a and _evaluate(node[3], env)))
        return int(bool(a or _evaluate(node[3], env)))
    a, b = _evaluate(node[2], env), _evaluate(node[3], env)
    if kind == "cmp":
        return int(
            {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
             "==": a == b, "!=": a != b}[op]
        )
    if op in "/%":
        if b == 0:
            raise _Undefined
        quotient = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
        return quotient if op == "/" else a - quotient * b
    return _int({"+": a + b, "-": a - b, "*": a * b}[op])


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return ("id", rng.choice(("x", "y", "width", "height")))
        return ("num", rng.randint(-3, 9))
    sub = lambda: _random_tree(rng, depth - 1)  # noqa: E731
    kind = rng.choice(("bin", "bin", "bin", "cmp", "log", "tern", "neg", "call", "paren"))
    if kind == "bin":
        return ("bin", rng.choice("+-*/%"), sub(), sub())
    if kind == "cmp":
        return ("cmp", rng.choice(("<", "<=", ">", ">=", "==", "!=")), sub(), sub())
    if kind == "log":
        return ("log", rng.choice(("&&", "||")), sub(), sub())
    if kind == "tern":
        return ("tern", sub(), sub(), sub())
    if kind == "call":
        return ("call", rng.choice(_RESOLVERS), (sub(), sub()))
    return (kind, sub())


def _defined_trees(count, seed=20260930):
    """``count`` random trees defined at every evaluation point, with
    their expected values."""
    rng = random.Random(seed)
    trees = []
    while len(trees) < count:
        tree = _random_tree(rng, depth=4)
        try:
            values = [
                _evaluate(tree, dict(zip(("x", "y", "width", "height"), point)))
                for point in _POINTS
            ]
        except _Undefined:
            continue
        trees.append((tree, values))
    return trees


@needs_cc
def test_printed_text_means_the_tree(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    trees = _defined_trees(300)
    formals = "int x, int y, int width, int height"
    lines = [native_lower._PREAMBLE]
    for k, (tree, _) in enumerate(trees):
        # Once as a whole expression, once as the operand of ``<`` the
        # way loop headers and guards print their bounds.
        lines.append(f"static int e{k}({formals}) {{ return {expr_text(tree)}; }}")
        lines.append(
            f"static int o{k}({formals}) "
            f"{{ return 2 < {expr_text(tree, _OPERAND)}; }}"
        )
    lines.append("void eval_all(const int *p, int *out) {")
    for k in range(len(trees)):
        lines.append(
            f"    out[{2 * k}] = e{k}(p[0], p[1], p[2], p[3]); "
            f"out[{2 * k + 1}] = o{k}(p[0], p[1], p[2], p[3]);"
        )
    lines.append("}")
    library, _, _ = load_shared_library("\n".join(lines), _find_compiler())
    library.eval_all.restype = None
    out = (ctypes.c_int * (2 * len(trees)))()
    for index, point in enumerate(_POINTS):
        library.eval_all((ctypes.c_int * 4)(*point), out)
        for k, (tree, values) in enumerate(trees):
            text = expr_text(tree)
            assert out[2 * k] == values[index], (text, point)
            assert out[2 * k + 1] == int(2 < values[index]), (text, point)


def test_unparenthesised_trees_keep_their_meaning():
    tree = ("bin", "*", ("bin", "+", ("id", "t"), ("num", 1)), ("num", 64))
    assert expr_text(tree) == "(t + 1) * 64"
    tree = ("bin", "-", ("id", "a"), ("bin", "-", ("id", "b"), ("id", "c")))
    assert expr_text(tree) == "a - (b - c)"
    tree = ("tern", ("tern", ("id", "a"), ("id", "b"), ("id", "c")), ("num", 1), ("num", 2))
    assert expr_text(tree) == "(a ? b : c) ? 1 : 2"
    assert expr_text(("neg", ("num", -1))) == "-(-1)"


def test_strip_parens_only_drops_grouping():
    tree = ("paren", ("bin", "+", ("id", "x"), ("paren", ("num", -1))))
    assert strip_parens(tree) == ("bin", "+", ("id", "x"), ("num", -1))
    assert expr_text(tree) == "(x + (-1))"
