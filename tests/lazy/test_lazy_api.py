"""The LazyArray recording surface: operators, shifts, CSE, flushing.

These tests pin the *user-visible* contract of :mod:`repro.lazy`:
recording never touches pixels, operators build the same IR a
hand-written kernel body would, ``shift``/slicing translate to stencil
reads with the DSL's boundary semantics, repeated subexpressions share
one kernel, and ``evaluate`` routes through :func:`repro.api.run`
unchanged (engines, params, validation all apply).
"""

import numpy as np
import pytest

import repro.dsl.kernel as kernel_module
import repro.lazy.trace as trace_module
from repro import lazy
from repro.api import ExecutionOptions
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.mask import Domain
from repro.ir.expr import BinOp, Cmp, Const, InputAt, Param, Select, UnOp
from repro.lazy import LazyError, Trace
from repro.lazy.apps import LAZY_BUILDERS, lazy_trace

from helpers import count_calls


def _image(width=9, height=7, seed=0, channels=1):
    rng = np.random.default_rng(seed)
    shape = (height, width) if channels == 1 else (height, width, channels)
    return rng.uniform(0.0, 255.0, size=shape)


def _trace(**kwargs):
    return Trace("t", 9, 7, **kwargs)


# -- recording builds the right IR ----------------------------------------


def test_operators_record_ir_nodes():
    t = _trace()
    a = t.source("a")
    b = t.source("b")
    assert (a + b).expr == BinOp("add", InputAt("a", 0, 0), InputAt("b", 0, 0))
    assert (a - 1).expr == BinOp("sub", InputAt("a", 0, 0), Const(1))
    assert (a / b).expr == BinOp("div", InputAt("a", 0, 0), InputAt("b", 0, 0))
    assert (a % 3.0).expr == BinOp("mod", InputAt("a", 0, 0), Const(3.0))
    assert (-a).expr == UnOp("neg", InputAt("a", 0, 0))
    assert abs(a).expr == UnOp("abs", InputAt("a", 0, 0))
    assert (a > b).expr == Cmp("gt", InputAt("a", 0, 0), InputAt("b", 0, 0))
    assert a.eq(0.0).expr == Cmp("eq", InputAt("a", 0, 0), Const(0.0))


def test_scalar_left_operands_record_const_left():
    """``k * a`` must produce ``Const(k) * a`` — the exact tree a
    hand-built kernel body spells as ``Const(k) * acc()``."""
    t = _trace()
    a = t.source("a")
    assert (2.0 * a).expr == BinOp("mul", Const(2.0), InputAt("a", 0, 0))
    assert (1.0 - a).expr == BinOp("sub", Const(1.0), InputAt("a", 0, 0))
    assert (1.0 / a).expr == BinOp("div", Const(1.0), InputAt("a", 0, 0))
    # Left associativity: k * a * a is (k*a)*a, not k*(a*a).
    assert (2.0 * a * a).expr == BinOp(
        "mul", BinOp("mul", Const(2.0), InputAt("a", 0, 0)), InputAt("a", 0, 0)
    )


def test_where_records_select():
    t = _trace()
    a = t.source("a")
    b = t.source("b")
    picked = lazy.where(a > b, a, 0.0)
    assert picked.expr == Select(
        Cmp("gt", InputAt("a", 0, 0), InputAt("b", 0, 0)),
        InputAt("a", 0, 0),
        Const(0.0),
    )


def test_raw_expr_operands_mix_in():
    t = _trace()
    a = t.source("a")
    assert (a * Param("gain")).expr == BinOp(
        "mul", InputAt("a", 0, 0), Param("gain")
    )
    assert t.param("gain").expr == Param("gain")
    assert t.const(4.0).expr == Const(4.0)


def test_cross_trace_operands_rejected():
    a = Trace("one", 9, 7).source("a")
    b = Trace("two", 9, 7).source("b")
    with pytest.raises(LazyError, match="different traces"):
        a + b


# -- shifts and slicing ----------------------------------------------------


def test_shift_composes_on_pure_reads():
    t = _trace()
    a = t.source("a")
    assert a.shift(1, 0).expr == InputAt("a", 1, 0)
    assert a.shift(1, 0).shift(1, 2).expr == InputAt("a", 2, 2)
    assert a.shift(0, 0) is a
    with pytest.raises(LazyError, match="integers"):
        a.shift(0.5, 0)


def test_getitem_is_numpy_flavoured_shift():
    t = _trace()
    a = t.source("a")
    assert a[1:, 2:].expr == a.shift(2, 1).expr
    assert a[:-1].expr == a.shift(0, -1).expr
    assert a[:, 3:].expr == a.shift(3, 0).expr
    assert a[1, -2].expr == InputAt("a", -2, 1)
    for bad in [
        (slice(None, None, 2), slice(None)),  # step
        (slice(1, 5), slice(None)),  # narrows the window
        "x",  # not an index at all
    ]:
        with pytest.raises(LazyError):
            a[bad]
    with pytest.raises(LazyError, match="2D"):
        a[1, 2, 3]


def test_shift_of_computed_value_materializes_a_kernel():
    t = _trace()
    a = t.source("a")
    doubled = a + a
    assert not t._nodes
    shifted = doubled.shift(1, 0)
    assert len(t._nodes) == 1
    assert shifted.expr == InputAt(t._nodes[0].image.name, 1, 0)


def test_shift_semantics_match_clamped_numpy_reference():
    frame = _image()
    t = _trace()
    a = t.source("a", frame)
    # Right neighbour under the default clamp boundary.
    out = (a.shift(1, 0) + 0.0).evaluate()
    indices = np.minimum(np.arange(frame.shape[1]) + 1, frame.shape[1] - 1)
    assert np.array_equal(out, frame[:, indices])


def test_window_sum_of_constant_plane_is_exact():
    frame = np.full((7, 9), 3.0)
    t = _trace()
    a = t.source("a", frame)
    out = lazy.window_sum(a, Domain(3, 3)).evaluate()
    # Clamp boundary: every 3x3 window sums nine copies of the value.
    assert np.array_equal(out, np.full((7, 9), 27.0))


def test_boundary_override_applies_to_every_read():
    frame = _image()
    t = _trace()
    a = t.source(
        "a", frame, boundary=BoundarySpec(BoundaryMode.CONSTANT, 0.0)
    )
    out = (a.shift(1, 0) + 0.0).evaluate()
    expected = np.zeros_like(frame)
    expected[:, :-1] = frame[:, 1:]
    assert np.array_equal(out, expected)
    # BoundaryMode shorthand wraps into a spec.
    t2 = _trace()
    t2.source("a", boundary=BoundaryMode.MIRROR)
    assert t2._boundary_of("a").mode is BoundaryMode.MIRROR


# -- evaluation ------------------------------------------------------------


def test_evaluate_matches_numpy_pointwise():
    fa, fb = _image(seed=1), _image(seed=2)
    t = _trace()
    a = t.source("a")
    b = t.source("b")
    out = ((a + 2.0 * b) / (1.0 + abs(a - b))).evaluate(
        {"a": fa, "b": fb}
    )
    assert np.array_equal(out, (fa + 2.0 * fb) / (1.0 + np.abs(fa - fb)))


def test_where_evaluates_like_numpy_where():
    fa, fb = _image(seed=3), _image(seed=4)
    t = _trace()
    a = t.source("a", fa)
    b = t.source("b", fb)
    out = lazy.where(a > b, a, b).evaluate()
    assert np.array_equal(out, np.where(fa > fb, fa, fb))


def test_evaluate_binds_params():
    frame = _image()
    t = _trace()
    a = t.source("a", frame)
    out = lazy.pow_(a * (1.0 / 255.0), Param("gamma")).evaluate(
        params={"gamma": 0.8}
    )
    assert np.allclose(out, (frame / 255.0) ** 0.8, rtol=1e-12, atol=1e-12)


def test_evaluate_engine_options_agree():
    frame = _image()
    t = _trace()
    a = t.source("a", frame)
    value = lazy.window_sum(a, Domain(3, 3)) * 0.5
    tape = value.evaluate(options=ExecutionOptions(engine="tape"))
    recursive = value.evaluate(options=ExecutionOptions(engine="recursive"))
    assert np.array_equal(tape, recursive)


def test_explicit_inputs_win_over_bound_sources():
    bound, override = _image(seed=5), _image(seed=6)
    t = _trace()
    a = t.source("a", bound)
    out = (a * 1.0).evaluate({"a": override})
    assert np.array_equal(out, override * 1.0)


def test_unbound_inputs_raise():
    t = _trace()
    a = t.source("a")
    with pytest.raises(LazyError, match="unbound pipeline inputs"):
        (a + 1.0).evaluate()


def test_evaluate_on_unmodified_input_raises_lazy001():
    t = _trace()
    a = t.source("a", _image())
    with pytest.raises(LazyError, match="LAZY001"):
        a.evaluate()
    # ... but an empty trace also refuses to lower.
    with pytest.raises(LazyError, match="LAZY001"):
        _trace().lower()


# -- checkpoints and sharing ----------------------------------------------


def test_checkpoint_names_kernel_and_image():
    t = _trace()
    a = t.source("a")
    handle = (a + 1.0).checkpoint("boost", "boosted")
    assert handle.expr == InputAt("boosted", 0, 0)
    assert [n.kernel.name for n in t._nodes] == ["boost"]
    assert t._nodes[0].image.name == "boosted"
    # Default image name derives from the kernel name.
    (a + 2.0).checkpoint("twice")
    assert t._nodes[1].image.name == "twice_out"


def test_checkpoint_is_idempotent_but_names_are_unique():
    t = _trace()
    a = t.source("a")
    first = (a + 1.0).checkpoint("boost")
    again = (a + 1.0).checkpoint("boost")
    assert first.expr == again.expr
    assert len(t._nodes) == 1
    with pytest.raises(LazyError, match="already used"):
        (a * 3.0).checkpoint("boost")
    with pytest.raises(LazyError, match="already used"):
        (a * 3.0).checkpoint("other", "boost_out")
    with pytest.raises(LazyError, match="already used"):
        t.source("boost_out")


def test_common_subexpressions_share_one_kernel():
    t = _trace()
    a = t.source("a")
    blurred = lazy.window_mean(a, Domain(3, 3))
    # Two different neighbourhood reads of the same computed value:
    # the value materializes once, both shifts read the same image.
    left = blurred.shift(-1, 0)
    right = blurred.shift(1, 0)
    assert len(t._nodes) == 1
    (left + right).checkpoint("edge")
    assert [n.kernel.name for n in t._nodes] == ["lazy0", "edge"]


def test_checkpoint_inputs_override_accessor_order():
    t = _trace()
    a = t.source("a")
    b = t.source("b")
    # Body reads b first; the override declares a first.
    (b * a).checkpoint("mix", inputs=[a, b])
    assert [acc.image.name for acc in t._nodes[0].kernel.accessors] == [
        "a",
        "b",
    ]
    with pytest.raises(LazyError, match="cover exactly"):
        (b * a).checkpoint("bad", inputs=[a])


def test_trace_run_returns_environment():
    frame = _image()
    t = _trace()
    a = t.source("a", frame)
    (a * 2.0).checkpoint("double", "doubled")
    env = t.run()
    assert np.array_equal(env["doubled"], frame * 2.0)
    with pytest.raises(LazyError, match="not a materialized image"):
        t.run(outputs=("nope",))


# -- foreign operands and declared domains ----------------------------------


def test_foreign_operand_error_names_the_operand():
    t = _trace()
    src = t.source("input")
    with pytest.raises(TypeError) as excinfo:
        src * "oops"
    message = str(excinfo.value)
    assert "str" in message and "'oops'" in message
    assert "__rmul__" in message  # explains the k * a protocol
    assert "Trace.source" in message  # and the fix for array operands


def test_ndarray_operand_rejected_with_guidance():
    # __array_ufunc__ = None makes NumPy yield to our __rmul__ instead
    # of broadcasting elementwise over the LazyArray object.
    t = _trace()
    src = t.source("input")
    with pytest.raises(TypeError) as excinfo:
        np.ones((7, 9)) * src
    assert "ndarray" in str(excinfo.value)


def test_numpy_scalars_record_as_constants():
    t = _trace()
    src = t.source("input")
    value = (np.float32(2.0) * src).expr
    assert isinstance(value, BinOp)
    assert isinstance(value.lhs, Const)
    assert value.lhs.value == 2.0


def test_source_domain_reaches_the_lowered_graph():
    t = _trace()
    src = t.source("input", domain=(0.0, 255.0))
    (src + 1.0).checkpoint("k", "out")
    graph = t.lower().build()
    declared = graph.declared_domains["input"]
    assert (declared.lo, declared.hi) == (0.0, 255.0)


@pytest.mark.parametrize("app_name", sorted(LAZY_BUILDERS))
def test_a_recorded_kernel_signs_its_body_once(app_name, monkeypatch):
    # The CSE key's signature seeds the kernel's: recording, lowering
    # and signing the graph walk each recorded body exactly once.
    calls = count_calls(monkeypatch, trace_module, "expr_signature")
    monkeypatch.setattr(kernel_module, "expr_signature", trace_module.expr_signature)
    trace = lazy_trace(app_name, 24, 18)
    graph = trace.graph()
    graph.structural_signature()
    assert len(calls) == len(graph.kernel_names)
