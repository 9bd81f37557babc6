"""Value-range dataflow: the VAL diagnostics.

Covers the lattice (:class:`VRange`), the two analysis granularities
(kernel body / graph walk), guard-aware suppression, and declared
domains.
"""

import math

import numpy as np
import pytest

from repro.analysis.dataflow import (
    VRange,
    analyze_graph,
    analyze_kernel,
    domain,
    lint_graph_values,
    lint_kernel_values,
)
from repro.apps import APPLICATIONS
from repro.dsl.boundary import BoundaryMode
from repro.dsl.image import Image
from repro.dsl.kernel import Kernel
from repro.dsl.pipeline import Pipeline, PipelineError
from repro.graph.dag import KernelGraph
from repro.ir import ops
from repro.ir.expr import Cast, Const, Param


def codes(diagnostics):
    return [d.code for d in diagnostics]


def kernel_for(body, name="k", width=16, height=16):
    src = Image.create("src", width, height)
    dst = Image.create("dst", width, height)
    return Kernel.from_function(
        name, [src], dst, body, boundary=BoundaryMode.CLAMP
    )


#: The canonical 8-bit pixel domain used throughout these tests.
PIXELS = {"src": domain(0.0, 255.0)}


class TestVRange:
    def test_default_is_top(self):
        top = VRange()
        assert top.lo == -math.inf and top.hi == math.inf
        assert top.maybe_nan and top.maybe_zero

    def test_domain_is_nan_free(self):
        d = domain(0.0, 255.0)
        assert (d.lo, d.hi) == (0.0, 255.0)
        assert not d.maybe_nan

    def test_inverted_interval_normalizes_to_top(self):
        r = VRange(5.0, 1.0, maybe_nan=False)
        assert r.lo == -math.inf and r.hi == math.inf

    def test_zero_flag_cleared_outside_interval(self):
        assert not VRange(1.0, 9.0).maybe_zero
        assert VRange(-1.0, 1.0).maybe_zero

    def test_describe_mentions_flags(self):
        assert "nan?" in VRange().describe()
        assert "nan?" not in domain(0.0, 1.0).describe()


class TestKernelAnalysis:
    def test_affine_range_propagates(self):
        k = kernel_for(lambda a: a() * Const(2.0) + Const(1.0))
        result, found = analyze_kernel(k, PIXELS)
        assert (result.lo, result.hi) == (1.0, 511.0)
        assert not result.maybe_nan
        assert found == []

    def test_sqrt_of_possibly_negative_is_val001(self):
        k = kernel_for(lambda a: ops.sqrt(a() - Const(300.0)))
        assert codes(lint_kernel_values(k, PIXELS)) == ["VAL001"]

    def test_sqrt_of_declared_nonneg_is_clean(self):
        k = kernel_for(lambda a: ops.sqrt(a()))
        assert lint_kernel_values(k, PIXELS) == []
        # Without the declared domain the read is fully conservative.
        assert codes(lint_kernel_values(k)) == ["VAL001"]

    def test_division_by_possibly_zero_is_val002(self):
        k = kernel_for(lambda a: Const(1.0) / a())
        assert codes(lint_kernel_values(k, PIXELS)) == ["VAL002"]

    def test_division_by_shifted_domain_is_clean(self):
        k = kernel_for(lambda a: Const(1.0) / (a() + Const(1.0)))
        assert lint_kernel_values(k, PIXELS) == []

    def test_guarded_division_is_suppressed(self):
        k = kernel_for(
            lambda a: ops.select(
                a() > ops.const(0.5), Const(1.0) / a(), ops.const(0.0)
            )
        )
        assert lint_kernel_values(k, PIXELS) == []

    def test_ne_guard_is_suppressed(self):
        k = kernel_for(
            lambda a: ops.select(
                ops.ne(a(), ops.const(0.0)),
                Const(1.0) / a(),
                ops.const(0.0),
            )
        )
        assert lint_kernel_values(k, PIXELS) == []

    def test_always_true_comparison_is_val005(self):
        k = kernel_for(
            lambda a: ops.select(
                a() >= ops.const(-1.0), a(), ops.const(0.0)
            )
        )
        found = codes(lint_kernel_values(k, PIXELS))
        assert "VAL005" in found
        assert "VAL006" in found  # the dead branch rides along

    def test_cast_overflow_is_val003(self):
        k = kernel_for(lambda a: Cast("int8", a() * Const(10.0)))
        assert codes(lint_kernel_values(k, PIXELS)) == ["VAL003"]

    def test_truncating_cast_is_val004(self):
        k = kernel_for(lambda a: Cast("uint8", a() * Const(0.5)))
        assert codes(lint_kernel_values(k, PIXELS)) == ["VAL004"]

    def test_pow_fractional_negative_base_is_val007(self):
        k = kernel_for(lambda a: ops.pow_(a() - Const(1.0), Param("gamma")))
        assert codes(lint_kernel_values(k, PIXELS)) == ["VAL007"]

    def test_unbound_param_under_strict_is_val008(self):
        k = kernel_for(lambda a: a() * Param("gamma"))
        assert lint_kernel_values(k, PIXELS) == []
        assert codes(
            lint_kernel_values(k, PIXELS, strict_params=True)
        ) == ["VAL008"]
        assert lint_kernel_values(
            k, PIXELS, params={"gamma": (0.1, 4.0)}, strict_params=True
        ) == []


def two_stage_graph(declared=None):
    """src -> (double) -> mid -> (sqrt(mid - 300)) -> dst."""
    src = Image.create("src", 16, 16)
    mid = Image.create("mid", 16, 16)
    dst = Image.create("dst", 16, 16)
    double = Kernel.from_function(
        "double", [src], mid, lambda a: a() * Const(2.0),
        boundary=BoundaryMode.CLAMP,
    )
    root = Kernel.from_function(
        "root", [mid], dst, lambda a: ops.sqrt(a() - Const(300.0)),
        boundary=BoundaryMode.CLAMP,
    )
    return KernelGraph([double, root], ["dst"], declared_domains=declared)


class TestGraphAnalysis:
    def test_ranges_propagate_through_the_graph(self):
        graph = two_stage_graph({"src": domain(0.0, 255.0)})
        analysis = analyze_graph(graph)
        assert (analysis.ranges["mid"].lo, analysis.ranges["mid"].hi) == (
            0.0,
            510.0,
        )
        # mid in [0, 510] still admits mid - 300 < 0.
        assert codes(analysis.diagnostics) == ["VAL001"]

    def test_narrow_domain_silences_downstream_warning(self):
        graph = two_stage_graph({"src": domain(150.0, 255.0)})
        assert lint_graph_values(graph) == []

    def test_images_argument_overrides_declared(self):
        graph = two_stage_graph({"src": domain(150.0, 255.0)})
        found = lint_graph_values(graph, images={"src": domain(0.0, 255.0)})
        assert codes(found) == ["VAL001"]

    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    def test_paper_apps_are_value_clean(self, app):
        graph = APPLICATIONS[app].build(64, 48).build()
        assert lint_graph_values(graph) == []

    def test_apps_warn_without_declared_domains(self):
        # Enhance's log/pow chain is only provably safe because the
        # input domain is declared; the declaration is load-bearing.
        graph = APPLICATIONS["Enhance"].build(64, 48).build()
        graph.declared_domains.clear()
        assert "VAL001" in codes(lint_graph_values(graph))


class TestDeclaredDomainAPI:
    def test_pipeline_declare_domain_reaches_the_graph(self):
        pipe = Pipeline()
        pipe.add(kernel_for(lambda a: ops.sqrt(a())))
        pipe.declare_domain("src", 0.0, 255.0)
        graph = pipe.build()
        assert "src" in graph.declared_domains
        assert lint_graph_values(graph) == []

    def test_declare_domain_rejects_bad_bounds(self):
        pipe = Pipeline()
        with pytest.raises(PipelineError):
            pipe.declare_domain("src", 1.0, 0.0)
        with pytest.raises(PipelineError):
            pipe.declare_domain("src", float("nan"), 1.0)
