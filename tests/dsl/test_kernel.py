"""Unit tests for kernel construction and derived header information."""

import pytest

from helpers import BLUR3, image, local_kernel, point_kernel

from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.functional import convolve
from repro.dsl.image import Image
from repro.dsl.kernel import (
    Accessor,
    ComputePattern,
    Kernel,
    ReductionKind,
)
from repro.ir.expr import Const, InputAt, Param


class TestAccessor:
    def test_call_builds_read(self):
        acc = Accessor(image("a"))
        assert acc(1, -1) == InputAt("a", 1, -1)
        assert acc.at() == InputAt("a", 0, 0)

    def test_boundary_defaults_to_clamp(self):
        assert Accessor(image("a")).boundary.mode is BoundaryMode.CLAMP

    def test_boundary_mode_coerced_to_spec(self):
        acc = Accessor(image("a"), BoundaryMode.MIRROR)
        assert acc.boundary == BoundarySpec(BoundaryMode.MIRROR)


class TestKernelConstruction:
    def test_missing_accessor_rejected(self):
        src, out = image("src"), image("out")
        with pytest.raises(ValueError, match="without accessors"):
            Kernel("k", [Accessor(src)], out, InputAt("other"))

    def test_duplicate_accessor_rejected(self):
        src, out = image("src"), image("out")
        with pytest.raises(ValueError, match="duplicate"):
            Kernel("k", [Accessor(src), Accessor(src)], out, InputAt("src"))

    def test_reading_own_output_rejected(self):
        src, out = image("src"), image("out")
        with pytest.raises(ValueError, match="own output"):
            Kernel(
                "k",
                [Accessor(src), Accessor(out)],
                out,
                InputAt("src") + InputAt("out"),
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Kernel("", [Accessor(image("a"))], image("out"), InputAt("a"))

    def test_non_identifier_name_rejected(self):
        # Kernel names become C/CUDA/OpenCL function names.
        for bad in ("my-kernel", "3dx", "a b", "k!"):
            with pytest.raises(ValueError, match="identifier"):
                Kernel(
                    bad, [Accessor(image("a"))], image("out"), InputAt("a")
                )

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError):
            point_kernel("k", image("a"), image("out")).granularity  # ok
            Kernel(
                "k",
                [Accessor(image("a"))],
                image("out"),
                InputAt("a"),
                granularity=0,
            )

    def test_from_function_per_image_boundary(self):
        src_a, src_b, out = image("a"), image("b"), image("out")
        kernel = Kernel.from_function(
            "k",
            [src_a, src_b],
            out,
            lambda a, b: a() + b(),
            boundary={"a": BoundaryMode.MIRROR},
        )
        assert kernel.accessor_for("a").boundary.mode is BoundaryMode.MIRROR
        assert kernel.accessor_for("b").boundary.mode is BoundaryMode.CLAMP

    def test_accessor_for_unknown_raises(self):
        kernel = point_kernel("k", image("a"), image("out"))
        with pytest.raises(KeyError):
            kernel.accessor_for("nope")


class TestDerivedHeaders:
    def test_point_pattern(self):
        kernel = point_kernel("k", image("a"), image("out"))
        assert kernel.pattern is ComputePattern.POINT
        assert kernel.window_size == 1
        assert kernel.window_radius == (0, 0)
        assert not kernel.uses_shared_memory

    def test_local_pattern(self):
        kernel = local_kernel("k", image("a"), image("out"))
        assert kernel.pattern is ComputePattern.LOCAL
        assert kernel.window_size == 9
        assert kernel.window_radius == (1, 1)
        assert kernel.uses_shared_memory

    def test_global_pattern(self):
        src, out = image("a"), Image.create("sum", 1, 1)
        kernel = Kernel(
            "k",
            [Accessor(src)],
            out,
            InputAt("a"),
            reduction=ReductionKind.SUM,
        )
        assert kernel.pattern is ComputePattern.GLOBAL
        assert not kernel.uses_shared_memory

    def test_force_no_shared_memory(self):
        src, out = image("a"), image("out")
        kernel = Kernel.from_function(
            "k",
            [src],
            out,
            lambda a: convolve(a, BLUR3),
            force_no_shared_memory=True,
        )
        assert kernel.pattern is ComputePattern.LOCAL
        assert not kernel.uses_shared_memory

    def test_space_is_output_space(self):
        out = Image.create("out", 16, 8)
        kernel = point_kernel("k", image("a", 16, 8), out)
        assert kernel.space == out.space

    def test_rectangular_window(self):
        src, out = image("a"), image("out")
        kernel = Kernel.from_function(
            "k", [src], out, lambda a: a(-2, 0) + a(2, 0) + a(0, 1)
        )
        assert kernel.window_radius == (2, 1)
        assert kernel.window_size == 5 * 3

    def test_op_counts(self):
        kernel = point_kernel("k", image("a"), image("out"))
        assert kernel.op_counts.alu == 2  # mul + add

    def test_param_names(self):
        src, out = image("a"), image("out")
        kernel = Kernel.from_function(
            "k", [src], out, lambda a: a() * Param("gain") + Const(1.0)
        )
        assert kernel.param_names == {"gain"}

    def test_reads(self):
        src, out = image("a"), image("out")
        kernel = Kernel.from_function(
            "k", [src], out, lambda a: a(-1, 0) + a(1, 0)
        )
        assert kernel.reads() == {"a": {(-1, 0), (1, 0)}}

    def test_input_names_ordered(self):
        a, b, out = image("a"), image("b"), image("out")
        kernel = Kernel.from_function(
            "k", [b, a], out, lambda x, y: x() + y()
        )
        assert kernel.input_names == ("b", "a")

    def test_header_queries_never_walk_the_body_again(self, monkeypatch):
        # window_radius / pattern / uses_shared_memory / window_size all
        # come from the reads the constructor collected: a whole fusion
        # decision costs no walk of any kernel body.
        import repro.ir.traversal as traversal
        from repro.apps import APPLICATIONS
        from repro.eval.runner import partition_for
        from repro.model.hardware import GTX680

        graph = APPLICATIONS["Night"].build(96, 64).build()
        bodies = {id(graph.kernel(n).body): n for n in graph.kernel_names}
        walks = {name: 0 for name in bodies.values()}
        real = traversal.walk

        def counting(expr):
            if id(expr) in bodies:
                walks[bodies[id(expr)]] += 1
            return real(expr)

        monkeypatch.setattr(traversal, "walk", counting)
        partition_for(graph, GTX680, "optimized")
        for kernel in map(graph.kernel, graph.kernel_names):
            assert kernel.window_size >= 1 and kernel.pattern
        assert max(walks.values()) <= 1, walks
