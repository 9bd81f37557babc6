"""Unit tests for the staged NumPy executor."""

import numpy as np
import pytest

from helpers import BLUR3, STAGED, chain_pipeline, image, local_kernel, point_kernel, random_image

from repro.api import run
from repro.backend.numpy_exec import ExecutionError, execute_kernel, gather
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.image import Image
from repro.dsl.kernel import Accessor, Kernel, ReductionKind
from repro.ir import ops
from repro.ir.expr import Const, InputAt, Param


class TestGather:
    def test_centered_gather_identity(self):
        data = random_image(5, 4, seed=1)
        xs, ys = np.meshgrid(np.arange(5), np.arange(4))
        out = gather(data, xs, ys, BoundarySpec())
        np.testing.assert_allclose(out, data)

    def test_clamp_gather(self):
        data = np.arange(12, dtype=float).reshape(3, 4)
        xs = np.array([[-1, 0], [5, 3]])
        ys = np.array([[0, -2], [1, 4]])
        out = gather(data, xs, ys, BoundarySpec(BoundaryMode.CLAMP))
        assert out[0, 0] == data[0, 0]
        assert out[0, 1] == data[0, 0]
        assert out[1, 0] == data[1, 3]
        assert out[1, 1] == data[2, 3]

    def test_constant_gather(self):
        data = np.ones((3, 3))
        xs = np.array([[-1, 1]])
        ys = np.array([[0, 1]])
        spec = BoundarySpec(BoundaryMode.CONSTANT, constant=9.5)
        out = gather(data, xs, ys, spec)
        assert out[0, 0] == 9.5
        assert out[0, 1] == 1.0

    def test_multichannel_gather(self):
        data = random_image(4, 4, channels=3, seed=2)
        xs, ys = np.meshgrid(np.arange(4), np.arange(4))
        out = gather(data, xs - 1, ys, BoundarySpec(BoundaryMode.REPEAT))
        assert out.shape == (4, 4, 3)
        np.testing.assert_allclose(out[:, 1:], data[:, :3])


class TestExecuteKernel:
    def test_point_kernel(self):
        data = random_image(6, 5, seed=3)
        kernel = point_kernel("k", image("a", 6, 5), image("b", 6, 5),
                              scale=3.0, offset=-1.0)
        out = execute_kernel(kernel, {"a": data})
        np.testing.assert_allclose(out, 3.0 * data - 1.0)

    def test_local_kernel_interior(self):
        data = random_image(6, 6, seed=4)
        kernel = local_kernel("k", image("a", 6, 6), image("b", 6, 6))
        out = execute_kernel(kernel, {"a": data})
        expected = (data[1:4, 1:4] * BLUR3.array).sum()
        assert out[2, 2] == pytest.approx(expected)

    def test_boundary_modes_differ_at_border(self):
        data = random_image(6, 6, seed=5)
        results = {}
        for mode in (BoundaryMode.CLAMP, BoundaryMode.MIRROR,
                     BoundaryMode.REPEAT):
            kernel = local_kernel(
                "k", image("a", 6, 6), image("b", 6, 6), boundary=mode
            )
            results[mode] = execute_kernel(kernel, {"a": data})
        assert not np.allclose(
            results[BoundaryMode.CLAMP], results[BoundaryMode.REPEAT]
        )
        # Interior identical regardless of mode.
        np.testing.assert_allclose(
            results[BoundaryMode.CLAMP][1:5, 1:5],
            results[BoundaryMode.REPEAT][1:5, 1:5],
        )

    def test_parameters_bound_at_execution(self):
        src, out = image("a", 4, 4), image("b", 4, 4)
        kernel = Kernel.from_function(
            "k", [src], out, lambda a: a() * Param("gain")
        )
        data = random_image(4, 4, seed=6)
        result = execute_kernel(kernel, {"a": data}, {"gain": 0.5})
        np.testing.assert_allclose(result, 0.5 * data)

    def test_unbound_parameter_raises(self):
        src, out = image("a", 4, 4), image("b", 4, 4)
        kernel = Kernel.from_function(
            "k", [src], out, lambda a: a() * Param("gain")
        )
        with pytest.raises(ExecutionError, match="gain"):
            execute_kernel(kernel, {"a": np.ones((4, 4))})

    def test_missing_array_raises(self):
        kernel = point_kernel("k", image("a", 4, 4), image("b", 4, 4))
        with pytest.raises(ExecutionError, match="no array"):
            execute_kernel(kernel, {})

    def test_sfu_functions(self):
        src, out = image("a", 4, 4), image("b", 4, 4)
        kernel = Kernel.from_function(
            "k", [src], out, lambda a: ops.sqrt(a()) + ops.exp(a() * Const(0.0))
        )
        data = random_image(4, 4, seed=7) + 1.0
        result = execute_kernel(kernel, {"a": data})
        np.testing.assert_allclose(result, np.sqrt(data) + 1.0)

    def test_select_and_compare(self):
        src, out = image("a", 4, 4), image("b", 4, 4)
        kernel = Kernel.from_function(
            "k",
            [src],
            out,
            lambda a: ops.select(a() > Const(100.0), 1.0, 0.0),
        )
        data = random_image(4, 4, seed=8)
        result = execute_kernel(kernel, {"a": data})
        np.testing.assert_allclose(result, (data > 100.0).astype(float))

    def test_constant_body_broadcast(self):
        src, out = image("a", 4, 3), image("b", 4, 3)
        kernel = Kernel.from_function("k", [src], out, lambda a: Const(7.0))
        result = execute_kernel(kernel, {"a": np.zeros((3, 4))})
        assert result.shape == (3, 4)
        np.testing.assert_allclose(result, 7.0)

    def test_rgb_kernel(self):
        src = Image.create("a", 4, 4, channels=3)
        out = Image.create("b", 4, 4, channels=3)
        kernel = Kernel.from_function("k", [src], out, lambda a: a() * 2.0)
        data = random_image(4, 4, channels=3, seed=9)
        result = execute_kernel(kernel, {"a": data})
        assert result.shape == (4, 4, 3)
        np.testing.assert_allclose(result, data * 2.0)


class TestReductions:
    def make_reduction(self, kind, out_shape=(1, 1)):
        src = image("a", 4, 4)
        out = Image.create("r", out_shape[1], out_shape[0])
        return Kernel(
            "red", [Accessor(src)], out, InputAt("a"), reduction=kind
        )

    def test_sum(self):
        data = random_image(4, 4, seed=10)
        kernel = self.make_reduction(ReductionKind.SUM)
        result = execute_kernel(kernel, {"a": data})
        assert result[0, 0] == pytest.approx(data.sum())

    def test_min_max(self):
        data = random_image(4, 4, seed=11)
        low = execute_kernel(self.make_reduction(ReductionKind.MIN), {"a": data})
        high = execute_kernel(self.make_reduction(ReductionKind.MAX), {"a": data})
        assert low[0, 0] == data.min()
        assert high[0, 0] == data.max()

    def test_histogram(self):
        data = np.array([[0.5, 1.5], [1.5, 3.5]])
        src = image("a", 2, 2)
        out = Image.create("hist", 4, 1)
        kernel = Kernel(
            "hist", [Accessor(src)], out, InputAt("a"),
            reduction=ReductionKind.HISTOGRAM,
        )
        result = execute_kernel(kernel, {"a": data})
        assert result.tolist() == [[1.0, 2.0, 0.0, 1.0]]


class TestExecutePipeline:
    def test_chain_matches_manual_composition(self):
        graph = chain_pipeline(("p", "p"), width=5, height=5).build()
        data = random_image(5, 5, seed=12)
        env = run(graph, {"img0": data}, options=STAGED)
        np.testing.assert_allclose(
            env["img2"], (data * 2.0 + 1.0) * 2.0 + 1.0
        )

    def test_environment_contains_all_images(self):
        graph = chain_pipeline(("p", "p"), width=4, height=4).build()
        env = run(graph, {"img0": np.zeros((4, 4))}, options=STAGED)
        assert set(env) == {"img0", "img1", "img2"}
