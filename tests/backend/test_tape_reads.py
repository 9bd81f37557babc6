"""How the tape reads an image: views of one padded copy per run.

A stencil tap whose grid keys are one static shift of the iteration
space on both axes reads a view of a padded copy the run builds once
per ``(image, boundary)``; a tap static on one axis takes the other
axis from a band of it; a tap with no static axis takes rows, then
columns; no tap fancy-indexes a plane.  Every read must be the
recursive oracle's gather, bit for
bit and dtype for dtype, on every geometry — including ones smaller
than a chain's margin — and no padded copy may leak out of a run.
"""

import numpy as np
import pytest

from helpers import BLUR3, BLUR5, image, local_kernel, point_kernel, random_image

from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS
from repro.backend import plan as plan_module
from repro.backend.plan import compile_kernel, plan_for_partition
from repro.dsl.boundary import BoundaryMode
from repro.dsl.kernel import Kernel
from repro.dsl.pipeline import Pipeline
from repro.eval.runner import partition_for
from repro.fusion.distribution import maximal_partition
from repro.graph.partition import Partition
from repro.lazy.apps import lazy_trace
from repro.model.hardware import GTX680

from tests.backend.test_plan_equiv import APP_PARAMS, MODES

#: 1x1, one row, one column, narrower than a fused 3x3-over-3x3
#: chain's margin, and a request-sized frame.
GEOMETRIES = [(1, 1), (1, 9), (9, 1), (2, 3), (96, 64)]

VARIANTS = [(app, origin) for app in sorted(APPLICATIONS) for origin in ("hand", "lazy")]


def _graph(app, origin, width, height):
    if origin == "hand":
        return APPLICATIONS[app].build(width, height).build()
    return lazy_trace(app, width, height).graph()


def _inputs(graph, width, height, channels, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    shape = (height, width) + ((channels,) if channels > 1 else ())
    return {
        name: rng.uniform(0.0, 255.0, size=shape).astype(dtype)
        for name in graph.pipeline_inputs()
    }


def _partitions(graph):
    return {
        "fused": partition_for(graph, GTX680, "optimized"),
        "maximal": maximal_partition(graph, GTX680),
        "singleton": Partition.singletons(graph),
    }


def _assert_same(tape, oracle, label):
    assert set(tape) == set(oracle), label
    for name, expected in oracle.items():
        assert tape[name].dtype == expected.dtype, f"{label}/{name}"
        np.testing.assert_array_equal(
            tape[name], expected, err_msg=f"{label}/{name}: tape != recursive"
        )


def _run_both(graph, inputs, partition, params=APP_PARAMS):
    return [
        run(
            graph, inputs, params,
            options=ExecutionOptions(engine=engine, partition=partition),
        )
        for engine in ("tape", "recursive")
    ]


@pytest.mark.parametrize("width, height", GEOMETRIES, ids=lambda g: str(g))
@pytest.mark.parametrize("app, origin", VARIANTS, ids=lambda v: str(v))
def test_app_variants_read_what_the_oracle_reads(app, origin, width, height):
    graph = _graph(app, origin, width, height)
    inputs = _inputs(graph, width, height, APPLICATIONS[app].channels)
    for label, partition in _partitions(graph).items():
        tape, oracle = _run_both(graph, inputs, partition)
        _assert_same(tape, oracle, f"{app}-{origin}@{width}x{height}/{label}")


@pytest.mark.parametrize("dtype", [np.float32, np.uint8], ids=lambda d: d.__name__)
@pytest.mark.parametrize("app", sorted(APPLICATIONS))
def test_a_narrow_input_keeps_its_dtype_through_the_reads(app, dtype):
    graph = _graph(app, "hand", 33, 17)
    inputs = _inputs(graph, 33, 17, APPLICATIONS[app].channels, dtype=dtype)
    for label, partition in _partitions(graph).items():
        tape, oracle = _run_both(graph, inputs, partition)
        _assert_same(tape, oracle, f"{app}/{dtype.__name__}/{label}")


def _chain(width, height, channels, boundary):
    """A 5x5 -> point -> 3x3 chain.  Fused, the 5x5 reads ``img0`` at
    each grid the 3x3's taps exchange: static on both axes at the
    centre tap, on one axis along its centre row and column, on none
    at the corners."""
    pipe = Pipeline("reads")
    images = [image(f"img{i}", width, height, channels) for i in range(4)]
    pipe.add(local_kernel("k0", images[0], images[1], BLUR5, boundary=boundary))
    pipe.add(point_kernel("k1", images[1], images[2], boundary=boundary))
    pipe.add(local_kernel("k2", images[2], images[3], BLUR3, boundary=boundary))
    return pipe.build()


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("width, height", GEOMETRIES, ids=lambda g: str(g))
@pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
def test_a_chain_reads_what_the_oracle_reads(mode, width, height, channels):
    graph = _chain(width, height, channels, mode)
    inputs = {"img0": random_image(width, height, channels, seed=41)}
    for label, partition in _partitions(graph).items():
        tape, oracle = _run_both(graph, inputs, partition, params={})
        _assert_same(tape, oracle, f"{mode}@{width}x{height}x{channels}/{label}")


@pytest.mark.parametrize("mode", MODES, ids=lambda m: str(m))
def test_a_chain_on_a_narrow_input_keeps_its_dtype(mode):
    graph = _chain(12, 7, 1, mode)
    for dtype in (np.float32, np.uint8, np.int16):
        inputs = {"img0": random_image(12, 7, seed=42).astype(dtype)}
        tape, oracle = _run_both(
            graph, inputs, Partition.singletons(graph), params={}
        )
        _assert_same(tape, oracle, f"{mode}/{dtype.__name__}")


def _two_static(aux) -> bool:
    _, xi, yi, _ = aux
    return plan_module._static(xi) is not None and plan_module._static(yi) is not None


class _Indexed(np.ndarray):
    """An image as the tape binds it, recording every fancy index (a
    key holding an array) it or an array taken from it is given."""

    fancy: list = []

    def __getitem__(self, key):
        keys = key if isinstance(key, tuple) else (key,)
        if any(isinstance(k, np.ndarray) for k in keys):
            _Indexed.fancy.append(key)
        return super().__getitem__(key)


def test_no_tap_static_on_both_axes_gathers_a_plane(monkeypatch):
    """Spy on the one way a tap can gather a plane, the ``take`` of a
    resolved grid: a tap static on both axes never reaches it, a
    ``take`` is only ever given a non-static grid, and no tap
    fancy-indexes its image, CONSTANT ones included."""
    taken = []
    take, array_for = plan_module._taken, plan_module._array_for

    def spy(band, store, key, n, mode, axis):
        taken.append((key, mode))
        return take(band, store, key, n, mode, axis)

    monkeypatch.setattr(plan_module, "_taken", spy)
    monkeypatch.setattr(
        plan_module, "_array_for", lambda *a: array_for(*a).view(_Indexed)
    )
    monkeypatch.setattr(_Indexed, "fancy", [])
    cases = [
        (_graph(app, "hand", 96, 64), 96, 64, APPLICATIONS[app].channels)
        for app in sorted(APPLICATIONS)
    ] + [(_chain(20, 12, 1, mode), 20, 12, 1) for mode in MODES]
    static_taps = 0
    for graph, width, height, channels in cases:
        plan = plan_for_partition(graph, partition_for(graph, GTX680, "optimized"))
        plan.execute(_inputs(graph, width, height, channels), APP_PARAMS)
        static_taps += sum(
            _two_static(instr.aux)
            for block in plan.plans
            for instr in block.tape
            if instr.op == "gather"
        )
    assert static_taps > 100
    assert any(mode is BoundaryMode.CONSTANT for _, mode in taken)
    assert all(plan_module._static(key) is None for key, _ in taken)
    assert _Indexed.fancy == []


def test_a_root_gather_returns_an_owned_contiguous_copy():
    """A block whose value is one static tap: the tape's root is a view
    of the padded copy, but what the run returns owns its pixels."""
    source, out = image("src", 9, 6), image("dst", 9, 6)
    kernel = Kernel.from_function("shifted", [source], out, lambda a: a(1, -1))
    plan = compile_kernel(kernel)
    assert plan.tape[plan.root].op == "gather"
    tap = plan._reads.taps[plan.root]
    assert tap.pad is not None and tap.takes == ()
    data = {"src": random_image(9, 6, seed=3)}
    root = plan_module._run_tape(
        plan.tape, plan.root, plan._release, plan._reads, data, {}, plan.store
    )
    assert root.base is None and root.flags.c_contiguous
    output = plan.execute(data)
    assert output.base is None and output.flags.c_contiguous
    rows, cols = np.clip(np.arange(6) - 1, 0, 5), np.clip(np.arange(9) + 1, 0, 8)
    expected = data["src"][rows][:, cols]
    np.testing.assert_array_equal(output, expected)
    root[...] = -1.0
    output[...] = -1.0
    np.testing.assert_array_equal(plan.execute(data), expected)


@pytest.mark.parametrize("app", sorted(APPLICATIONS))
def test_writing_into_an_output_changes_no_later_run(app):
    """Every image a run returns is its own: scribbling over all of
    them leaves the next run's results, and the inputs, as they were."""
    graph = _graph(app, "hand", 24, 16)
    inputs = _inputs(graph, 24, 16, APPLICATIONS[app].channels)
    kept = {name: array.copy() for name, array in inputs.items()}
    options = ExecutionOptions(
        engine="tape", partition=partition_for(graph, GTX680, "optimized")
    )
    first = run(graph, inputs, APP_PARAMS, options=options)
    expected = {name: array.copy() for name, array in first.items()}
    for name, array in first.items():
        if name not in inputs:
            array[...] = -1.0
    again = run(graph, inputs, APP_PARAMS, options=options)
    for name, array in expected.items():
        np.testing.assert_array_equal(again[name], array, err_msg=name)
    for name, array in kept.items():
        np.testing.assert_array_equal(inputs[name], array, err_msg=name)
