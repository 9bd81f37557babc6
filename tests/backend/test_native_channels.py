"""Channels are a stride, not a copy.

A block over ``C``-channel images is compiled once and called once per
channel on the caller's own ``(H, W, C)`` arrays: every global access of
the kernel steps ``C`` elements per pixel and the binder advances the
pointers to ``base + c``.  Nothing is transposed on the way in or out —
the caller's arrays are indexed in place, the result is one fresh
C-contiguous ``(H, W, C)`` float64 array per block.
"""

import threading

import numpy as np
import pytest

from helpers import BLUR3, EDGE3, row_band_everywhere

from repro import lazy
from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS
from repro.backend import native_bind, native_lower
from repro.backend.native_exec import (
    NativeLoweringError,
    assert_native_equiv,
    native_available,
    native_plan_for_partition,
)
from repro.eval.runner import partition_for
from repro.graph.partition import Partition, PartitionBlock
from repro.model.hardware import GTX680

# A cold direct native request compiles before it answers: this suite's
# subject is native output, which a tiered first answer would not be.
pytestmark = [
    pytest.mark.skipif(not native_available(), reason="requires a C compiler on PATH"),
    pytest.mark.usefixtures("blocking_native"),
]

NATIVE = ExecutionOptions(engine="native")
HEIGHT, WIDTH = 37, 53

#: ``REPRO_NATIVE_TILE2D``: the model's tile, and a forced tile that
#: leaves partial tiles on both axes; ``classic`` lowers every block as
#: the row band over its fused tape.
LOWERINGS = {"classic": "auto", "tile2d": "auto", "forced": "8x16"}


def _image(channels=3, seed=0, height=HEIGHT, width=WIDTH):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 255.0, (height, width, channels))


def _program(channels, fused=True):
    """A ``channels``-channel ``repro.lazy`` program of five kernels in
    two blocks that *both* read the source: a blur-blur-sharpen chain
    and an edge-magnitude chain (each tileable).  ``fused=False`` runs
    every kernel as a block of its own."""
    trace = lazy.Trace(f"c{channels}", WIDTH, HEIGHT, channels=channels)
    src = trace.source("src")
    blurred = (lazy.convolve(src, BLUR3) * (1.0 / 16.0)).checkpoint(
        "blur", "blurred"
    )
    soft = (lazy.convolve(blurred, BLUR3) * (1.0 / 16.0)).checkpoint(
        "blur2", "soft"
    )
    sharp = ((src - soft) * 1.5 + soft).checkpoint("sharpen", "sharp")
    edges = lazy.convolve(sharp, EDGE3).checkpoint("edge", "edges")
    (lazy.sqrt(edges * edges + 1.0) + src * 0.25).checkpoint("mag", "out")
    graph = trace.graph(("out",))
    if not fused:
        return graph, Partition.singletons(graph)
    blocks = [
        PartitionBlock(graph, {"blur", "blur2", "sharpen"}),
        PartitionBlock(graph, {"edge", "mag"}),
    ]
    return graph, Partition(graph, blocks)


def _night():
    graph = APPLICATIONS["Night"].build(WIDTH, HEIGHT).build()
    return graph, partition_for(graph, GTX680, "optimized")


PROGRAMS = {
    "Night": (_night, "input", 3),
    "c2": (lambda: _program(2), "src", 2),
    "c3": (lambda: _program(3), "src", 3),
    "c4": (lambda: _program(4), "src", 4),
}


@pytest.fixture
def copies(monkeypatch):
    """The shape of every whole-image copy the native engine makes:
    ``ascontiguousarray`` is the only way it ever copies an image."""
    made = []
    real = np.ascontiguousarray

    def copying(array, *args, **kwargs):
        array = np.asarray(array)
        if not array.flags.c_contiguous and array.size >= HEIGHT * WIDTH:
            made.append(array.shape)
        return real(array, *args, **kwargs)

    monkeypatch.setattr(native_bind.np, "ascontiguousarray", copying)
    return made


def _night_blocks(inputs, engine="native"):
    """Night on the model's partition given explicitly, so every block's
    image comes back (a model-fused request returns only its inputs and
    the graph's external outputs)."""
    graph = APPLICATIONS["Night"].build(WIDTH, HEIGHT).build()
    partition = partition_for(graph, GTX680, "optimized")
    env = run(
        graph,
        inputs,
        options=ExecutionOptions(engine=engine, partition=partition),
    )
    assert {"smooth0", "toned"} <= set(env)
    return env


def _assert_fresh_images(env, produced, inputs):
    """Every produced array is a C-contiguous ``(H, W, C)`` float64
    image of its own: no memory shared with an input or a sibling."""
    arrays = [env[name] for name in produced]
    for name, array in zip(produced, arrays):
        assert array.dtype == np.float64 and array.flags.c_contiguous, name
        assert array.shape[:2] == (HEIGHT, WIDTH) and array.ndim == 3, name
        others = [a for a in arrays if a is not array] + list(inputs.values())
        assert not any(np.shares_memory(array, other) for other in others), name


@pytest.mark.parametrize("f32", [False, True], ids=["f64", "f32"])
@pytest.mark.parametrize("lowering", sorted(LOWERINGS))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_every_lowering_matches_the_tape(program, lowering, f32, monkeypatch):
    build, source, channels = PROGRAMS[program]
    monkeypatch.setenv("REPRO_NATIVE_TILE2D", LOWERINGS[lowering])
    if f32:
        monkeypatch.setenv("REPRO_NATIVE_F32", "on")
    graph, partition = build()
    inputs = {source: _image(channels, seed=channels)}
    before = inputs[source].copy()
    with row_band_everywhere(lowering == "classic"):
        plan = native_plan_for_partition(graph, partition)
    assert plan.fallback_block_count == 0, plan.fallback_reasons
    natives = [native for _plan, native in plan.blocks]
    assert all(native.spec.channels == channels for native in natives)
    tiled = [native.spec.tile2d is not None for native in natives]
    assert any(tiled) if lowering != "classic" else not any(tiled)
    expected = plan.plan.execute(dict(inputs), {})
    produced = [native.output_name for native in natives]
    for threads in ("1", None):
        if threads is None:
            monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        else:
            monkeypatch.setenv("REPRO_NATIVE_THREADS", threads)
        env = plan.execute(dict(inputs), {})
        assert np.array_equal(inputs[source], before)  # never written
        assert env[source] is inputs[source]
        _assert_fresh_images(env, produced, inputs)
        for name in produced:
            assert_native_equiv(expected[name], env[name], plan.tolerance, name)
    assert (plan.tolerance is None) == (not f32)  # f64: the same bits


def test_night_is_bit_identical_and_interleaved():
    inputs = {"input": _image()}
    before = inputs["input"].copy()
    env = _night_blocks(inputs)
    assert np.array_equal(inputs["input"], before)  # inputs are not mutated
    reference = _night_blocks(inputs, engine="tape")
    _assert_fresh_images(env, ["smooth0", "toned"], inputs)
    for name, expected in reference.items():
        assert np.array_equal(env[name], expected), name
    assert env["toned"].shape == (HEIGHT, WIDTH, 3)


def test_contiguous_inputs_are_never_copied(copies):
    graph, partition = _program(3)
    explicit = ExecutionOptions(engine="native", partition=partition)
    for target, inputs, options in (
        ("Night", {"input": _image(seed=1)}, NATIVE),
        (graph, {"src": _image(seed=2)}, explicit),
    ):
        run(target, inputs, options=options)
        del copies[:]  # the strict first pass ran the tape as well
        run(target, inputs, options=options)
        assert copies == []


def test_a_cropped_frame_is_copied_once_and_keeps_its_bits(copies):
    """Rows of a crop lie further apart than a baked kernel's width: the
    request copies the window once for both blocks that read it, and
    computes the bits of the dense window."""
    graph, partition = _program(3)
    plan = native_plan_for_partition(graph, partition)
    frame = _image(height=HEIGHT + 8, width=WIDTH + 9, seed=3)
    window = frame[3 : 3 + HEIGHT, 5 : 5 + WIDTH]
    assert not window.flags.c_contiguous
    dense = plan.execute({"src": np.array(window)}, {})
    del copies[:]
    before = frame.copy()
    env = plan.execute({"src": window}, {})
    assert copies == [(HEIGHT, WIDTH, 3)]
    assert np.array_equal(frame, before)
    for name in ("sharp", "out"):
        assert np.array_equal(env[name], dense[name]), name


def test_an_unbindable_view_is_copied_once_for_every_block(copies):
    """Reversed channels step backwards through memory: no kernel can
    index that, so the request copies it — once, though two blocks read
    it — and hands the caller's own array back."""
    graph, partition = _program(3)
    plan = native_plan_for_partition(graph, partition)
    assert sum("src" in native.spec.images for _p, native in plan.blocks) == 2
    view = _image(seed=4)[..., ::-1]
    dense = plan.execute({"src": np.array(view)}, {})
    del copies[:]
    env = plan.execute({"src": view}, {})
    assert copies == [(HEIGHT, WIDTH, 3)]
    assert env["src"] is view
    for name in ("sharp", "out"):
        assert np.array_equal(env[name], dense[name]), name


def test_a_row_pitch_is_a_copy_under_baked_geometry(copies):
    graph, partition = _program(3)
    plan = native_plan_for_partition(graph, partition)
    window = _image(width=WIDTH + 9, seed=5)[:, :WIDTH]
    dense = plan.execute({"src": np.array(window)}, {})
    del copies[:]
    env = plan.execute({"src": window}, {})
    assert copies == [(HEIGHT, WIDTH, 3)]
    assert np.array_equal(env["out"], dense["out"])


@pytest.mark.parametrize(
    "view",
    [
        lambda a: a[3 : 3 + HEIGHT, 5 : 5 + WIDTH, :3],  # cropped
        lambda a: a[:HEIGHT, :WIDTH, 1:4],  # channel-sliced
        lambda a: a[: 2 * HEIGHT : 2, :WIDTH, :3],  # every other row
        lambda a: np.asfortranarray(a[:HEIGHT, :WIDTH, :3]),
    ],
    ids=["crop", "channels", "rows", "fortran"],
)
def test_non_contiguous_inputs_still_work(view):
    frame = np.random.default_rng(4).uniform(
        0.0, 255.0, (2 * HEIGHT + 8, WIDTH + 9, 5)
    )
    window = view(frame)
    assert window.shape == (HEIGHT, WIDTH, 3) and not window.flags.c_contiguous
    before = frame.copy()
    env = _night_blocks({"input": window})
    assert np.array_equal(frame, before)
    reference = _night_blocks({"input": np.ascontiguousarray(window)})
    _assert_fresh_images(env, ["smooth0", "toned"], {"input": frame})
    for name, expected in reference.items():
        assert np.array_equal(env[name], expected), name


def test_a_tape_block_in_the_middle_reads_the_same_images(monkeypatch):
    """``sharpen`` has no lowering here: the tape runs it on the
    interleaved arrays its native neighbours produced and consume."""
    real = native_lower._lower_block

    def lowering(plan, *args, **kwargs):
        if plan.output_name == "sharp":
            raise NativeLoweringError("no lowering (test)")
        return real(plan, *args, **kwargs)

    monkeypatch.setattr(native_lower, "_lower_block", lowering)
    graph, partition = _program(3, fused=False)
    plan = native_plan_for_partition(graph, partition)
    assert [native is None for _plan, native in plan.blocks] == [
        False, False, True, False, False,
    ]
    inputs = {"src": _image(seed=6)}
    env = plan.execute(dict(inputs), {})
    expected = plan.plan.execute(dict(inputs), {})
    for name, array in expected.items():
        assert np.array_equal(env[name], array), name


def test_block_workers_change_nothing():
    graph, partition = _program(3, fused=False)
    inputs = {"src": _image(seed=7)}
    serial = run(
        graph, inputs, options=ExecutionOptions(engine="native", fuse=False)
    )
    parallel = run(
        graph,
        inputs,
        options=ExecutionOptions(engine="native", fuse=False, workers=2),
    )
    for name, expected in serial.items():
        assert np.array_equal(parallel[name], expected), name


def test_two_threads_on_one_plan_agree():
    """Nothing about a request lives on the plan: two requests on it at
    once each get their own results."""
    graph, partition = _program(3)
    plan = native_plan_for_partition(graph, partition)
    frames = [_image(seed=8), _image(seed=9)[..., ::-1]]
    expected = [plan.execute({"src": frame}, {}) for frame in frames]
    results, errors = {}, []
    start = threading.Barrier(len(frames))

    def serve(index):
        try:
            start.wait(timeout=30)
            for _ in range(5):
                results[index] = plan.execute({"src": frames[index]}, {})
        except BaseException as error:  # surfaced below, not swallowed
            errors.append(error)
            raise

    workers = [
        threading.Thread(target=serve, args=(index,)) for index in range(len(frames))
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert not worker.is_alive()
    assert not errors
    for index, reference in enumerate(expected):
        for name in ("sharp", "out"):
            assert np.array_equal(results[index][name], reference[name]), name
