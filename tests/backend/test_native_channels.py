"""Channels are bound once per request, not once per block.

A multi-channel native plan keeps a request-private planar ``(C, H, W)``
twin of every image it deinterleaves or produces: inputs are transposed
once, consumer blocks bind ``planar[c]`` zero-copy, kernels write
straight into planes, and the caller still gets C-contiguous
``(H, W, C)`` float64 arrays.
"""

import numpy as np
import pytest

from helpers import BLUR3

from repro import lazy
from repro.api import ExecutionOptions, run
from repro.backend import native_bind
from repro.backend.native_exec import native_available
from repro.serve.plancache import PROCESS_CACHE

pytestmark = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

NATIVE = ExecutionOptions(engine="native")
HEIGHT, WIDTH = 37, 53


def _rgb(seed=0, height=HEIGHT, width=WIDTH):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 255.0, (height, width, 3))


def _two_block_program():
    """A 3-channel ``repro.lazy`` program of two kernels, the second
    reading the source *and* the first's output; run unfused it is two
    native blocks."""
    trace = lazy.Trace("twoblock", WIDTH, HEIGHT, channels=3)
    src = trace.source("src")
    blurred = (lazy.convolve(src, BLUR3) * (1.0 / 16.0)).checkpoint(
        "blur", "blurred"
    )
    ((src - blurred) * 1.5 + blurred).checkpoint("sharpen", "sharp")
    return trace.graph(("sharp",))


@pytest.fixture
def gathers(monkeypatch):
    """Records every strided gather of input data: a whole-image
    deinterleave (shape ``(C, H, W)``) or a per-plane contiguous copy
    (shape ``(H, W)`` — what the per-channel, per-block path made)."""
    counted = []
    real_copy = np.ascontiguousarray

    def copying(array, *args, **kwargs):
        array = np.asarray(array)
        if not array.flags.c_contiguous and array.shape == (HEIGHT, WIDTH):
            counted.append(array.shape)
        return real_copy(array, *args, **kwargs)

    monkeypatch.setattr(native_bind.np, "ascontiguousarray", copying)
    real_deinterleave = native_bind._deinterleave

    def deinterleaving(array):
        planes = real_deinterleave(array)
        counted.append(planes.shape)
        return planes

    monkeypatch.setattr(native_bind, "_deinterleave", deinterleaving)
    return counted


def _assert_planes(env, reference, inputs=("input", "src")):
    """Every produced array is C-contiguous ``(H, W, C)`` float64 and
    equal to ``reference``'s (the caller's own inputs pass through)."""
    for name, expected in reference.items():
        got = env[name]
        assert got.shape == expected.shape and got.dtype == np.float64
        assert name in inputs or got.flags.c_contiguous, name
        assert np.array_equal(got, expected), name


def test_night_is_bit_identical_and_interleaved():
    inputs = {"input": _rgb()}
    before = inputs["input"].copy()
    env = run("Night", inputs, options=NATIVE)
    assert np.array_equal(inputs["input"], before)  # inputs are not mutated
    _assert_planes(env, run("Night", inputs, options=ExecutionOptions(engine="tape")))
    assert env["toned"].shape == (HEIGHT, WIDTH, 3)


def test_one_deinterleave_per_input_per_request(gathers):
    """Night is two native blocks; the second binds the first's planes.
    (The per-channel path gathered 3 planes x 2 blocks.)"""
    inputs = {"input": _rgb(1)}
    run("Night", inputs, options=NATIVE)  # build, strict first pass
    del gathers[:]
    run("Night", inputs, options=NATIVE)
    assert gathers == [(3, HEIGHT, WIDTH)]


def test_two_blocks_sharing_a_source_deinterleave_it_once(gathers):
    graph = _two_block_program()
    options = ExecutionOptions(engine="native", fuse=False)
    inputs = {"src": _rgb(2)}
    env = run(graph, inputs, options=options)
    (entry,) = PROCESS_CACHE._entries.values()
    assert entry.native_plan.native_block_count == 2
    del gathers[:]
    env = run(graph, inputs, options=options)
    assert gathers == [(3, HEIGHT, WIDTH)]
    _assert_planes(
        env, run(graph, inputs, options=ExecutionOptions(engine="tape", fuse=False))
    )


def test_block_workers_see_the_same_twins():
    graph = _two_block_program()
    inputs = {"src": _rgb(3)}
    serial = run(graph, inputs, options=ExecutionOptions(engine="native", fuse=False))
    parallel = run(
        graph,
        inputs,
        options=ExecutionOptions(engine="native", fuse=False, workers=2),
    )
    _assert_planes(parallel, serial)


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
    env = run("Night", {"input": window}, options=NATIVE)
    assert np.array_equal(frame, before)
    _assert_planes(
        env, run("Night", {"input": np.ascontiguousarray(window)}, options=NATIVE)
    )


def test_twins_do_not_outlive_their_readers():
    """The request drops a twin after the last block that binds it, so
    peak memory stays near two images, not one per image of the chain."""
    graph = _two_block_program()
    options = ExecutionOptions(engine="native", fuse=False)
    inputs = {"src": _rgb(5)}
    run(graph, inputs, options=options)
    (entry,) = PROCESS_CACHE._entries.values()
    plan = entry.native_plan
    assert plan._twin_readers == {"src": 2, "blurred": 1}
    live = []
    blocks = [native for _plan, native in plan.blocks]
    for native in blocks:
        real = native.execute

        def spying(arrays, params, threads, planar, real=real):
            result = real(arrays, params, threads, planar)
            live.append(sorted(planar))
            return result

        native.execute = spying
    try:
        run(graph, inputs, options=options)
    finally:
        for native in blocks:
            del native.execute
    # After block 1: the source (block 2 still reads it) and its output;
    # after block 2: everything it bound plus its own output, which the
    # plan then drops — no later block reads any of them.
    assert live == [["blurred", "src"], ["blurred", "sharp", "src"]]
