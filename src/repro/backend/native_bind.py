"""Binding: compiled block kernels called on NumPy buffers.

A :class:`NativeBlock` is one C function of the loaded library, bound
through :mod:`ctypes` on zero-copy ``float64`` buffers, beside the tape
plan it falls back to when the bound arrays are not plain ``float64``
planes of the declared geometry (the tape resolves such cases
dynamically; baking their shapes would change semantics).

**One core budget.**  :func:`resolve_native_threads` sizes every OpenMP
team: an explicit count or ``REPRO_NATIVE_THREADS`` exactly, else the
caller's share of the cores — the affinity mask divided by the requests
the caller runs side by side (:func:`sharing_cores`) — with small planes
serial.  The team is the native engine's only parallelism: a request's
blocks run one after another, each on the whole share.  Tiles are
independent and nothing is reduced, so the count never changes a bit.

**Channels are a stride.**  A block over ``C``-channel images is called
once per channel on the caller's own ``(H, W, C)`` arrays and one fresh
``(H, W, C)`` result, every pointer advanced to ``base + c``: the
kernel's global accesses step ``C`` elements per pixel
(:mod:`repro.backend.loopnest`), so nothing is transposed in or out.

**Strided views.**  Shape-polymorphic kernels infer ``(height, width)``
from the bound arrays per call and take one row pitch (in pixels) per
input, so row-strided ``float64`` views (crops, row subsampling — of a
plane or of an interleaved frame) bind zero-copy
(:func:`noncontiguous_zero_copy_count` tallies them).  What no kernel
can index in place — negative or sub-pixel strides, a row pitch under
baked geometry — is copied by :func:`as_bindable`.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.envknobs import int_env, raw_env

from repro.backend.cpu_exec import available_cores
from repro.backend.native_lower import _BlockSpec
from repro.backend.numpy_exec import Arrays, ExecutionError, Params, _array_for
from repro.backend.plan import BlockPlan, PartitionPlan

#: Environment knob: OpenMP threads for the row-tiled loop nests.
NATIVE_THREADS_ENV = "REPRO_NATIVE_THREADS"

#: Under the automatic thread share a plane gets one thread per this
#: many pixels: below it waking a team (~0.05 ms) costs more than the
#: rows it hands out (a 96x64 request is ~0.1 ms of work in total).
MIN_PIXELS_PER_THREAD = 1 << 16


#: How many native executions the surrounding caller runs side by side
#: (a contextvar, like ``envknobs._VALIDATE_OVERRIDE``: scheduler
#: threads see their own runtime's value).
_SIDE_BY_SIDE: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "repro_native_side_by_side", default=1
)


@contextmanager
def sharing_cores(callers: int) -> Iterator[None]:
    """Scope in which the caller runs ``callers`` native executions at
    once — a serving runtime's scheduler workers — so each takes
    ``1/callers`` of the cores instead of oversubscribing them.  Nested
    scopes compound."""
    token = _SIDE_BY_SIDE.set(_SIDE_BY_SIDE.get() * max(1, int(callers)))
    try:
        yield
    finally:
        _SIDE_BY_SIDE.reset(token)


def resolve_native_threads(
    threads: int | None = None,
    side_by_side: int | None = None,
    pixels: int | None = None,
) -> int:
    """The OpenMP thread count of one compiled call.

    An explicit argument, else ``REPRO_NATIVE_THREADS``, means exactly
    that many.  Otherwise it is the caller's share of the machine:
    :func:`available_cores` divided by the number of native executions
    running ``side_by_side`` (``None`` reads the :func:`sharing_cores`
    scope), and — given the plane size — at most one thread per
    :data:`MIN_PIXELS_PER_THREAD`.  Tiles are independent and nothing is
    reduced, so every count computes the same bits.
    """
    if threads is None and raw_env(NATIVE_THREADS_ENV) is not None:
        threads = int_env(NATIVE_THREADS_ENV, default=1)
    if threads is not None:
        return max(1, int(threads))
    if side_by_side is None:
        side_by_side = _SIDE_BY_SIDE.get()
    share = max(1, available_cores() // max(1, side_by_side))
    if pixels is not None:
        share = min(share, max(1, pixels // MIN_PIXELS_PER_THREAD))
    return share


# libgomp is not fork-safe: a child forked after its parent ran a
# multi-threaded region inherits a thread pool whose threads do not
# exist, and its first team of >1 hangs.  A team of one never touches
# the pool, so such a child runs every kernel serially.
_team_started = False
_serial_after_fork = False


def _after_fork_in_child() -> None:
    global _serial_after_fork
    _serial_after_fork = _team_started


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _prefer_passive_omp_wait() -> None:
    """Ask libgomp — it reads this once, when the first OpenMP library
    is loaded — to sleep at barriers instead of spinning, unless the
    deployment already chose (``OMP_WAIT_POLICY`` / ``GOMP_SPINCOUNT``).

    The default spins ~300k pause iterations before yielding.  On a
    host whose cores are shared (a container's vCPUs), whenever a team
    thread is not actually running the others burn that budget first:
    measured here, 8 ms per parallel region, which made 2 threads 2.3x
    *slower* than 1 for Harris@1024.  Sleeping costs ~0.05 ms per
    region and degrades to single-core speed instead.
    """
    if "GOMP_SPINCOUNT" not in os.environ:
        os.environ.setdefault("OMP_WAIT_POLICY", "passive")


# -- zero-copy metric for row-strided polymorphic inputs -------------------

_metrics_lock = threading.Lock()
_noncontiguous_zero_copy = 0


def _note_zero_copy() -> None:
    global _noncontiguous_zero_copy
    with _metrics_lock:
        _noncontiguous_zero_copy += 1


def noncontiguous_zero_copy_count() -> int:
    """How many non-contiguous input planes ran without a copy.

    Shape-polymorphic kernels take a per-plane leading stride, so any
    row-strided ``float64`` view (a crop, every other row, a
    sub-sampled plane) binds zero-copy; this process-wide counter
    tallies each such avoided ``ascontiguousarray`` copy.
    """
    with _metrics_lock:
        return _noncontiguous_zero_copy


def reset_noncontiguous_zero_copy() -> None:
    """Reset the zero-copy counter (tests, benchmark sections)."""
    global _noncontiguous_zero_copy
    with _metrics_lock:
        _noncontiguous_zero_copy = 0


class _RuntimeFallback(Exception):
    """Bound arrays do not fit the compiled geometry; use the tape."""


def _row_pitch(array: np.ndarray, polymorphic: bool) -> Optional[int]:
    """The row pitch, in pixels, at which a kernel indexes the
    ``float64`` image ``array`` (``(H, W)`` or ``(H, W, C)``) in place,
    or ``None`` when it cannot.

    A C-contiguous image always binds.  Shape-polymorphic kernels take
    a runtime pitch per input, so a view also binds when its pixels are
    dense and its rows lie a whole, non-overlapping number of pixels
    apart; baked-geometry kernels hard-code the width as the pitch.
    """
    width = array.shape[1]
    if array.flags.c_contiguous:
        return width
    pixel = 8 * (array.shape[2] if array.ndim == 3 else 1)
    row, dense = array.strides[0], array.strides[1:]
    if (
        polymorphic
        and dense == ((pixel, 8) if array.ndim == 3 else (8,))
        and row % pixel == 0
        and row >= width * pixel
    ):
        return row // pixel
    return None


def as_bindable(array, polymorphic: bool):
    """``array`` itself, unless it is a ``float64`` image no kernel can
    index in place: then a contiguous copy (one whole-image pass)."""
    if (
        isinstance(array, np.ndarray)
        and array.dtype == np.float64
        and array.ndim in (2, 3)
        and _row_pitch(array, polymorphic) is None
    ):
        return np.ascontiguousarray(array)
    return array


class NativeBlock:
    """One compiled block: the bound C function plus its tape fallback.

    ``execute`` drives the compiled loop nest on zero-copy ``float64``
    buffers, once per channel; inputs that do not match the compiled
    geometry or dtype transparently fall back to the tape plan — block
    ``index`` of ``tape``, compiled on that first fallback if nothing
    compiled it before.
    """

    def __init__(
        self,
        tape: PartitionPlan,
        index: int,
        spec: _BlockSpec,
        fn,
        openmp: bool = True,
    ) -> None:
        self._tape = tape
        self._index = index
        self.spec = spec
        self.output_name = tape.schedule[index].output_name
        #: Whether the library was compiled with ``-fopenmp``; without
        #: it the ``threads`` argument is dead and every call is serial.
        self.openmp = openmp
        #: The effective thread count of the most recent call.
        self.threads = 1
        self._fn = fn
        fn.restype = None
        fn.argtypes = (
            # Addresses, not ``double *`` objects: a channel is bound
            # at ``base + c`` by integer arithmetic.
            [ctypes.c_void_p] * (1 + len(spec.images))
            + [ctypes.c_double] * len(spec.params)
            # width, height, one row pitch per input, threads — or
            # just threads when the geometry is baked.
            + [ctypes.c_int]
            * ((3 + len(spec.images)) if spec.polymorphic else 1)
        )

    @property
    def plan(self) -> BlockPlan:
        """The block's tape — compiled when first asked for."""
        return self._tape.plans[self._index]

    def execute(
        self,
        arrays: Arrays,
        params: Params | None = None,
        threads: int | None = None,
    ) -> np.ndarray:
        """Run the block; falls back to the tape plan when the bound
        arrays do not fit the compiled geometry/dtype.

        ``threads`` is :func:`resolve_native_threads`' argument.

        A shape-polymorphic block can only fall back at its *plan*
        geometry — the tape's grid keys are shape-specialized, so a
        fallback at a foreign geometry would compute the wrong image
        and raises instead.
        """
        try:
            return self._execute_native(arrays, params, threads)
        except _RuntimeFallback as fallback:
            if self.spec.polymorphic and not self._fits_plan_geometry(
                arrays
            ):
                raise ExecutionError(
                    f"shape-polymorphic block {self.output_name!r} "
                    f"cannot fall back to the tape away from its plan "
                    f"geometry ({self.spec.height}x{self.spec.width}): "
                    f"{fallback.args[0]}"
                ) from None
            return self.plan.execute(arrays, params)

    def _fits_plan_geometry(self, arrays: Arrays) -> bool:
        spec = self.spec
        expected = (
            (spec.height, spec.width, spec.channels)
            if spec.channels > 1
            else (spec.height, spec.width)
        )
        return all(
            np.shape(_array_for(name, arrays)) == expected
            for name in spec.images
        )

    def _geometry(self, arrays: Arrays) -> Tuple[int, int]:
        """The runtime ``(height, width)`` of a polymorphic call.

        Inferred from the bound arrays, which must agree on one
        geometry (and carry the compiled channel count); an imageless
        block (pure generator) keeps its plan geometry.
        """
        spec = self.spec
        geometry: Optional[Tuple[int, int]] = None
        for name in spec.images:
            shape = np.shape(_array_for(name, arrays))
            if len(shape) not in (2, 3) or (
                len(shape) == 3 and shape[2] != spec.channels
            ):
                raise _RuntimeFallback(name)
            if geometry is None:
                geometry = shape[:2]
            elif shape[:2] != geometry:
                raise _RuntimeFallback(name)
        return geometry if geometry is not None else (
            spec.height,
            spec.width,
        )

    def _execute_native(
        self,
        arrays: Arrays,
        params: Params | None,
        threads: int | None,
    ) -> np.ndarray:
        params = params or {}
        spec = self.spec
        channels = spec.channels
        if spec.polymorphic:
            height, width = self._geometry(arrays)
        else:
            height, width = spec.height, spec.width
        expected = (
            (height, width, channels) if channels > 1 else (height, width)
        )
        inputs = []
        for name in spec.images:
            array = _array_for(name, arrays)
            if array.dtype != np.float64 or array.shape != expected:
                raise _RuntimeFallback(name)
            inputs.append(array)
        values = []
        for name in spec.params:
            try:
                values.append(float(params[name]))
            except KeyError:
                raise ExecutionError(
                    f"unbound parameter {name!r}"
                ) from None
        thread_count = resolve_native_threads(threads, pixels=height * width)
        out = np.empty(expected, dtype=np.float64)
        self._call(out, inputs, values, thread_count, width, height)
        return out

    def _call(
        self,
        out: np.ndarray,
        inputs: List[np.ndarray],
        params: List[float],
        threads: int,
        width: int,
        height: int,
    ) -> None:
        """Run the compiled function over ``out`` and ``inputs`` on
        ``threads`` threads (1 when the library has no OpenMP, or in a
        child forked from a threaded parent), once per channel."""
        global _team_started
        spec = self.spec
        if not self.openmp or _serial_after_fork:
            threads = 1
        elif threads > 1:
            _team_started = True
        self.threads = threads
        bound, pitches = [out], []  # alive until the last call returns
        for array in inputs:
            pitch = _row_pitch(array, spec.polymorphic)
            if pitch is None:
                array, pitch = np.ascontiguousarray(array), width
            elif not array.flags.c_contiguous:
                _note_zero_copy()
            bound.append(array)
            pitches.append(pitch)
        tail = list(params)
        if spec.polymorphic:
            tail += [width, height] + pitches
        tail.append(threads)
        bases = [array.ctypes.data for array in bound]
        for offset in range(0, 8 * spec.channels, 8):
            self._fn(*[base + offset for base in bases], *tail)
