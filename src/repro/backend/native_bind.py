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
serial.  A plane too small for the automatic share ever to exceed one
thread (:func:`~repro.backend.native_lower.parallel_plane`) is lowered
without a parallel region, so it runs serially under any count and its
block reports 1.  The team is the native engine's only parallelism: a
request's blocks run one after another, each on the whole share.  Tiles
are independent and nothing is reduced, so the count never changes a
bit.

**Channels are a stride.**  A block over ``C``-channel images is called
once per channel on the caller's own ``(H, W, C)`` arrays and one fresh
``(H, W, C)`` result, every pointer advanced to ``base + c``: the
kernel's global accesses step ``C`` elements per pixel
(:mod:`repro.backend.loopnest`), so nothing is transposed in or out.

**Strided views.**  A kernel's geometry is baked: its row pitch is its
width.  A ``float64`` view it cannot index in place — a crop, every
other row, reversed or sliced channels — is copied by
:func:`as_bindable`, once per request however many blocks read it, and
computes the same bits as its contiguous copy.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

from repro.envknobs import int_env, raw_env

from repro.backend.cpu_exec import available_cores
from repro.backend.native_lower import MIN_PIXELS_PER_THREAD, _BlockSpec
from repro.backend.numpy_exec import Arrays, ExecutionError, Params, _array_for
from repro.backend.plan import BlockPlan, PartitionPlan

#: Environment knob: OpenMP threads for the row-tiled loop nests.
NATIVE_THREADS_ENV = "REPRO_NATIVE_THREADS"


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
    reduced, so every count computes the same bits.  A block whose plane
    is below :func:`~repro.backend.native_lower.parallel_plane` runs its
    call on one thread whatever this returns (:class:`NativeBlock`).
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


class _RuntimeFallback(Exception):
    """Bound arrays do not fit the compiled geometry; use the tape."""


def as_bindable(array):
    """``array`` itself, unless it is a ``float64`` image no kernel can
    index in place — any view that is not C-contiguous: then a
    contiguous copy (one whole-image pass)."""
    if (
        isinstance(array, np.ndarray)
        and array.dtype == np.float64
        and array.ndim in (2, 3)
        and not array.flags.c_contiguous
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
        #: Whether a call can run a team: the library was compiled with
        #: ``-fopenmp`` and the block's tile loop is a parallel region
        #: (``spec.parallel``).  Otherwise the ``threads`` argument is
        #: dead and every call is serial.
        self.parallel = openmp and spec.parallel
        #: The effective thread count of the most recent call.
        self.threads = 1
        self._fn = fn
        fn.restype = None
        fn.argtypes = (
            # Addresses, not ``double *`` objects: a channel is bound
            # at ``base + c`` by integer arithmetic.
            [ctypes.c_void_p] * (1 + len(spec.images))
            + [ctypes.c_double] * len(spec.params)
            + [ctypes.c_int]  # threads
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
        """
        try:
            return self._execute_native(arrays, params, threads)
        except _RuntimeFallback:
            return self.plan.execute(arrays, params)

    def _execute_native(
        self,
        arrays: Arrays,
        params: Params | None,
        threads: int | None,
    ) -> np.ndarray:
        params = params or {}
        spec = self.spec
        channels = spec.channels
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
        self._call(out, inputs, values, thread_count)
        return out

    def _call(
        self,
        out: np.ndarray,
        inputs: List[np.ndarray],
        params: List[float],
        threads: int,
    ) -> None:
        """Run the compiled function over ``out`` and ``inputs`` on
        ``threads`` threads (1 when the block cannot run a team, or in a
        child forked from a threaded parent), once per channel."""
        global _team_started
        spec = self.spec
        if not self.parallel or _serial_after_fork:
            threads = 1
        elif threads > 1:
            _team_started = True
        self.threads = threads
        # Alive until the last call returns.
        bound = [out] + [np.ascontiguousarray(array) for array in inputs]
        tail = [*params, threads]
        bases = [array.ctypes.data for array in bound]
        for offset in range(0, 8 * spec.channels, 8):
            self._fn(*[base + offset for base in bases], *tail)
