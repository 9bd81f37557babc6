"""Shared construction helpers for the test-suite.

Small factory functions building kernels and pipelines with known
shapes: linear chains, producer diamonds, local/point mixes.  Tests use
these instead of the full paper applications when they only need a
structural property.
"""

from __future__ import annotations

import ctypes
import subprocess
import threading
from contextlib import contextmanager
from typing import Sequence

import numpy as np
import pytest

from repro.api import ExecutionOptions
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.functional import convolve
from repro.dsl.image import Image
from repro.dsl.kernel import Kernel
from repro.dsl.mask import Mask
from repro.dsl.pipeline import Pipeline
from repro.ir.expr import Const

#: The unfused program — every kernel on its own: the reference a fused
#: result is compared to.
STAGED = ExecutionOptions(fuse=False)

#: A small unnormalized blur mask for local test kernels.
BLUR3 = Mask([[1, 2, 1], [2, 4, 2], [1, 2, 1]])

#: An asymmetric 3x3 mask (no accidental symmetry in tests).
EDGE3 = Mask([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])

#: A 5x5 mask for mixed-size local-to-local tests.
BLUR5 = Mask(
    [
        [1, 1, 2, 1, 1],
        [1, 2, 4, 2, 1],
        [2, 4, 8, 4, 2],
        [1, 2, 4, 2, 1],
        [1, 1, 2, 1, 1],
    ]
)


def image(name: str, width: int = 8, height: int = 8, channels: int = 1) -> Image:
    return Image.create(name, width, height, channels)


def point_kernel(
    name: str,
    source: Image,
    output: Image,
    scale: float = 2.0,
    offset: float = 1.0,
    boundary: BoundarySpec | BoundaryMode | None = None,
) -> Kernel:
    """A point kernel computing ``scale * in + offset``."""
    return Kernel.from_function(
        name,
        [source],
        output,
        lambda a: a() * Const(scale) + Const(offset),
        boundary=boundary,
    )


def local_kernel(
    name: str,
    source: Image,
    output: Image,
    mask: Mask = BLUR3,
    boundary: BoundarySpec | BoundaryMode | None = None,
) -> Kernel:
    """A local convolution kernel."""
    return Kernel.from_function(
        name,
        [source],
        output,
        lambda a: convolve(a, mask),
        boundary=boundary,
    )


def chain_pipeline(
    patterns: Sequence[str],
    width: int = 8,
    height: int = 8,
    boundary: BoundarySpec | BoundaryMode | None = None,
    masks: Sequence[Mask] | None = None,
) -> Pipeline:
    """A linear chain of kernels, one per pattern letter.

    ``patterns`` is a sequence like ``("p", "l", "p")`` — point or local
    stages.  Images are named ``img0`` (pipeline input) through
    ``img<n>``; kernels are named ``k0`` ... ``k<n-1>``.
    """
    pipe = Pipeline("chain")
    images = [image(f"img{i}", width, height) for i in range(len(patterns) + 1)]
    local_index = 0
    for i, pattern in enumerate(patterns):
        if pattern == "p":
            pipe.add(
                point_kernel(
                    f"k{i}", images[i], images[i + 1], boundary=boundary
                )
            )
        elif pattern == "l":
            mask = BLUR3
            if masks is not None:
                mask = masks[local_index]
            local_index += 1
            pipe.add(
                local_kernel(
                    f"k{i}", images[i], images[i + 1], mask, boundary=boundary
                )
            )
        else:
            raise ValueError(f"unknown pattern {pattern!r}")
    return pipe


def diamond_pipeline(width: int = 8, height: int = 8) -> Pipeline:
    """A shared-input diamond: every kernel also reads the source image.

    Mirrors the Unsharp shape (Fig. 2b): source -> a (local), then
    b = f(source, a), c = g(source, b).
    """
    pipe = Pipeline("diamond")
    src = image("src", width, height)
    mid_a = image("mid_a", width, height)
    mid_b = image("mid_b", width, height)
    out = image("out", width, height)
    pipe.add(local_kernel("a", src, mid_a))
    pipe.add(
        Kernel.from_function(
            "b", [src, mid_a], mid_b, lambda s, a: s() - a() * Const(0.5)
        )
    )
    pipe.add(
        Kernel.from_function(
            "c", [src, mid_b], out, lambda s, b: s() + b() * Const(0.25)
        )
    )
    return pipe


def random_image(
    width: int = 8, height: int = 8, channels: int = 1, seed: int = 0
) -> np.ndarray:
    """A deterministic random test image in [0, 255]."""
    rng = np.random.default_rng(seed)
    shape = (height, width) if channels == 1 else (height, width, channels)
    return rng.uniform(0.0, 255.0, size=shape)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so every call's result lands in the returned
    list."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(module, name, counting)
    return calls


@contextmanager
def row_band_everywhere(enabled: bool = True):
    """Lower every native block as the row band over its fused tape
    (a no-op unless ``enabled``).

    No ``REPRO_NATIVE_TILE2D`` value turns staging off, so this sets the
    stage-margin cap below zero: every chain is refused and
    materializes nothing, the form a single-kernel block always takes.
    Plan keys do not see the cap, so the in-process plan caches are
    emptied on entry and on exit.
    """
    from repro.backend import native_lower
    from repro.backend.native_exec import clear_native_caches

    if not enabled:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native_lower, "_TILE2D_MAX_MARGIN", -1)
        clear_native_caches()
        try:
            yield
        finally:
            clear_native_caches()


def app_request(app: str, width: int = 96, height: int = 64, seed: int = 0):
    """A freshly built graph of the paper app ``app``, its request
    inputs and its default parameters."""
    from repro.apps import APPLICATIONS, request_inputs
    from repro.serve.registry import DEFAULT_APP_PARAMS

    spec = APPLICATIONS[app]
    return (
        spec.build(width, height).build(),
        request_inputs(spec, width, height, seed),
        DEFAULT_APP_PARAMS.get(app),
    )


def process_entry(graph, engine: str = "native"):
    """The one ``PROCESS_CACHE`` entry built for ``graph`` on ``engine``."""
    from repro.serve.plancache import PROCESS_CACHE

    (entry,) = [
        e
        for e in PROCESS_CACHE._entries.values()
        if e.graph is graph and e.engine == engine
    ]
    return entry


def wait_for_builds() -> None:
    """Return once both background builders — trial and differential
    candidates' — have run every job queued so far (a job of a retired
    entry returns at once)."""
    from repro.serve import plancache

    for pool in list(plancache._builders.values()):
        pool.submit(lambda: None).result()


@contextmanager
def served_natively():
    """Assert that a :class:`NativePartitionPlan` executed inside the
    block: a cold direct native request may be answered on the tape
    while its native plan compiles, and a native-vs-tape check must not
    compare the tape with itself."""
    from repro.backend.native_exec import NativePartitionPlan

    calls = []
    real = NativePartitionPlan.execute

    def counting(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NativePartitionPlan, "execute", counting)
        yield calls
    assert calls, "no native plan executed: the result came from the tape"


class ToolchainSpy:
    """Every compiler invocation and every ``dlopen``, in order, and the
    thread (``threading.get_ident()``) that ran each command."""

    def __init__(self, monkeypatch):
        self.commands = []
        self.threads = []
        self.loads = []
        self._lock = threading.Lock()
        real_run, real_cdll = subprocess.run, ctypes.CDLL

        def run(command, *args, **kwargs):
            with self._lock:
                self.commands.append(list(command))
                self.threads.append(threading.get_ident())
            return real_run(command, *args, **kwargs)

        def cdll(path, *args, **kwargs):
            with self._lock:
                self.loads.append(path)
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(subprocess, "run", run)
        monkeypatch.setattr(ctypes, "CDLL", cdll)

    @property
    def compiles(self):
        return [c for c in self.commands if "-c" in c]

    @property
    def links(self):
        return [c for c in self.commands if "-shared" in c]

    def reset(self):
        self.commands.clear()
        self.threads.clear()
        self.loads.clear()
