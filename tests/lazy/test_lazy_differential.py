"""Differential suite: lazy-recorded apps vs their hand-built twins.

The acceptance bar of the lazy frontend: for every paper application,
the trace recorded through :mod:`repro.lazy.apps` must lower to a
:class:`~repro.graph.dag.KernelGraph` that is *indistinguishable* from
the hand-built pipeline —

* identical :meth:`~repro.graph.dag.KernelGraph.structural_signature`
  (same kernels, same bodies, same geometry),
* identical :meth:`~repro.graph.dag.KernelGraph.structure_signature`
  (the shape-agnostic identity the plan cache's miss accounting uses),
* bit-identical pixels under the tape engine, and under the native
  engine when a C compiler is present.

Because the signatures match, the fusion engine, the plan cache, and
the native ``.so`` cache all treat a lazy-built app and its hand-built
twin as the *same* pipeline.
"""

import zlib

import numpy as np
import pytest

from helpers import served_natively

from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS
from repro.backend.native_exec import native_available
from repro.lazy.apps import LAZY_BUILDERS, lazy_trace

# A cold direct native request compiles before it answers: this suite's
# subject is native output, which a tiered first answer would not be.
pytestmark = pytest.mark.usefixtures("blocking_native")

needs_cc = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

#: Runtime parameter bindings covering every app's ``Param`` reads.
APP_PARAMS = {"gamma": 0.8, "threshold": 100.0}

#: Shrunk geometries (border-heavy): identical to the native-equiv suite.
APP_GEOMETRY = {
    "Harris": (40, 28),
    "Sobel": (40, 28),
    "Unsharp": (40, 28),
    "ShiTomasi": (40, 28),
    "Enhance": (40, 28),
    "Night": (24, 18),
}

APP_NAMES = sorted(LAZY_BUILDERS)


def _pair(app_name):
    """(hand-built graph, lazy-lowered graph, request inputs)."""
    spec = APPLICATIONS[app_name]
    width, height = APP_GEOMETRY[app_name]
    hand = spec.build(width, height).build()
    lazy = lazy_trace(app_name, width, height).graph()
    shape = (height, width)
    if spec.channels > 1:
        shape = shape + (spec.channels,)
    rng = np.random.default_rng(zlib.crc32(app_name.encode()))
    inputs = {
        name: rng.uniform(0.0, 255.0, size=shape)
        for name in hand.pipeline_inputs()
    }
    return hand, lazy, inputs


def test_lazy_builders_cover_the_registry():
    assert set(LAZY_BUILDERS) == set(APPLICATIONS)


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_structural_signature_identical(app_name):
    hand, lazy, _ = _pair(app_name)
    assert lazy.structural_signature() == hand.structural_signature()


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_structure_signature_identical(app_name):
    hand, lazy, _ = _pair(app_name)
    assert lazy.structure_signature() == hand.structure_signature()


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_kernel_roster_identical(app_name):
    hand, lazy, _ = _pair(app_name)
    assert lazy.kernel_names == hand.kernel_names
    for name in hand.kernel_names:
        assert lazy.kernel(name).body == hand.kernel(name).body
        assert [a.image.name for a in lazy.kernel(name).accessors] == [
            a.image.name for a in hand.kernel(name).accessors
        ]


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_structure_signature_stable_across_resolutions(app_name):
    """The shape-agnostic signature is what lets one compiled native
    plan serve every resolution: it must not move with geometry."""
    small = lazy_trace(app_name, 24, 18).graph()
    large = lazy_trace(app_name, 64, 48).graph()
    assert small.structure_signature() == large.structure_signature()
    assert small.structural_signature() != large.structural_signature()


@pytest.mark.parametrize("app_name", APP_NAMES)
def test_bit_identical_under_tape_engine(app_name):
    hand, lazy, inputs = _pair(app_name)
    options = ExecutionOptions(engine="tape")
    reference = run(hand, inputs, APP_PARAMS, options=options)
    recorded = run(lazy, inputs, APP_PARAMS, options=options)
    assert set(reference) == set(recorded)
    for name in reference:
        assert np.array_equal(reference[name], recorded[name]), name


@needs_cc
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_bit_identical_under_native_engine(app_name):
    """Same structure, same generated C, same bits: a lazy app and its
    hand-built twin are interchangeable under the native engine too."""
    hand, lazy, inputs = _pair(app_name)
    options = ExecutionOptions(engine="native")
    with served_natively():
        reference = run(hand, inputs, APP_PARAMS, options=options)
        recorded = run(lazy, inputs, APP_PARAMS, options=options)
    assert set(reference) == set(recorded)
    for name in reference:
        assert np.array_equal(reference[name], recorded[name]), name
