"""Shape-polymorphic native plans: one compiled artifact, every resolution.

With ``polymorphic=True`` the native lowering emits ``width`` /
``height`` as runtime ``const int`` parameters instead of baked
literals.  The contract these tests pin:

* the generated C source is **byte-identical across resolutions** of
  one pipeline structure, so the content-hash ``.so`` cache compiles
  each structure exactly once;
* a plan built at one geometry executes at any other geometry with
  exactly the bits a shape-specialized plan built *at* that geometry
  produces;
* a polymorphic plan that had to fall back to the tape interpreter for
  some block (the tape is shape-specialized) refuses to run away from
  its plan geometry instead of silently computing the wrong image.
"""

import zlib

import numpy as np
import pytest

from repro.analysis.native_check import verify_native_plan
from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS
from repro.backend import native_lower
from repro.backend.native_exec import (
    NativeLoweringError,
    native_available,
    native_plan_for_partition,
)
from repro.backend.numpy_exec import ExecutionError
from repro.eval.runner import partition_for
from repro.model.benefit import BenefitConfig
from repro.model.hardware import GTX680

needs_cc = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

APP_PARAMS = {"gamma": 0.8, "threshold": 100.0}

#: Plan geometry and three foreign geometries per app (all larger than
#: every mask radius; Night stays small — three channels).
GEOMETRIES = [(40, 28), (24, 18), (56, 36), (33, 27)]

APP_NAMES = sorted(APPLICATIONS)


def _graph(app_name, width, height):
    return APPLICATIONS[app_name].build(width, height).build()


def _inputs(app_name, graph, width, height, salt=0):
    spec = APPLICATIONS[app_name]
    shape = (height, width)
    if spec.channels > 1:
        shape = shape + (spec.channels,)
    rng = np.random.default_rng(zlib.crc32(app_name.encode()) + salt)
    return {
        name: rng.uniform(0.0, 255.0, size=shape)
        for name in graph.pipeline_inputs()
    }


def _polymorphic_plan(app_name, width, height):
    graph = _graph(app_name, width, height)
    partition = partition_for(graph, GTX680, "optimized", BenefitConfig())
    return graph, partition, native_plan_for_partition(
        graph, partition, polymorphic=True
    )


@needs_cc
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_source_is_byte_identical_across_resolutions(app_name):
    sources = set()
    for width, height in GEOMETRIES:
        _, _, plan = _polymorphic_plan(app_name, width, height)
        assert plan.polymorphic
        assert plan.fallback_block_count == 0, plan.fallback_reasons
        sources.add(plan.source)
    assert len(sources) == 1
    # The shared artifact really is resolution-free: no baked extent
    # survives in the emitted C (the geometry arrives as parameters).
    source = sources.pop()
    assert "const int width" in source and "const int height" in source


@needs_cc
def test_specialized_sources_differ_across_resolutions():
    """The inverse control: without ``polymorphic`` the baked extents
    make each resolution its own compilation unit."""
    sources = set()
    for width, height in GEOMETRIES[:2]:
        graph = _graph("Sobel", width, height)
        partition = partition_for(graph, GTX680, "optimized", BenefitConfig())
        plan = native_plan_for_partition(graph, partition)
        assert not plan.polymorphic
        sources.add(plan.source)
    assert len(sources) == 2


#: Geometries the sanitizer's proof is symbolic about: a single pixel,
#: one-pixel-wide strips, planes narrower than every halo margin, and
#: one pixel past the 64x48 plan geometry (a tile edge + 1).
ADVERSARIAL_GEOMETRIES = [(1, 1), (1, 7), (7, 1), (2, 33), (65, 49)]


def _assert_one_plan_serves(app_name, plan_geometry, geometries):
    _, _, plan = _polymorphic_plan(app_name, *plan_geometry)
    assert verify_native_plan(plan) == []
    for salt, (width, height) in enumerate(geometries):
        graph = _graph(app_name, width, height)
        inputs = _inputs(app_name, graph, width, height, salt)
        partition = partition_for(graph, GTX680, "optimized", BenefitConfig())
        reference = run(
            graph,
            inputs,
            APP_PARAMS,
            options=ExecutionOptions(engine="tape", partition=partition),
        )
        served = plan.execute(inputs, APP_PARAMS)
        assert set(reference) == set(served)
        for name in reference:
            if plan.tolerance is None:
                assert np.array_equal(reference[name], served[name]), name
            else:
                rtol, atol = plan.tolerance
                assert np.allclose(
                    reference[name], served[name], rtol=rtol, atol=atol
                ), name


@needs_cc
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_one_plan_serves_every_resolution_bit_identically(app_name):
    _assert_one_plan_serves(app_name, GEOMETRIES[0], GEOMETRIES)


@needs_cc
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_one_plan_serves_adversarial_geometries(app_name):
    _assert_one_plan_serves(app_name, (64, 48), ADVERSARIAL_GEOMETRIES)


@needs_cc
def test_fallback_blocks_pin_the_plan_to_its_geometry(monkeypatch):
    """A polymorphic plan with a tape-fallback block must refuse foreign
    geometries — the tape baked the plan-time extents."""
    real_lower = native_lower._lower_block
    poisoned = {"count": 0}

    def lower_first_block_fails(plan, fn_name, polymorphic=False, **kw):
        if poisoned["count"] == 0:
            poisoned["count"] += 1
            raise NativeLoweringError("injected: block refuses to lower")
        return real_lower(plan, fn_name, polymorphic, **kw)

    monkeypatch.setattr(native_lower, "_lower_block", lower_first_block_fails)
    width, height = GEOMETRIES[0]
    graph, _, plan = _polymorphic_plan("Sobel", width, height)
    assert plan.fallback_block_count == 1

    # At the plan geometry the mixed plan still serves correctly.
    inputs = _inputs("Sobel", graph, width, height)
    at_home = plan.execute(inputs, APP_PARAMS)
    assert set(at_home) >= set(graph.external_outputs)

    foreign_w, foreign_h = GEOMETRIES[1]
    foreign_graph = _graph("Sobel", foreign_w, foreign_h)
    foreign = _inputs("Sobel", foreign_graph, foreign_w, foreign_h)
    with pytest.raises(ExecutionError, match="cannot run away"):
        plan.execute(foreign, APP_PARAMS)


@needs_cc
def test_extent_guard_rejects_foreign_extents_in_grid_keys():
    """``_Body.extent`` is the safety net of the substitution: a baked
    extent that is not the block's iteration-space extent cannot be
    renamed to ``width``/``height``."""
    sig = native_lower._Signature((), (), 40, 28, polymorphic=True, f32=False)
    body = native_lower._Body(interior=False, sig=sig)
    assert body.extent("x", 40) == ("id", "width")
    assert body.extent("y", 28) == ("id", "height")
    with pytest.raises(NativeLoweringError, match="differs from the iteration"):
        body.extent("x", 64)
