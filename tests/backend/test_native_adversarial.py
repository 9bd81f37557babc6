"""Native plans built *at* adversarial geometries.

A native kernel is lowered, proved and compiled at the geometry of its
plan.  The geometries here are where the interior/halo split, the tile
grid and the sanitizer's proof are thinnest: a single pixel, one-pixel
strips, planes narrower than every halo margin, and one pixel past a
64x48 plane (a tile edge + 1).  At each, every paper app must lower
without a tape-fallback block, prove clean, and match the tape.
"""

import zlib

import numpy as np
import pytest

from repro.analysis.native_check import verify_native_plan
from repro.apps import APPLICATIONS
from repro.backend.native_exec import (
    assert_native_equiv,
    native_available,
    native_plan_for_partition,
    tolerance_for,
)
from repro.eval.runner import partition_for
from repro.model.benefit import BenefitConfig
from repro.model.hardware import GTX680

pytestmark = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

APP_PARAMS = {"gamma": 0.8, "threshold": 100.0}

#: (width, height) of each plan.
ADVERSARIAL_GEOMETRIES = [(1, 1), (1, 7), (7, 1), (2, 33), (65, 49)]


@pytest.mark.parametrize(
    "width, height",
    ADVERSARIAL_GEOMETRIES,
    ids=[f"{w}x{h}" for w, h in ADVERSARIAL_GEOMETRIES],
)
@pytest.mark.parametrize("app_name", sorted(APPLICATIONS))
def test_every_app_lowers_proves_and_matches_at(app_name, width, height):
    spec = APPLICATIONS[app_name]
    graph = spec.build(width, height).build()
    partition = partition_for(graph, GTX680, "optimized", BenefitConfig())
    plan = native_plan_for_partition(graph, partition)
    assert plan.fallback_block_count == 0, plan.fallback_reasons
    assert verify_native_plan(plan) == []

    shape = (height, width) + ((spec.channels,) if spec.channels > 1 else ())
    rng = np.random.default_rng(zlib.crc32(app_name.encode()) + width * height)
    inputs = {
        name: rng.uniform(0.0, 255.0, size=shape)
        for name in graph.pipeline_inputs()
    }
    expected = plan.plan.execute(dict(inputs), APP_PARAMS)
    served = plan.execute(dict(inputs), APP_PARAMS)
    assert set(served) == set(expected)
    tolerance = tolerance_for(plan.plan.plans)
    for name, value in expected.items():
        assert_native_equiv(value, served[name], tolerance, context=name)
