"""The plan cache's miss split: structure misses and shape misses.

A native plan is compiled at the geometry of its key, so every
resolution of a pipeline is an entry of its own.  The cache still tells
the two kinds of miss apart, through the graph's shape-agnostic
:meth:`~repro.graph.dag.KernelGraph.structure_signature`: the first
sighting of a pipeline is a *structure* miss, and the same pipeline at
a new geometry is a *shape* miss.
"""

import zlib

import numpy as np
import pytest

from repro.apps import APPLICATIONS, request_inputs
from repro.backend import native_exec
from repro.backend.native_exec import native_available
from repro.serve.plancache import FusionSettings, PlanCache, plan_key
from repro.serve.registry import default_registry
from repro.serve.runtime import ServingRuntime

needs_cc = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

#: Four resolutions, all clearing every paper mask radius.
RESOLUTIONS = [(64, 48), (48, 32), (80, 60), (96, 64)]


def _inputs(app_name, width, height, salt=0):
    seed = zlib.crc32(app_name.encode()) + salt
    return request_inputs(APPLICATIONS[app_name], width, height, seed)


@pytest.fixture
def native_builds(monkeypatch):
    """The geometry of every native partition build."""
    builds = []
    real_build = native_exec._build_native_partition

    def counting_build(plan, lowered, f32):
        space = plan.schedule[0].space
        builds.append((space.width, space.height))
        return real_build(plan, lowered, f32)

    monkeypatch.setattr(
        native_exec, "_build_native_partition", counting_build
    )
    return builds


def test_miss_split_classifies_shape_misses():
    """Re-missing a known structure at a new geometry books a *shape*
    miss."""
    cache = PlanCache()
    fusion = FusionSettings()
    keys = [
        plan_key(f"sig@{w}x{h}", {"input": np.zeros((h, w))}, "tape", fusion)
        for w, h in RESOLUTIONS
    ]
    for key in keys:
        assert cache.get(key, structure_key="structure") is None
    stats = cache.stats()
    assert stats["misses"] == len(RESOLUTIONS)
    assert stats["miss_structure"] == 1
    assert stats["miss_shape"] == len(RESOLUTIONS) - 1
    # A different structure opens its own account.
    other = plan_key(
        "other@64x48", {"input": np.zeros((48, 64))}, "tape", fusion
    )
    assert cache.get(other, structure_key="other") is None
    assert cache.stats()["miss_structure"] == 2


@needs_cc
def test_shape_keyed_replay_misses_once_per_resolution(native_builds):
    app_name = "Harris"
    registry = default_registry(apps={app_name})
    with ServingRuntime(registry, engine="native") as runtime:
        for salt in range(3):
            for width, height in RESOLUTIONS:
                runtime.execute(app_name, _inputs(app_name, width, height, salt))
        stats = runtime.metrics_snapshot()["plan_cache"]

    total = len(RESOLUTIONS) * 3
    assert stats["misses"] == len(RESOLUTIONS)
    assert stats["hits"] == total - len(RESOLUTIONS)
    # The split names the cause: one structure miss, the rest are shape
    # misses...
    assert stats["miss_structure"] == 1
    assert stats["miss_shape"] == len(RESOLUTIONS) - 1
    # ...and each of them paid for a native build at its own geometry.
    assert native_builds == RESOLUTIONS
