"""Window-invariant hoisting in the tile2d lowering.

A pure single-read subexpression with a libm call or a division that a
kernel applies at several taps of one image (``log(in(dx, dy) + 1)``
under a window sum) becomes a point stage of the tile2d lowering, so it
is computed once per halo-extended tile pixel instead of once per tap.
The graph, the partition and the tape are untouched; the values, and
the order they are combined in, are those of the unsplit kernel — the
hoisted lowering is ``array_equal`` to the un-hoisted one, not merely
within tolerance.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import row_band_everywhere

from analysis.ir_mutation import find_nodes, replace_subtree, shifted, with_ir

from repro.analysis.native_check import verify_native_blocks
from repro.apps import APPLICATIONS
from repro.backend import native_exec, native_lower
from repro.backend.loopnest import IntDecl, ScratchDecl
from repro.backend.native_exec import (
    assert_native_equiv,
    native_available,
    native_plan_for_partition,
    tile2d_report,
)
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.functional import window_reduce
from repro.dsl.image import Image
from repro.dsl.kernel import Kernel
from repro.dsl.mask import Domain
from repro.dsl.pipeline import Pipeline
from repro.eval.runner import partition_for
from repro.graph.partition import Partition, PartitionBlock
from repro.ir import ops
from repro.ir.expr import Const
from repro.lazy.apps import lazy_trace
from repro.model.hardware import GTX680

pytestmark = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

MAPS = {
    "log": lambda v: ops.log(v + Const(1.0)),
    "exp": lambda v: ops.exp(v * Const(0.01)),
    "ratio": lambda v: v / (v + Const(3.0)),
    "sqrt": ops.sqrt,
    "identity": None,
}

#: Maps whose value at the border constant C computes exactly as NumPy
#: does: the only ones hoisted under a CONSTANT boundary.
EXACT_MAPS = {"ratio", "sqrt"}

COMBINERS = {"add": lambda a, b: a + b, "max": ops.maximum}

#: Modes whose index exchange commutes with a point function *and*
#: whose reads a tile can see (the tile2d internal-edge modes).
HOISTING_MODES = {BoundaryMode.CLAMP, BoundaryMode.UNDEFINED}


def _window_graph(map_name, combiner, mode, k, chain, width, height):
    """``window_reduce(acc, Domain(k, k), combiner, map)`` as a one-kernel
    pipeline, or followed by a point kernel when ``chain``."""
    pipe = Pipeline("window")
    src = Image.create("src", width, height)
    reduced = Image.create("reduced", width, height)
    boundary = BoundarySpec(mode, 7.0)
    pipe.add(
        Kernel.from_function(
            "reduce",
            [src],
            reduced,
            lambda a: window_reduce(
                a, Domain(k, k), COMBINERS[combiner], MAPS[map_name]
            )
            * Const(0.5),
            boundary=boundary,
        )
    )
    if chain:
        scaled = Image.create("scaled", width, height)
        pipe.add(
            Kernel.from_function(
                "scale", [reduced], scaled, lambda a: a() * Const(3.0) - Const(1.0)
            )
        )
    graph = pipe.build()
    block = PartitionBlock(graph, graph.kernel_names)
    return graph, Partition(graph, [block])


def _plan(graph, partition, monkeypatch, row_band=False, hoist=True):
    """A fresh native plan under one lowering: ``row_band=True`` stages
    nothing (the row band over the fused tape), ``hoist=False`` turns
    the rewrite into the identity (the un-hoisted tile2d lowering)."""
    monkeypatch.setenv("REPRO_NATIVE_TILE2D", "auto")
    if not hoist:
        monkeypatch.setattr(
            native_lower,
            "_hoist_window_invariants",
            lambda members, graph, f32: (members, ()),
        )
    native_exec.clear_native_caches()
    try:
        with row_band_everywhere(row_band):
            return native_plan_for_partition(graph, partition)
    finally:
        monkeypatch.undo()


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    map_name=st.sampled_from(sorted(MAPS)),
    combiner=st.sampled_from(sorted(COMBINERS)),
    mode=st.sampled_from(list(BoundaryMode)),
    k=st.sampled_from([3, 5]),
    chain=st.booleans(),
    width=st.integers(min_value=1, max_value=70),
    height=st.integers(min_value=1, max_value=45),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_hoisted_lowering_equals_the_unhoisted_one(
    map_name, combiner, mode, k, chain, width, height, seed
):
    graph, partition = _window_graph(
        map_name, combiner, mode, k, chain, width, height
    )
    inputs = {
        "src": np.random.default_rng(seed).uniform(0.0, 255.0, (height, width))
    }
    with pytest.MonkeyPatch.context() as patch:
        hoisted = _plan(graph, partition, patch)
        row_band = _plan(graph, partition, patch, row_band=True)
        unhoisted = _plan(graph, partition, patch, hoist=False)
    assert hoisted.fallback_block_count == 0
    (spec,) = [native.spec for _plan_, native in hoisted.blocks]
    (report,) = tile2d_report(graph, partition)
    output = "scaled" if chain else "reduced"

    if map_name == "identity":
        assert not spec.hoisted and output not in hoisted.hoisted
    elif mode in HOISTING_MODES or (
        mode is BoundaryMode.CONSTANT and map_name in EXACT_MAPS
    ):
        (note,) = hoisted.hoisted[output]
        assert note["stage"] == "reduce_w0" and note["taps"] == k * k
        assert spec.tile2d is not None
        (entry,) = report["hoisted"]
        assert entry["margin"] == [k // 2] * 4
    else:
        # Declined, with the reason where decisions are reported: on
        # the plan when the block is tiled anyway, in the report's
        # row-band reason when the block had nothing else to tile.
        if chain:
            (note,) = hoisted.hoisted[output]
            reason = note["declined"]
        else:
            assert spec.tile2d is None
            reason = report["row_band_reason"]
        assert (
            mode.value in reason if mode is not BoundaryMode.CONSTANT
            else "f(constant)" in reason
        )

    # Strict mode checked the hoisted run against the tape already;
    # say so explicitly, then demand the bits of the other lowerings.
    env = hoisted.execute(inputs)
    tape = hoisted.plan.execute(dict(inputs))
    assert_native_equiv(tape[output], env[output], hoisted.tolerance)
    for other in (row_band, unhoisted):
        assert np.array_equal(other.execute(inputs)[output], env[output])


def _calls(source, fn):
    """Calls of libm's ``fn`` in a plan's kernels: through the emitted
    ``repro_<fn>`` libmvec wrapper, or ``fn`` itself on a host without
    its variant (the declarations and the support unit pass no slot)."""
    return len(re.findall(rf"\b(?:repro_)?{fn}\(s\d", source))


def _enhance_plan(width=64, height=48):
    graph = APPLICATIONS["Enhance"].build(width, height).build()
    partition = partition_for(graph, GTX680, "optimized")
    return native_plan_for_partition(graph, partition)


class TestEnhance:
    def test_one_log_per_pixel_not_nine(self):
        plan = _enhance_plan()
        # One stage body holds the log; the parent emitted nine per body.
        assert _calls(plan.source, "log") == 1
        assert _calls(plan.source, "exp") == 2  # halo + interior of gmean
        (note,) = plan.hoisted["enhanced"]
        assert note == {
            "kernel": "gmean", "image": "input", "taps": 9, "stage": "gmean_w0",
        }

    def test_lazy_sources_get_it_at_any_size(self):
        graph = lazy_trace("Enhance", 64, 48).graph()
        partition = partition_for(graph, GTX680, "optimized")
        plan = native_plan_for_partition(graph, partition)
        assert _calls(plan.source, "log") == 1
        # Geometry-free: the same decision at another size.
        bigger = lazy_trace("Enhance", 200, 120).graph()
        other = native_plan_for_partition(
            bigger, partition_for(bigger, GTX680, "optimized")
        )
        assert _calls(other.source, "log") == 1
        assert other.hoisted == plan.hoisted

    def test_nothing_is_hoisted_without_tile2d(self):
        with row_band_everywhere():
            plan = _enhance_plan()
        assert plan.hoisted == {}
        assert _calls(plan.source, "log") == 18  # nine taps x two bodies

    def test_no_other_app_is_touched(self):
        for app in sorted(APPLICATIONS):
            graph = APPLICATIONS[app].build(64, 48).build()
            partition = partition_for(graph, GTX680, "optimized")
            notes = [
                entry["hoisted"]
                for entry in tile2d_report(graph, partition)
                if "hoisted" in entry
            ]
            assert bool(notes) == (app == "Enhance"), app


class TestSanitizerProvesTheHoistedStage:
    """NAT001-004 get no exemption: the stage is a tile2d stage like any
    other, and defects seeded into it are caught."""

    @pytest.fixture(scope="class")
    def enhance(self):
        plan = _enhance_plan()
        (native,) = [native for _plan, native in plan.blocks]
        assert verify_native_blocks([native]) == []
        return native

    def _codes(self, native, old, new):
        ir = replace_subtree(native.spec.ir, old, new)
        assert ir != native.spec.ir, f"defect site {old!r} not in the tree"
        return {d.code for d in verify_native_blocks([with_ir(native, ir)])}

    def test_undersized_stage_scratch(self, enhance):
        (decl,) = find_nodes(enhance.spec.ir, ScratchDecl, name="scr_0")
        codes = self._codes(enhance, decl, decl._replace(size=decl.size // 2))
        assert "NAT001" in codes

    def test_stage_region_without_its_halo(self, enhance):
        # The hoisted stage must cover the window's reach; a region
        # clipped to the tile leaves the taps reading outside it.
        (decl,) = find_nodes(enhance.spec.ir, IntDecl, name="sx0_0")
        lowered = replace_subtree(decl.expr, ("num", 1), ("num", 0))
        assert self._codes(enhance, decl, IntDecl("sx0_0", lowered))

    def test_tap_past_the_stage_margin(self, enhance):
        assert self._codes(enhance, shifted("x", 1), shifted("x", 2))


def test_a_stage_past_the_margin_cap_keeps_the_unsplit_tiles(monkeypatch):
    """Hoisting widens one stage's halo by the window radius; when that
    alone tips a chain over the margin cap, the chain is tiled unsplit
    rather than dropped to the row band."""
    pipe = Pipeline("capped")
    src, mid, out = (Image.create(name, 40, 30) for name in ("src", "mid", "out"))
    pipe.add(
        Kernel.from_function(
            "logsum",
            [src],
            mid,
            lambda a: window_reduce(a, Domain(3, 3), COMBINERS["add"], MAPS["log"]),
        )
    )
    pipe.add(
        Kernel.from_function(
            "blur", [mid], out, lambda a: window_reduce(a, Domain(3, 3), COMBINERS["add"])
        )
    )
    graph = pipe.build()
    partition = Partition(graph, [PartitionBlock(graph, graph.kernel_names)])
    inputs = {"src": np.random.default_rng(9).uniform(0.0, 255.0, (30, 40))}
    with pytest.MonkeyPatch.context() as patch:
        roomy = _plan(graph, partition, patch)
    (spec,) = [native.spec for _plan_, native in roomy.blocks]
    assert spec.tile2d is not None and roomy.hoisted  # margin 2 fits 32
    monkeypatch.setattr(native_lower, "_TILE2D_MAX_MARGIN", 1)
    native_exec.clear_native_caches()
    capped = native_plan_for_partition(graph, partition)
    (spec,) = [native.spec for _plan_, native in capped.blocks]
    assert spec.tile2d is not None and capped.hoisted == {}
    assert np.array_equal(
        capped.execute(inputs)["out"], roomy.execute(inputs)["out"]
    )
    native_exec.clear_native_caches()
