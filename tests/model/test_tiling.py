"""The CPU 2D overlapped-tiling cost model (:mod:`repro.model.tiling`)."""

import pytest

from repro.model.hardware import CpuCacheSpec
from repro.model.tiling import (
    STACK_SCRATCH_CAP,
    StageFootprint,
    TileChoice,
    choose_tile,
    recompute_factor,
    scratch_bytes,
    sweep_tiles,
    tile_cost,
)

CACHES = CpuCacheSpec(
    l1d_bytes=32 * 1024,
    l2_bytes=1024 * 1024,
    l3_bytes=8 * 1024 * 1024,
    source="test",
)


def _chain(margin=1, stages=2):
    """A fused chain: ``stages`` materialized stencil stages plus the
    destination (which writes the output plane, no scratch)."""
    footprints = [
        StageFootprint(
            f"s{i}",
            left=margin,
            right=margin,
            top=margin,
            bottom=margin,
            weight=float(9),
        )
        for i in range(stages)
    ]
    footprints.append(
        StageFootprint("dest", weight=2.0, materialized=False)
    )
    return footprints


class TestFootprints:
    def test_area_is_halo_extended(self):
        s = StageFootprint("s", left=2, right=1, top=1, bottom=3)
        assert s.area(8, 32) == (8 + 1 + 3) * (32 + 2 + 1)

    def test_scratch_skips_the_destination(self):
        stages = _chain(margin=1, stages=2)
        per_stage = (8 + 2) * (32 + 2) * 8
        assert scratch_bytes(stages, 8, 32) == 2 * per_stage

    def test_recompute_shrinks_with_tile_area(self):
        stages = _chain(margin=2)
        small = recompute_factor(stages, 8, 32)
        large = recompute_factor(stages, 64, 256)
        assert small > large > 1.0


class TestChoice:
    def test_choose_tile_returns_a_feasible_shape(self):
        choice = choose_tile(_chain(), caches=CACHES)
        assert isinstance(choice, TileChoice)
        assert choice.scratch_bytes <= min(STACK_SCRATCH_CAP, CACHES.l2_bytes)
        assert "x" in choice.describe()

    def test_sweep_is_sorted_by_cost(self):
        ranked = sweep_tiles(_chain(), caches=CACHES)
        assert ranked, "at least one candidate must fit"
        costs = [c.cost for c in ranked]
        assert costs == sorted(costs)

    def test_huge_margins_yield_none(self):
        # Margins so large no candidate fits the stack cap: the lowering
        # must materialize nothing (a row band) rather than blow the
        # worker stacks.
        stages = [
            StageFootprint("s", left=700, right=700, top=700, bottom=700)
        ]
        assert choose_tile(stages, caches=CACHES) is None

    def test_choice_is_geometry_free(self):
        # The model must not see the plane size: the same stages give
        # the same shape at every resolution.
        first = choose_tile(_chain(), caches=CACHES)
        second = choose_tile(_chain(), caches=CACHES)
        assert (first.height, first.width) == (second.height, second.width)

    def test_smaller_cache_caps_the_working_set(self):
        tiny = CpuCacheSpec(
            l1d_bytes=8 * 1024,
            l2_bytes=64 * 1024,
            l3_bytes=1024 * 1024,
            source="test",
        )
        stages = _chain(margin=2, stages=3)
        choice = choose_tile(stages, caches=tiny)
        assert choice.scratch_bytes <= min(STACK_SCRATCH_CAP, tiny.l2_bytes)
        # The same working set is priced at a worse level under the
        # smaller hierarchy.
        same = tile_cost(stages, choice.height, choice.width, caches=CACHES)
        assert same.cost <= choice.cost

    def test_cost_prices_cache_level(self):
        stages = _chain()
        in_l1 = tile_cost(stages, 8, 32, caches=CACHES)
        spilled = tile_cost(stages, 128, 512, caches=CACHES)
        assert in_l1.fits == "L1"
        assert spilled.fits in ("L2", "L3")
        assert spilled.cost > in_l1.cost


class TestValidation:
    def test_cache_spec_rejects_inverted_hierarchy(self):
        with pytest.raises(ValueError):
            CpuCacheSpec(
                l1d_bytes=2048 * 1024, l2_bytes=1024, l3_bytes=0, source="t"
            )
