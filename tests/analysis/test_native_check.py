"""Native-codegen sanitizer: the NAT diagnostics over the loop-nest IR.

Proves the honest lowerings clean (specialized and shape-polymorphic,
including the degenerate zero-margin flank loops), pins each NAT family
on defects seeded as tree edits, and checks the strict-mode wiring:
every fresh native plan is sanitizer-verified.
"""

import pytest

from helpers import row_band_everywhere

from analysis.ir_mutation import (
    channel_stride_defects,
    find_nodes,
    replace_subtree,
    shifted,
    with_ir,
)

from repro.analysis.diagnostics import has_errors
from repro.analysis.native_check import (
    verify_native_blocks,
    verify_native_plan,
)
from repro.apps import APPLICATIONS
from repro.backend import native_exec
from repro.backend.loopnest import (
    For,
    Formal,
    Guard,
    IntDecl,
    Load,
    ScratchDecl,
    Store,
    add,
    ident,
    min_of,
    mul,
    num,
)
from repro.backend.native_exec import (
    native_available,
    native_plan_for_partition,
)
from repro.envknobs import validate_override
from repro.eval.runner import partition_for
from repro.model.hardware import KNOWN_GPUS

needs_cc = pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)

GPU = KNOWN_GPUS["GTX680"]


def _native_plan(app, width=64, height=48, polymorphic=False):
    graph = APPLICATIONS[app].build(width, height).build()
    partition = partition_for(graph, GPU, "optimized")
    with validate_override("standard"):
        return graph, native_plan_for_partition(
            graph, partition, polymorphic=polymorphic
        )


def _first_native(nplan):
    return next(n for _p, n in nplan.blocks if n is not None)


def _codes(native, ir=None):
    """NAT codes for ``native``, or for its twin carrying the tree ``ir``."""
    block = native if ir is None else with_ir(native, ir)
    return {d.code for d in verify_native_blocks([block])}


def _mutated(native, old, new):
    """``native``'s tree with ``old`` swapped for ``new`` (must match)."""
    ir = replace_subtree(native.spec.ir, old, new)
    assert ir != native.spec.ir, f"defect site {old!r} not in the tree"
    return ir


@needs_cc
class TestHonestEmitterIsClean:
    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    @pytest.mark.parametrize("polymorphic", [False, True])
    def test_every_app_verifies(self, app, polymorphic):
        _, nplan = _native_plan(app, polymorphic=polymorphic)
        assert verify_native_plan(nplan) == []

    def test_zero_margin_blocks_verify(self):
        # Harris fuses its response into a block whose margins are zero:
        # its split's flank loops run over zero columns and must verify
        # as in-plane, not be flagged.
        _, nplan = _native_plan("Harris")
        assert verify_native_plan(nplan) == []


class TestSeededDefects:
    @pytest.fixture(scope="class")
    def sobel(self):
        # Tile2d is on by default, so this fixture exercises the
        # 2D overlapped-tiling grammar.
        if not native_available():
            pytest.skip("requires a C compiler on PATH")
        _, nplan = _native_plan("Sobel")
        return _first_native(nplan)

    @pytest.fixture(scope="class")
    def row_band(self):
        # Harris's first block is a single kernel: a row band, the tile
        # driver with nothing materialized, for the defects specific to
        # its grid (x untiled, 64-row tiles).
        if not native_available():
            pytest.skip("requires a C compiler on PATH")
        _, nplan = _native_plan("Harris")
        native = _first_native(nplan)
        assert native.spec.tile2d is None
        return native

    def test_out_of_plane_halo_read_is_caught(self, sobel):
        ir = _mutated(sobel, shifted("x", 1), shifted("x", 2))
        assert _codes(sobel, ir) & {"NAT001", "NAT002"}

    def test_dropped_restrict_is_nat003(self, sobel):
        ir = _mutated(
            sobel,
            Formal("double *", "out", True),
            Formal("double *", "out", False),
        )
        assert _codes(sobel, ir) == {"NAT003"}

    def test_row_band_is_clean(self, row_band):
        assert _codes(row_band) == set()

    def test_unclamped_y1_is_caught_without_crashing(self, row_band):
        y1 = add(ident("y0"), num(64))
        ir = _mutated(
            row_band,
            IntDecl("y1", min_of(y1, num(48))),
            IntDecl("y1", y1),
        )
        # the driver clamp proof fails loudly
        assert "NAT004" in _codes(row_band, ir)

    def test_row_band_out_of_plane_read_is_caught(self, row_band):
        ir = _mutated(row_band, shifted("x", 1), shifted("x", 2))
        assert _codes(row_band, ir) & {"NAT001", "NAT002"}

    def test_row_band_past_the_plane_width_is_caught(self, row_band):
        ir = _mutated(
            row_band, IntDecl("x1", num(64)), IntDecl("x1", num(65))
        )
        assert "NAT004" in _codes(row_band, ir)

    def test_transposed_store_index_is_caught(self, sobel):
        ir = _mutated(
            sobel, mul(ident("y"), num(64)), mul(ident("x"), num(64))
        )
        assert _codes(sobel, ir) & {"NAT001", "NAT002"}

    def test_widened_clamp_bound_is_caught(self, sobel):
        clamp = ("call", "idx_clamp", (shifted("x", -1), num(64)))
        ir = _mutated(sobel, clamp, clamp[:2] + ((clamp[2][0], num(65)),))
        assert _codes(sobel, ir)

    def test_missing_functions_are_nat004(self, sobel):
        found = verify_native_blocks([with_ir(sobel, ())])
        assert [d.code for d in found] == ["NAT004"]
        assert has_errors(found)


class TestTile2DSeededDefects:
    """Defects specific to the 2D overlapped-tiling driver grammar."""

    @pytest.fixture(scope="class")
    def harris(self):
        # Harris fuses a depth>=2 chain with nonzero stage margins, so
        # its first block with scratch exercises the margin ledger.
        if not native_available():
            pytest.skip("requires a C compiler on PATH")
        _, nplan = _native_plan("Harris")
        native = next(
            n
            for _p, n in nplan.blocks
            if n is not None and find_nodes(n.spec.ir, ScratchDecl)
        )
        return native

    def test_fixture_is_tile2d_and_clean(self, harris):
        assert harris.spec.tile2d is not None
        assert _codes(harris) == set()

    def test_undersized_scratch_decl_is_nat001(self, harris):
        (decl,) = find_nodes(harris.spec.ir, ScratchDecl, name="scr_0")
        ir = _mutated(harris, decl, decl._replace(size=decl.size // 2))
        assert "NAT001" in _codes(harris, ir)

    def test_widened_fill_region_is_caught(self, harris):
        # Growing sx1 past the declared margin makes the fill overrun
        # the scratch pitch.
        (decl,) = find_nodes(harris.spec.ir, IntDecl, name="sx1_0")
        reach, plane = decl.expr[2], decl.expr[3]  # x1 + R < W ? x1 + R : W
        wider = add(reach[2], num(reach[3][1] + 1))
        ir = _mutated(harris, decl, IntDecl("sx1_0", min_of(wider, plane)))
        assert _codes(harris, ir) & {"NAT001", "NAT004"}

    def test_widened_fill_guard_is_caught(self, harris):
        # The row guard of a split sweep (a stage fill's or the
        # destination's) is what proves the clamp-free body in-plane;
        # widening it to the full height must fail the raw row reads.
        guards = find_nodes(harris.spec.ir, Guard, lo=num(1))
        if not guards:
            pytest.skip("no split sweep with a one-row margin in this block")
        ir = _mutated(harris, guards[0], guards[0]._replace(lo=num(0)))
        assert "NAT002" in _codes(harris, ir)

    def test_shrunk_fill_sweep_is_caught(self, harris):
        # Sweeping only the un-extended tile instead of the halo region
        # leaves scratch cells the destination reads uninitialized; the
        # template match must refuse the altered row loop.
        (loop,) = find_nodes(
            harris.spec.ir, For, var="y", lo=ident("sy0_0"), hi=ident("sy1_0")
        )
        ir = _mutated(
            harris, loop, loop._replace(lo=ident("y0"), hi=ident("y1"))
        )
        assert "NAT004" in _codes(harris, ir)


@needs_cc
class TestChannelStride:
    """A multi-channel block's planes are bound as ``base + c`` of an
    ``(H, W, C)`` image: every global access must step ``C``, and tile
    scratch must stay dense."""

    @pytest.fixture(scope="class", params=["auto", "off"])
    def night(self, request):
        # ``off``: staging off, every block the row band over its fused
        # tape (no knob value says that; the margin cap forces it).
        with row_band_everywhere(request.param == "off"):
            _, nplan = _native_plan("Night", polymorphic=True)
        natives = [n for _p, n in nplan.blocks if n is not None]
        assert all(n.spec.channels == 3 for n in natives)
        assert any(n.spec.tile2d for n in natives) == (request.param == "auto")
        return natives

    def test_honest_blocks_are_clean(self, night):
        assert verify_native_blocks(night) == []

    def test_every_wrong_stride_is_nat002(self, night):
        for native in night:
            for label, old, new in channel_stride_defects(native.spec):
                ir = _mutated(native, old, new)
                assert "NAT002" in _codes(native, ir), label

    def test_strided_scratch_is_caught(self, night):
        tiled = [n for n in night if find_nodes(n.spec.ir, ScratchDecl)]
        for native in tiled:
            (fill, *_) = find_nodes(native.spec.ir, Store, buffer="scr_0")
            ir = _mutated(native, fill, fill._replace(stride=3))
            assert "NAT004" in _codes(native, ir)
            (read, *_) = find_nodes(native.spec.ir, Load, buffer="scr_0")
            ir = _mutated(native, read, read._replace(stride=3))
            assert "NAT002" in _codes(native, ir)

    def test_single_channel_blocks_carry_no_stride(self):
        _, nplan = _native_plan("Harris")
        for _p, native in nplan.blocks:
            assert "* 1]" not in native.spec.source
            store = find_nodes(native.spec.ir, Store, buffer="out")[0]
            ir = _mutated(native, store, store._replace(stride=3))
            assert "NAT002" in _codes(native, ir)


class TestEntryPoints:
    def test_empty_iterables_verify_vacuously(self):
        assert verify_native_blocks([]) == []

    @needs_cc
    def test_partition_plan_skips_tape_fallbacks(self):
        _, nplan = _native_plan("Sobel")
        # Simulate a mixed plan: the verifier must iterate the natives
        # and skip None (a tape-fallback block) rather than crash on it.
        class _Mixed:
            natives = [None] + list(nplan.natives)

        assert verify_native_plan(_Mixed()) == []

    @needs_cc
    def test_strict_mode_sanitizes_fresh_plans(self):
        graph = APPLICATIONS["Sobel"].build(64, 48).build()
        partition = partition_for(graph, GPU, "optimized")
        native_exec.clear_native_caches()
        with validate_override("strict"):
            nplan = native_plan_for_partition(graph, partition)
        assert nplan.sanitized
        assert nplan.verify_ms >= 0.0

    @needs_cc
    def test_standard_mode_defers_sanitizing(self):
        graph = APPLICATIONS["Sobel"].build(64, 48).build()
        partition = partition_for(graph, GPU, "optimized")
        with validate_override("standard"):
            nplan = native_plan_for_partition(graph, partition)
        assert not nplan.sanitized
