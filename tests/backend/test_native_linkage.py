"""Where each per-pixel body is compiled: inline where it is hot, an
out-of-line call on the border.

A stage's clamp-free interior body runs on almost every pixel, so it is
``static inline`` and the compiler vectorizes it into the interior loop.
Its boundary-resolving halo twin runs only on the O(perimeter) flank and
border-row pixels, so it is ``static __attribute__((noinline))``: inlined,
the compiler would vectorize its gathers into every flank loop and spend
most of a cold compile there.  A halo body with no twin (a stencil-free
tile2d stage, a baked plane smaller than its margins) is the only body
its loop runs and stays inline.

The test walks the loop-nest IR of the golden matrix (six apps x
{hand-built, lazy} x ``REPRO_NATIVE_TILE2D`` in {auto, 16x32} at 96x64
and 1024x1024), once in double and once
under ``REPRO_NATIVE_F32``; no compiler is needed.
"""

import re

import pytest

from repro.apps import APPLICATIONS
from repro.backend import native_lower
from repro.backend.loopnest import For, Guard, Store
from repro.backend.plan import plan_for_partition
from repro.envknobs import native_lowering
from repro.eval.runner import partition_for
from repro.lazy.apps import lazy_trace
from repro.model import hardware
from repro.model.hardware import GTX680

INLINE = "inline"
NOINLINE = "__attribute__((noinline))"


def _linkage(fn) -> str:
    # ``static <linkage> <ctype>``: the driver is ``void``.
    return fn.ret.split()[1]


def _twin(name: str) -> str:
    """The clamp-free twin of a halo body: ``_halo`` -> ``_interior``
    (the destination), ``_s<k>`` -> ``_s<k>i`` (fills)."""
    if name.endswith("_halo"):
        return name[: -len("_halo")] + "_interior"
    return name + "i"


def _is_interior(name: str) -> bool:
    return re.search(r"(_interior|_s\d+i)$", name) is not None


def _stores(nodes):
    for node in nodes:
        if type(node) is Store:
            yield node
        elif type(node) is For:
            yield from _stores(node.body)
        elif type(node) is Guard:
            yield from _stores(node.then + node.orelse)


def _split_loops(nodes):
    """``(border, interior)`` stores of every three-segment split: the
    flank loops and the border-row loop, and the middle loop."""
    border, interior = [], []
    for node in nodes:
        if type(node) is Guard:
            left, middle, right = node.then
            border += _stores((left, right) + node.orelse)
            interior += _stores((middle,))
        elif type(node) is For:
            more = _split_loops(node.body)
            border += more[0]
            interior += more[1]
    return border, interior


def _check_spec(spec) -> tuple:
    """Assert the linkage of one lowered block; return how many halo
    bodies are calls and how many border-loop stores call them."""
    *pixel, driver = spec.ir
    assert driver.ret == "void" and driver.name == spec.fn_name
    linkage = {fn.name: _linkage(fn) for fn in pixel}
    calls = 0
    for name, kind in linkage.items():
        if _is_interior(name):
            assert kind == INLINE, name
            continue
        expected = NOINLINE if _twin(name) in linkage else INLINE
        assert kind == expected, name
        calls += kind == NOINLINE
    border, interior = _split_loops(driver.body)
    for store in border:
        assert linkage[store.callee] == NOINLINE, store.callee
    for store in interior:
        assert linkage[store.callee] == INLINE, store.callee
    return calls, len(border)


@pytest.fixture
def default_caches(monkeypatch):
    # ``auto`` picks its tile from the detected cache hierarchy.
    monkeypatch.setattr(
        hardware, "_detected_cpu_caches", hardware.DEFAULT_CPU_CACHES
    )


@pytest.mark.parametrize("f32", [False, True], ids=["f64", "f32"])
@pytest.mark.parametrize("geometry", [(96, 64), (1024, 1024)], ids=str)
@pytest.mark.parametrize("app", sorted(APPLICATIONS))
def test_halo_bodies_are_calls_and_interiors_inline(
    app, geometry, f32, default_caches, monkeypatch
):
    if f32:
        monkeypatch.setenv("REPRO_NATIVE_F32", "on")
    width, height = geometry
    graphs = {
        "hand": APPLICATIONS[app].build(width, height).build(),
        "lazy": lazy_trace(app, width, height).graph(),
    }
    calls = border_stores = 0
    for graph in graphs.values():
        partition = partition_for(graph, GTX680, "optimized")
        plan = plan_for_partition(graph, partition, False)
        for setting in ("auto", "16x32"):
            monkeypatch.setenv("REPRO_NATIVE_TILE2D", setting)
            specs, _ = native_lower._lower_partition(
                graph, partition, plan, lowering=native_lowering()
            )
            for spec in specs:
                if spec is None:
                    continue
                assert spec.f32 is f32
                spec_calls, spec_stores = _check_spec(spec)
                calls += spec_calls
                border_stores += spec_stores
    # Every app has a stencil, so the matrix is never vacuous.
    assert calls > 0 and border_stores > 0


def test_a_stencil_free_tile2d_stage_keeps_its_one_body_inline(
    default_caches, monkeypatch
):
    # Enhance's hoisted ``gmean_w0`` point stage has no interior twin
    # under tile2d: its halo body is the only body its fill runs.
    monkeypatch.setenv("REPRO_NATIVE_TILE2D", "auto")
    graph = APPLICATIONS["Enhance"].build(96, 64).build()
    partition = partition_for(graph, GTX680, "optimized")
    plan = plan_for_partition(graph, partition, False)
    specs, _ = native_lower._lower_partition(
        graph, partition, plan, lowering=native_lowering()
    )
    sole = [
        fn
        for spec in specs
        if spec is not None and spec.tile2d
        for fn in spec.ir[:-1]
        if not _is_interior(fn.name)
        and _twin(fn.name) not in {other.name for other in spec.ir}
    ]
    assert sole and all(_linkage(fn) == INLINE for fn in sole)
