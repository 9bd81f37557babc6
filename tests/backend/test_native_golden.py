"""Byte-identity of the lowered C: the printed loop-nest IR is, byte for
byte, the text the pre-IR emitter wrote.

``golden_native_sources.json`` holds ``sha256`` of the native source of
six apps x {hand-built, lazy} x ``REPRO_NATIVE_TILE2D`` in
{auto, 16x32} at 96x64 and 1024x1024,
recorded from the last commit whose *text-parsing* sanitizer accepted
that text (PR 14, cba1d07).  The sanitizer now proves the tree, so this
test is one of the three things that keep the printer honest (see
``docs/analysis.md``): any byte the printer changes shows up here — and
in every ``pipeline-<digest>.so`` cache name.  Regenerate the file only
for a deliberate change of the emitted C.

Seven such changes since.  Window-invariant hoisting gave the 16
Enhance digests with tile2d on (``auto`` and ``16x32``) an extra
``gmean_w0`` stage.  Channels as a stride (PR 23) scaled every global
subscript of the 24 Night digests — the one multi-channel app — by its
channel count (``in_input[(...) * 3]``).  Out-of-line halo bodies moved
all 144: a halo body with a clamp-free interior twin is printed
``static __attribute__((noinline))`` instead of ``static inline``, so
the compiler stops inlining and vectorizing border gathers into the
flank loops, which run only O(perimeter) pixels — about 30 % less
``cc`` time for the same bits (``test_native_linkage.py`` pins the
rule).  One tile driver for every block dropped the ``off`` setting
(144 -> 96 digests) and moved the 48 Harris, ShiTomasi
and Night digests: their single-kernel blocks left the classic row-tiled
driver for the tile driver's row band (``x0 = 0``, ``x1 = W``, 64-row
tiles, the interior split as clamped decls).  The 48 Sobel, Unsharp and
Enhance digests, whose every block materializes stages, did not move.
Vector libm moved the 16 Enhance digests, the one app with libm calls
besides ``sqrt``: its ``exp`` / ``log`` / ``pow`` became calls of the
``repro_<fn>`` libmvec wrappers, declared ``simd`` above the block, and
the source ends with the support unit that defines them (lowered here as
on a host with every variant, whatever this host's probe finds).
One geometry mode dropped the 48 runtime-geometry (``width`` /
``height`` formal) digests, 96 -> 48; the 48 baked ones did not move.
Last, a plane too small for a team compiles no parallel region.  The
tile loop carries ``#pragma omp parallel for`` only from
``2 * MIN_PIXELS_PER_THREAD`` pixels on, where the automatic thread
share can first exceed one (``native_lower.parallel_plane``); below it
gcc outlined a team that never ran, ~15 % of ``cc`` per object.  That
moved the 24 digests at 96x64 (and ``SCALAR_ENHANCE``'s 96x64 one); the
24 at 1024x1024, above the gate, did not move.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import APPLICATIONS
from repro.backend import native_exec, native_lower
from repro.backend.native_exec import (
    native_available,
    native_plan_for_partition,
)
from repro.backend.plan import plan_for_partition
from repro.envknobs import native_lowering, validate_override
from repro.eval.runner import partition_for
from repro.lazy.apps import lazy_trace
from repro.model import hardware
from repro.model.hardware import GTX680

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_native_sources.json").read_text()
)


#: Every libmvec variant, as on an x86-64 glibc >= 2.35 host: the digests
#: do not depend on what this host's probe finds.
VECTOR = frozenset(native_lower.LIBMVEC_ROUTINES)


#: Enhance's digests before its libm calls had wrappers: what a host
#: whose libmvec probe finds nothing still compiles, byte for byte.
SCALAR_ENHANCE = {
    "96x64/baked": "19ededb5c02f69f88a2459b30ad36165333fc7d9e57dd5f34df9b9820fc54ad5",
    "1024x1024/baked": "ed5f3cab064a6df3cfaa424291569cdf458c881a11a2928ae7a4a1d50af1e1ab",
}


def _partition_source(graph, partition, vector=VECTOR):
    """``NativePartitionPlan.source`` without needing a compiler, as on a
    host whose libmvec probe found ``vector``."""
    plan = plan_for_partition(graph, partition, False)
    specs, _ = native_lower._lower_partition(
        graph, partition, plan, vector, lowering=native_lowering()
    )
    source = native_lower._PREAMBLE + "\n" + "\n".join(
        spec.source for spec in specs if spec is not None
    )
    support = native_exec._support_unit(specs, vector)
    return source if support is None else source + "\n" + support


@pytest.fixture
def default_caches(monkeypatch):
    # ``auto`` picks its tile from the detected cache hierarchy; pin the
    # documented defaults so the digests do not depend on the host.
    monkeypatch.setattr(
        hardware, "_detected_cpu_caches", hardware.DEFAULT_CPU_CACHES
    )


@pytest.mark.parametrize("geometry", [(96, 64), (1024, 1024)], ids=str)
@pytest.mark.parametrize("app", sorted(APPLICATIONS))
def test_lowered_source_matches_golden(
    app, geometry, default_caches, monkeypatch
):
    width, height = geometry
    graphs = {
        "hand": APPLICATIONS[app].build(width, height).build(),
        "lazy": lazy_trace(app, width, height).graph(),
    }
    for origin, graph in graphs.items():
        partition = partition_for(graph, GTX680, "optimized")
        for setting in ("auto", "16x32"):
            monkeypatch.setenv("REPRO_NATIVE_TILE2D", setting)
            key = f"{app}/{origin}/{width}x{height}/baked/{setting}"
            source = _partition_source(graph, partition)
            digest = hashlib.sha256(source.encode()).hexdigest()
            assert digest == GOLDEN[key], key


@pytest.mark.parametrize("geometry", [(96, 64), (1024, 1024)], ids=str)
def test_without_libmvec_enhance_lowers_as_before(
    geometry, default_caches, monkeypatch
):
    width, height = geometry
    for graph in (
        APPLICATIONS["Enhance"].build(width, height).build(),
        lazy_trace("Enhance", width, height).graph(),
    ):
        partition = partition_for(graph, GTX680, "optimized")
        for setting in ("auto", "16x32"):
            monkeypatch.setenv("REPRO_NATIVE_TILE2D", setting)
            source = _partition_source(graph, partition, frozenset())
            key = f"{width}x{height}/baked"
            digest = hashlib.sha256(source.encode()).hexdigest()
            assert digest == SCALAR_ENHANCE[key], (key, setting)


@pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)
def test_plan_source_is_the_hashed_text():
    graph = APPLICATIONS["Harris"].build(96, 64).build()
    partition = partition_for(graph, GTX680, "optimized")
    with validate_override("standard"):
        plan = native_plan_for_partition(graph, partition)
    assert plan.source == _partition_source(graph, partition)
