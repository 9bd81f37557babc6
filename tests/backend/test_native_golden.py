"""Byte-identity of the lowered C: the printed loop-nest IR is, byte for
byte, the text the pre-IR emitter wrote.

``golden_native_sources.json`` holds ``sha256`` of the native source of
six apps x {hand-built, lazy} x {baked, polymorphic} x
``REPRO_NATIVE_TILE2D`` in {auto, 16x32} at 96x64 and 1024x1024,
recorded from the last commit whose *text-parsing* sanitizer accepted
that text (PR 14, cba1d07).  The sanitizer now proves the tree, so this
test is one of the three things that keep the printer honest (see
``docs/analysis.md``): any byte the printer changes shows up here — and
in every ``pipeline-<digest>.so`` cache name.  Regenerate the file only
for a deliberate change of the emitted C.

Four such changes since.  Window-invariant hoisting gave the 16
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
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import APPLICATIONS
from repro.backend import native_lower
from repro.backend.native_exec import (
    native_available,
    native_plan_for_partition,
)
from repro.backend.plan import plan_for_partition
from repro.envknobs import validate_override
from repro.eval.runner import partition_for
from repro.lazy.apps import lazy_trace
from repro.model import hardware
from repro.model.hardware import GTX680

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_native_sources.json").read_text()
)


def _partition_source(graph, partition, polymorphic):
    """``NativePartitionPlan.source`` without needing a compiler."""
    plan = plan_for_partition(graph, partition, False)
    specs, _ = native_lower._lower_partition(
        graph, partition, plan, polymorphic
    )
    return native_lower._PREAMBLE + "\n" + "\n".join(
        spec.source for spec in specs if spec is not None
    )


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
            for polymorphic in (False, True):
                key = (
                    f"{app}/{origin}/{width}x{height}/"
                    f"{'poly' if polymorphic else 'baked'}/{setting}"
                )
                source = _partition_source(graph, partition, polymorphic)
                digest = hashlib.sha256(source.encode()).hexdigest()
                assert digest == GOLDEN[key], key


@pytest.mark.skipif(
    not native_available(), reason="requires a C compiler on PATH"
)
def test_plan_source_is_the_hashed_text():
    graph = APPLICATIONS["Harris"].build(96, 64).build()
    partition = partition_for(graph, GTX680, "optimized")
    with validate_override("standard"):
        plan = native_plan_for_partition(graph, partition)
    assert plan.source == _partition_source(graph, partition, False)
