"""The native engine's three modules import one way, and its sanitizer
imports none of them.

``native_lower`` (tape -> loop nest -> C text) <- ``native_bind``
(compiled kernels on NumPy buffers) <- ``native_exec`` (plans, build,
caches).  Lowering must stay usable without a compiler or a loaded
library, and everything that imported a name from ``native_exec`` before
the split — the engine table, the plan cache, the frozen ledger — still
finds it there.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import native_check
from repro.backend import native_bind, native_exec, native_lower

LOWER = "repro.backend.native_lower"
BIND = "repro.backend.native_bind"
BUILD = "repro.backend.native_exec"

#: ``native_exec.__all__`` as it stood before the split, less the block
#: plan family (``NativeBlockPlan``, ``native_plan_for_block``), deleted
#: since: ``run_block`` runs a block as a one-block partition.
EXPORTED_BEFORE_THE_SPLIT = {
    "F32_ATOL",
    "F32_RTOL",
    "NATIVE_F32_ENV",
    "NATIVE_THREADS_ENV",
    "NATIVE_TILE2D_ENV",
    "NativeBlock",
    "NativeLoweringError",
    "NativePartitionPlan",
    "NativeVerificationError",
    "assert_native_equiv",
    "available_cores",
    "clear_native_caches",
    "lower_block_source",
    "lower_partition_source",
    "native_available",
    "native_plan_for_partition",
    "resolve_native_threads",
    "sharing_cores",
    "tolerance_for",
}

#: What ``benchmarks/ledger/`` imports from ``native_exec``.
LEDGER_IMPORTS = {
    "NativeLoweringError",
    "assert_native_equiv",
    "clear_native_caches",
    "lower_block_source",
    "native_available",
    "native_plan_for_partition",
    "tile2d_report",
    "tolerance_for",
}


def _imports(module) -> set:
    """Every module name ``module``'s source imports, at any depth
    (``from a import b`` counts as both ``a`` and ``a.b``)."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize(
    "module, forbidden",
    [
        (
            native_lower,
            {"ctypes", "threading", "repro.backend.cpu_exec", BIND, BUILD},
        ),
        (native_bind, {BUILD}),
        # The sanitizer checks the lowering's schedule as data; importing
        # the lowering would make its driver template trusted.
        (native_check, {LOWER, BIND, BUILD}),
    ],
    ids=["lowering", "binding", "checker"],
)
def test_imports_point_one_way(module, forbidden):
    assert not _imports(module) & forbidden


def test_the_layers_are_used():
    assert LOWER in _imports(native_bind)
    assert {LOWER, BIND} <= _imports(native_exec)


def test_native_exec_still_exports_what_it_did():
    assert set(native_exec.__all__) >= EXPORTED_BEFORE_THE_SPLIT
    missing = {
        name
        for name in EXPORTED_BEFORE_THE_SPLIT | LEDGER_IMPORTS
        if not hasattr(native_exec, name)
    }
    assert not missing
