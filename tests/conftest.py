"""Shared pytest fixtures."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# Make tests/helpers.py importable as ``helpers`` from every test package.
sys.path.insert(0, str(Path(__file__).parent))

# The static plan verifier always runs in tests (ISSUE 3): every freshly
# compiled tape is checked against its invariants and a reference
# recompilation.  ``setdefault`` lets a developer still test the other
# modes explicitly (REPRO_VALIDATE=off pytest ...).
os.environ.setdefault("REPRO_VALIDATE", "strict")

# The fused executor raises the recursion limit on first use; doing it
# here keeps Hypothesis from warning about mid-test limit changes.
sys.setrecursionlimit(20000)

from repro.model.benefit import BenefitConfig
from repro.model.hardware import GTX680, GTX745, K20C


@pytest.fixture(autouse=True)
def _empty_process_plan_cache():
    """``repro.api.run`` memoizes builds process-wide; a test must not
    be served a plan some earlier test built (and validated, or
    poisoned) under the same key."""
    from repro.backend.cpu_exec import _cache_dir
    from repro.serve.plancache import PROCESS_CACHE

    from helpers import wait_for_builds

    PROCESS_CACHE.clear()
    # Nor may a candidate an earlier test paid for be building beside it.
    wait_for_builds()
    # The persisted plan records would carry a partition or a strict
    # verdict from an earlier test (or an earlier run: the default cache
    # directory outlives it) into this one.  The .so / .o files stay.
    try:
        for record in _cache_dir().glob("plan-*.json"):
            record.unlink(missing_ok=True)
    except OSError:
        pass  # unreadable or read-only cache directory


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh ``REPRO_CC_CACHE`` and empty plan caches; the test's
    background builds have finished when it ends.  The toolchain probes
    (OpenMP, libmvec) run once per process, on whichever thread asks
    first: they are asked here, not by the test's first request."""
    from repro.backend import native_exec
    from repro.backend.cpu_exec import CACHE_ENV
    from repro.backend.plan import clear_plan_caches

    from helpers import wait_for_builds

    directory = tmp_path / "cc"
    monkeypatch.setenv(CACHE_ENV, str(directory))
    clear_plan_caches()
    native_exec.toolchain_digest(())
    yield directory
    wait_for_builds()


@pytest.fixture
def blocking_native(monkeypatch):
    """Every direct native miss compiles before it answers, as serving's
    do: a suite about native output or native internals must not be
    answered on the tape while its plan compiles in the background."""
    from repro.serve import plancache

    monkeypatch.setattr(plancache, "native_strategy", lambda plan, lowered: "blocking")


@pytest.fixture
def gpu():
    """The paper's default evaluation device for single-GPU tests."""
    return GTX680


@pytest.fixture(params=[GTX745, GTX680, K20C], ids=lambda g: g.name)
def any_gpu(request):
    """Parametrized over all three evaluation devices."""
    return request.param


@pytest.fixture
def config():
    """The paper's benefit-model configuration."""
    return BenefitConfig()
