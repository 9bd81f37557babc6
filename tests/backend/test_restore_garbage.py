"""A restored request leaves no cyclic garbage.

A restart signs the fresh graph, reads the plan record, builds the
schedule facts, binds the recorded library and executes.  None of it
may leave a reference cycle behind: a request that feeds the cyclic
collector lets a collection land inside some later request, and on
the small ``warm_restart`` classes that collection costs more than the
request itself.  Each app is restored and run with the collector off;
the collection after it must find nothing unreachable.
"""

import gc
import shutil

import pytest

import repro.api as api
from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS, request_inputs
from repro.backend.cpu_exec import CACHE_ENV, compiler_available
from repro.backend.native_exec import clear_native_caches
from repro.backend.plan import clear_plan_caches
from repro.serve import plancache
from repro.serve.registry import DEFAULT_APP_PARAMS

from helpers import count_calls

# A cold direct native request compiles before it answers: this suite's
# subject is native output, which a tiered first answer would not be.
pytestmark = [
    pytest.mark.skipif(not compiler_available(), reason="no C compiler on PATH"),
    pytest.mark.usefixtures("blocking_native"),
]

APPS = sorted(APPLICATIONS)
WIDTH, HEIGHT = 96, 64
EVERYTHING = ("partition", "verified", "sanitized", "differential", "library")
OPTIONS = ExecutionOptions(engine="native", validate="strict")


def restart():
    """What a new process starts with: no plan in memory."""
    clear_native_caches()
    clear_plan_caches()


def _request(app):
    spec = APPLICATIONS[app]
    graph = spec.build(WIDTH, HEIGHT).build()
    inputs = request_inputs(spec, WIDTH, HEIGHT, seed=0)
    return run(graph, inputs, DEFAULT_APP_PARAMS.get(app), options=OPTIONS)


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    """Every app's library and its plan record, all verdicts proved."""
    seed = tmp_path_factory.mktemp("seed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_ENV, str(seed))
        # Module-scoped: the function-scoped blocking pin is not in force.
        patch.setattr(plancache, "native_strategy", lambda plan, lowered: "blocking")
        restart()
        for app in APPS:
            _request(app)
        restart()
    return seed


@pytest.mark.parametrize("app", APPS)
def test_a_restore_leaves_no_cyclic_garbage(app, seed_dir, tmp_path, monkeypatch):
    cache = tmp_path / "cc"
    shutil.copytree(seed_dir, cache)
    monkeypatch.setenv(CACHE_ENV, str(cache))
    builds = count_calls(monkeypatch, api, "build_plan")
    restart()
    gc.collect()
    gc.disable()
    try:
        _request(app)
        unreachable = gc.collect()
    finally:
        gc.enable()
    (entry,) = builds
    assert entry.restored == EVERYTHING
    assert unreachable == 0
