"""A restart is a lookup: the persisted plan record beside each ``.so``.

``plan-<sha256(plan_key, code fingerprint)[:24]>.json`` in the compile
cache carries a key's partition and its strict verdicts — verifier,
sanitizer, first-run differential — each bound to the digest it was
proved on.  These tests count the decision (``partition_for``) and the
three proofs (``verify_partition_plan``, ``verify_native_blocks``, the
differential's ``PartitionPlan.execute``) to pin what a restart re-does:
nothing when this build's digests match — not even a tape compile —
exactly the affected checks when one does not, everything when the
record cannot be trusted — and never a verdict that was not
established.
"""

import dataclasses
import errno
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.analysis.native_check as native_check
import repro.analysis.verifier as verifier
import repro.api as api
import repro.model.hardware as hardware
import repro.serve.runtime as serve_runtime
from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS
from repro.backend import cpu_exec, native_exec
from repro.backend import plan as tape
from repro.backend.cpu_exec import (
    CACHE_ENV,
    CACHE_MAX_ENV,
    clear_compile_cache,
    compile_cache_stats,
    compiler_available,
    evict_stale_artifacts,
    openmp_available,
)
from repro.backend.native_exec import (
    NativeVerificationError,
    clear_native_caches,
    native_plan_for_partition,
)
from repro.backend.plan import clear_plan_caches
from repro.dsl.pipeline import Pipeline
from repro.eval.runner import partition_for
from repro.model.hardware import GTX680
from repro.serve import (
    ResiliencePolicy,
    RetryPolicy,
    ServingRuntime,
    default_registry,
    fault_injection,
)
from repro.serve import plancache
from repro.apps import request_inputs
from repro.serve.plancache import PROCESS_CACHE, FusionSettings, plan_key
from repro.serve.registry import DEFAULT_APP_PARAMS

from analysis.ir_mutation import with_ir
from helpers import ToolchainSpy, count_calls, image, local_kernel, point_kernel

# A cold direct native request compiles before it answers: this suite's
# subject is native output, which a tiered first answer would not be.
pytestmark = [
    pytest.mark.skipif(not compiler_available(), reason="no C compiler on PATH"),
    pytest.mark.usefixtures("blocking_native"),
]

APPS = sorted(APPLICATIONS)
WIDTH, HEIGHT = 96, 64
EVERYTHING = ("partition", "verified", "sanitized", "differential", "library")
SRC = str(Path(native_exec.__file__).parents[2])


def restart():
    """What a new process starts with: no plan in memory."""
    clear_native_caches()
    clear_plan_caches()


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    """The apps' libraries and kernel objects, compiled once for the
    module — a test's cache directory starts from a copy, so only the
    tests that are about compiling pay the compiler."""
    seed = tmp_path_factory.mktemp("seed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_ENV, str(seed))
        restart()
        for app in APPS:
            graph = APPLICATIONS[app].build(WIDTH, HEIGHT).build()
            native_plan_for_partition(
                graph, partition_for(graph, GTX680, "optimized")
            )
        restart()
    return seed


@pytest.fixture
def cache_dir(seed_dir, tmp_path, monkeypatch):
    """A compile cache that holds compiled code but not one record."""
    openmp_available()
    cache = tmp_path / "cc"
    shutil.copytree(seed_dir, cache)
    monkeypatch.setenv(CACHE_ENV, str(cache))
    monkeypatch.setenv("REPRO_VALIDATE", "strict")
    restart()
    return cache


class Checks:
    """Counts of the decision and the three proofs since the last
    :meth:`take`: (fuse, verifier, sanitizer, differential)."""

    def __init__(self, monkeypatch):
        self._calls = [
            self._count(monkeypatch, plancache, "partition_for"),
            self._count(monkeypatch, verifier, "verify_partition_plan"),
            self._count(monkeypatch, native_check, "verify_native_blocks"),
            self._count(monkeypatch, tape.PartitionPlan, "execute"),
        ]

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def take(self):
        counts = tuple(len(calls) for calls in self._calls)
        for calls in self._calls:
            calls.clear()
        return counts


@pytest.fixture
def checks(monkeypatch):
    return Checks(monkeypatch)


@pytest.fixture
def builds(monkeypatch):
    """Every entry ``build_plan`` returned, at either door."""
    entries = []
    real = plancache.build_plan

    def recording(*args, **kwargs):
        entry = real(*args, **kwargs)
        entries.append(entry)
        return entry

    monkeypatch.setattr(api, "build_plan", recording)
    monkeypatch.setattr(serve_runtime, "build_plan", recording)
    return entries


def _inputs(app, width=WIDTH, height=HEIGHT):
    return request_inputs(APPLICATIONS[app], width, height, seed=3)


def direct_door(app):
    """One request per call through ``api.run``, on a graph built for
    that call."""
    inputs = _inputs(app)

    def request(**shaping):
        graph = APPLICATIONS[app].build(WIDTH, HEIGHT).build()
        return run(
            graph,
            inputs,
            DEFAULT_APP_PARAMS.get(app),
            options=ExecutionOptions(engine="native", **shaping),
        )

    return request


def serving_door(app):
    """One request per call through a ``ServingRuntime`` (and registry,
    and graph) made for that call."""
    inputs = _inputs(app)

    def request():
        registry = default_registry(apps={app})
        with ServingRuntime(registry, engine="native", workers=1) as runtime:
            return runtime.execute(app, inputs)

    return request


DOORS = pytest.mark.parametrize(
    "door", [direct_door, serving_door], ids=["direct", "serving"]
)


def assert_same(first, second):
    assert sorted(first) == sorted(second)
    for name in first:
        np.testing.assert_array_equal(first[name], second[name])


def records(cache):
    return sorted(
        path
        for path in cache.glob("plan-*.json")
        if ".partial." not in path.name
    )


def only_record(cache):
    (path,) = records(cache)
    return path, json.loads(path.read_text())


def verdicts(record):
    return tuple(
        record[bit] for bit in ("verified", "sanitized", "differential")
    )


def read_spy(monkeypatch, suffix):
    """Every path ending in ``suffix`` whose bytes are read from now on."""
    paths = []
    real = Path.read_bytes

    def reading(self):
        if self.name.endswith(suffix):
            paths.append(self)
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", reading)
    return paths


# -- (a) a warm restart re-decides and re-proves nothing --------------------


@DOORS
@pytest.mark.parametrize("app", APPS)
def test_restart_restores_everything(
    cache_dir, monkeypatch, checks, builds, door, app
):
    request = door(app)
    first = request()
    assert checks.take() == (1, 1, 1, 1)
    assert builds[-1].restored == () and builds[-1].record_rejected is None
    _, record = only_record(cache_dir)
    assert verdicts(record) == (True, True, True)
    assert record["format"] == plancache.RECORD_FORMAT
    assert record["library"].startswith("pipeline-")

    restart()
    spy = ToolchainSpy(monkeypatch)
    lowerings = count_calls(monkeypatch, native_exec, "_lower_partition")
    compiles = count_calls(monkeypatch, tape, "compile_block")
    library_reads = read_spy(monkeypatch, ".so")
    second = request()
    assert checks.take() == (0, 0, 0, 0)
    assert len(spy.loads) == 1 and not spy.commands
    # Bound from the manifest and the schedule: no C text, no tape, and
    # the .so is read (and hashed) once for the restore check and the
    # differential.
    assert not lowerings and not compiles and len(library_reads) == 1
    entry = builds[-1]
    assert entry.restored == EVERYTHING and entry.record_rejected is None
    assert entry.native_plan.source is None
    assert entry.native_plan.library_path.stem == record["library"]
    timings = entry.timings_ms
    assert timings["fuse_ms"] == 0.0
    assert timings["verify_ms"] == timings["native_verify_ms"] == 0.0
    assert timings["record_ms"] > 0.0
    assert entry.verified and entry.native_plan.sanitized
    assert not entry.native_plan.differential_pending
    assert_same(first, second)
    assert len(records(cache_dir)) == 1
    assert only_record(cache_dir)[1] == record  # nothing to rewrite


# -- (a') a restored entry compiles a tape only when something needs it ----


def test_a_cold_build_compiles_each_tape_once(cache_dir, monkeypatch, builds):
    compiles = count_calls(monkeypatch, tape, "compile_block")
    direct_door("Harris")()
    assert builds[-1].restored == ()
    assert len(compiles) == len(builds[-1].native_plan.natives) > 1


def test_float32_inputs_on_a_restored_plan_run_the_tape(
    cache_dir, monkeypatch, checks, builds
):
    inputs = {
        name: array.astype(np.float32)
        for name, array in _inputs("Sobel").items()
    }

    def request(engine="native"):
        graph = APPLICATIONS["Sobel"].build(WIDTH, HEIGHT).build()
        return run(graph, inputs, options=ExecutionOptions(engine=engine))

    first = request()
    assert checks.take() == (1, 1, 1, 1)
    restart()
    compiles = count_calls(monkeypatch, tape, "compile_block")
    second = request()
    entry = builds[-1]
    assert entry.restored == EVERYTHING
    # NativeBlock's runtime fallback compiled the tapes, once ...
    blocks = len(entry.native_plan.natives)
    assert len(compiles) == blocks
    assert_same(first, request())
    assert len(compiles) == blocks
    # ... and their bits are the answer.
    assert_same(request("tape"), second)


def test_a_record_without_the_differential_compiles_the_tape_to_run_it(
    cache_dir, monkeypatch, checks, builds
):
    request, first, path, record = _recorded(cache_dir, checks)
    record["differential"] = False
    path.write_text(json.dumps(record))
    compiles = count_calls(monkeypatch, tape, "compile_block")
    assert_same(first, request())
    assert checks.take() == (0, 0, 0, 1)
    entry = builds[-1]
    assert entry.restored == ("partition", "verified", "sanitized", "library")
    assert entry.record_rejected is None
    assert len(compiles) == len(entry.native_plan.natives)
    assert verdicts(json.loads(path.read_text())) == (True, True, True)


def test_a_ladder_step_off_a_restored_native_entry_still_serves(
    cache_dir, monkeypatch, builds
):
    inputs = _inputs("Sobel")
    registry = default_registry(apps={"Sobel"})
    with ServingRuntime(registry, engine="tape", workers=1) as runtime:
        reference = runtime.execute("Sobel", inputs)
    serving_door("Sobel")()
    restart()
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0),
        sleep=lambda _s: None,
    )
    with ServingRuntime(
        registry, engine="native", workers=1, resilience=policy
    ) as runtime:
        assert_same(reference, runtime.execute("Sobel", inputs))
        assert builds[-1].restored == EVERYTHING
        compiles = count_calls(monkeypatch, tape, "compile_block")
        # The restored entry fails to execute and is quarantined; its
        # rebuild fails in the native compile, so the request steps down
        # to the tape, whose plan is the one the record proved.
        with fault_injection("execute", "error", times=1), fault_injection(
            "native.compile", "error", times=None
        ):
            served = runtime.execute("Sobel", inputs)
        counters = runtime.metrics_snapshot()["counters"]
    assert counters["degraded_to_tape"] == 1
    assert builds[-1].engine == "tape" and builds[-1].verified
    assert compiles
    assert_same(reference, served)


def test_a_record_copied_under_another_key_is_rejected(
    cache_dir, monkeypatch, checks, builds
):
    inputs = {"src": np.random.default_rng(5).uniform(0, 255, (24, 32))}
    options = ExecutionOptions(engine="native")
    run(_two_kernels(2.0), inputs, options=options)
    path, record = only_record(cache_dir)
    restart()
    three = run(_two_kernels(3.0), inputs, options=options)
    (other,) = set(records(cache_dir)) - {path}
    other.write_bytes(path.read_bytes())
    restart()
    checks.take()
    spy = ToolchainSpy(monkeypatch)
    assert_same(three, run(_two_kernels(3.0), inputs, options=options))
    entry = builds[-1]
    assert entry.record_rejected == "tape digest"
    assert "verified" not in entry.restored and "library" not in entry.restored
    assert checks.take() == (0, 1, 1, 1)
    assert entry.native_plan.library_path.stem != record["library"]
    assert spy.loads and all(record["library"] not in str(p) for p in spy.loads)


def test_a_record_copied_under_another_dtype_is_rejected(
    cache_dir, checks, builds
):
    # Same graph, same partition: only the key tells the two apart.
    _, _, path, _ = _recorded(cache_dir, checks)
    inputs = {
        name: array.astype(np.float32)
        for name, array in _inputs("Sobel").items()
    }
    graph = APPLICATIONS["Sobel"].build(WIDTH, HEIGHT).build()
    options = ExecutionOptions(engine="native")
    single = run(graph, inputs, options=options)
    (other,) = set(records(cache_dir)) - {path}
    other.write_bytes(path.read_bytes())
    restart()
    checks.take()
    graph = APPLICATIONS["Sobel"].build(WIDTH, HEIGHT).build()
    assert_same(single, run(graph, inputs, options=options))
    assert builds[-1].record_rejected == "tape digest"
    assert builds[-1].restored == ("partition", "sanitized")
    assert checks.take() == (0, 1, 0, 1)


# -- (b) a record only carries what was established -------------------------


@DOORS
def test_standard_build_then_strict_restarts(
    cache_dir, monkeypatch, checks, builds, door
):
    request = door("Harris")
    monkeypatch.setenv("REPRO_VALIDATE", "standard")
    first = request()
    assert checks.take() == (1, 0, 0, 0)
    path, record = only_record(cache_dir)
    assert verdicts(record) == (False, False, False)

    monkeypatch.setenv("REPRO_VALIDATE", "strict")
    restart()
    second = request()
    assert checks.take() == (0, 1, 1, 1)
    assert builds[-1].restored == ("partition",)
    assert verdicts(json.loads(path.read_text())) == (True, True, True)

    restart()
    third = request()
    assert checks.take() == (0, 0, 0, 0)
    assert builds[-1].restored == EVERYTHING
    assert_same(first, second)
    assert_same(first, third)


def test_strict_hit_on_a_standard_entry_updates_the_record(
    cache_dir, monkeypatch, checks
):
    # No restart in between: validate_plan catches the entry up on the
    # hit, and what it proved reaches the record as well.
    request = direct_door("Sobel")
    request(validate="standard")
    path, record = only_record(cache_dir)
    assert verdicts(record) == (False, False, False)
    request(validate="strict")
    assert checks.take() == (1, 1, 1, 1)
    assert verdicts(json.loads(path.read_text())) == (True, True, True)


# -- (c) every way a record can be wrong ends in the full build -------------


def _recorded(cache_dir, checks, app="Sobel", door=direct_door):
    """A first strict request and the record it left."""
    request = door(app)
    first = request()
    assert checks.take() == (1, 1, 1, 1)
    path, record = only_record(cache_dir)
    restart()
    return request, first, path, record


def _assert_healed(cache_dir, checks, builds, request, first, count=1):
    """The rejected record was replaced by a valid one: the next restart
    restores everything."""
    assert len(records(cache_dir)) == count
    restart()
    assert_same(first, request())
    assert checks.take() == (0, 0, 0, 0)
    assert builds[-1].restored == EVERYTHING
    assert builds[-1].record_rejected is None


def test_truncated_record_is_unreadable_at_every_offset(
    cache_dir, checks, builds
):
    request, first, path, _ = _recorded(cache_dir, checks)
    whole = path.read_bytes()
    key = builds[-1].key
    for offset in range(len(whole)):
        path.write_bytes(whole[:offset])
        probe = plancache._PlanRecord(key)
        assert probe.rejected == "unreadable" and not probe.offered, offset
    for offset in (0, 1, len(whole) // 2, len(whole) - 1):
        path.write_bytes(whole[:offset])
        restart()
        assert_same(first, request())
        assert checks.take() == (1, 1, 1, 1), offset
        assert builds[-1].restored == ()
        assert builds[-1].record_rejected == "unreadable"
        assert verdicts(json.loads(path.read_text())) == (True, True, True)
    _assert_healed(cache_dir, checks, builds, request, first)


@pytest.mark.parametrize(
    "content", [b"[1, 2]", b"null", b'{"format": 99}', b"\xff\xfe"]
)
def test_wellformed_garbage_is_rejected(cache_dir, checks, builds, content):
    request, first, path, _ = _recorded(cache_dir, checks)
    path.write_bytes(content)
    assert_same(first, request())
    assert checks.take() == (1, 1, 1, 1)
    assert builds[-1].record_rejected in ("unreadable", "fingerprint")
    _assert_healed(cache_dir, checks, builds, request, first)


@pytest.mark.parametrize(
    "field, reason, rerun",
    [
        # The verdicts are bound one by one: only those whose digest no
        # longer reproduces are proved again.
        ("tape", "tape digest", (0, 1, 0, 1)),
        ("library", "source digest", (0, 0, 1, 1)),
        ("library_sha256", "library bytes", (0, 0, 0, 1)),
    ],
)
def test_flipped_digest_voids_the_verdicts_bound_to_it(
    cache_dir, checks, builds, field, reason, rerun
):
    request, first, path, record = _recorded(cache_dir, checks)
    record[field] = record[field][:-1] + ("0" if record[field][-1] != "0" else "1")
    path.write_text(json.dumps(record))
    assert_same(first, request())
    assert checks.take() == rerun
    assert builds[-1].record_rejected == reason
    _assert_healed(cache_dir, checks, builds, request, first)


@DOORS
@pytest.mark.parametrize(
    "value",
    ["x", [1.0], {"ms": 1.0}, True, -1.0, float("nan"), float("inf")],
    ids=["string", "list", "dict", "bool", "negative", "nan", "inf"],
)
def test_a_compile_ms_that_is_no_price_never_re_fuses(
    cache_dir, checks, builds, door, value
):
    """The price is read from the record, not proved by a digest: one
    that is not a finite, non-negative number is no price, and the
    requests on the restored entry keep succeeding."""
    request, first, path, record = _recorded(cache_dir, checks, door=door)
    record["compile_ms"] = value
    path.write_text(json.dumps(record))
    for _ in range(3):
        assert_same(first, request())
    assert checks.take() == (0, 0, 0, 0)
    assert builds[-1].restored == EVERYTHING
    assert builds[-1].price_ms is None and builds[-1].candidate is None
    assert json.loads(path.read_text())["compile_ms"] is None


def test_other_library_bytes_void_the_differential(cache_dir, checks, builds):
    request, first, path, record = _recorded(cache_dir, checks)
    # A different valid library under the recorded name: the same code,
    # other bytes (the loader ignores what follows the section table).
    library = cache_dir / f"{record['library']}.so"
    other = cache_dir / "other.so"
    other.write_bytes(library.read_bytes() + b"\0" * 8)
    os.replace(other, library)  # the loaded one stays mapped, untouched
    assert_same(first, request())
    assert checks.take() == (0, 0, 0, 1)
    assert builds[-1].restored == ("partition", "verified", "sanitized")
    assert builds[-1].record_rejected == "library bytes"
    assert json.loads(path.read_text())["library_sha256"] != record[
        "library_sha256"
    ]
    _assert_healed(cache_dir, checks, builds, request, first)


def test_record_of_a_missing_library_is_harmless(cache_dir, checks, builds):
    request, first, path, record = _recorded(cache_dir, checks)
    (cache_dir / f"{record['library']}.so").unlink()
    assert_same(first, request())  # relinked from the cached objects
    fuse, verify, sanitize, _ = checks.take()
    assert (fuse, verify, sanitize) == (0, 0, 0)
    _assert_healed(cache_dir, checks, builds, request, first)


# -- (c') a library the record cannot bind is lowered, never misbound -------


def _other_cpu_caches(monkeypatch, cache_dir, record):
    # Same sizes, so the same tiles and the same source: only the
    # toolchain digest tells this host from the recorded one.
    caches = dataclasses.replace(hardware.detect_cpu_caches(), source="calibrated")
    monkeypatch.setattr(hardware, "_detected_cpu_caches", caches)


def _other_compiler_path(monkeypatch, cache_dir, record):
    # The same compiler found under another path.
    tools = cache_dir.parent / "bin"
    tools.mkdir()
    (tools / "cc").symlink_to(cpu_exec._find_compiler())
    monkeypatch.setenv("PATH", f"{tools}{os.pathsep}{os.environ['PATH']}")


def _stem_outside_the_cache(monkeypatch, cache_dir, record):
    # A loadable library where the stem points, should anything follow it.
    library = cache_dir / f"{record['library']}.so"
    shutil.copy(library, cache_dir.parent / "x.so")
    record["library"] = "../x"


def _missing_block(monkeypatch, cache_dir, record):
    record["bindings"].pop()


def _extra_block(monkeypatch, cache_dir, record):
    record["bindings"].append(record["bindings"][0])


def _image_the_tape_does_not_read(monkeypatch, cache_dir, record):
    record["bindings"][0]["images"] = ["nowhere"]


def _schedule_past_its_geometry(monkeypatch, cache_dir, record):
    schedule = record["bindings"][0]["schedule"]
    schedule["parallel"] = not schedule["parallel"]


def _other_library_bytes(monkeypatch, cache_dir, record):
    library = cache_dir / f"{record['library']}.so"
    other = cache_dir / "other.so"
    other.write_bytes(library.read_bytes() + b"\0" * 8)
    os.replace(other, library)


def _deleted_library(monkeypatch, cache_dir, record):
    (cache_dir / f"{record['library']}.so").unlink()


@DOORS
@pytest.mark.parametrize(
    "tamper, reason, rerun",
    [
        pytest.param(_other_cpu_caches, "toolchain", (0, 0, 0, 0), id="cpu_caches"),
        pytest.param(
            _other_compiler_path, "toolchain", (0, 0, 1, 1), id="compiler_path"
        ),
        pytest.param(
            _stem_outside_the_cache, "source digest", (0, 0, 1, 1),
            id="outside_stem",
        ),
        pytest.param(_missing_block, "bindings", (0, 0, 0, 0), id="missing_block"),
        pytest.param(_extra_block, "bindings", (0, 0, 0, 0), id="extra_block"),
        pytest.param(
            _image_the_tape_does_not_read, "bindings", (0, 0, 0, 0),
            id="foreign_image",
        ),
        pytest.param(
            _schedule_past_its_geometry, "bindings", (0, 0, 0, 0),
            id="parallel_flipped",
        ),
        pytest.param(
            _other_library_bytes, "library bytes", (0, 0, 0, 1), id="other_bytes"
        ),
        # Relinked from the cached objects: the differential reruns only
        # if the linker wrote other bytes.
        pytest.param(_deleted_library, "library bytes", None, id="deleted_library"),
    ],
)
def test_tampered_record_is_lowered_never_misbound(
    cache_dir, monkeypatch, checks, builds, door, tamper, reason, rerun
):
    request, first, path, record = _recorded(cache_dir, checks, door=door)
    tamper(monkeypatch, cache_dir, record)
    path.write_text(json.dumps(record))
    spy = ToolchainSpy(monkeypatch)
    library_reads = read_spy(monkeypatch, ".so")
    lowerings = count_calls(monkeypatch, native_exec, "_lower_partition")
    assert_same(first, request())
    assert len(lowerings) == 1
    entry = builds[-1]
    assert entry.record_rejected == reason
    assert "library" not in entry.restored
    counts = checks.take()
    assert rerun is None or counts == rerun
    opened = [Path(p) for p in spy.loads] + library_reads
    assert opened
    assert all(p.resolve().parent == cache_dir.resolve() for p in opened)
    _assert_healed(cache_dir, checks, builds, request, first)


def _dropped_image(record):
    record["bindings"][0]["images"] = []


def _dropped_param(record):
    record["bindings"][0]["params"] = []


@DOORS
@pytest.mark.parametrize(
    "tamper", [_dropped_image, _dropped_param], ids=["dropped_image", "dropped_param"]
)
def test_a_manifest_that_drops_a_read_is_lowered_never_misbound(
    cache_dir, monkeypatch, checks, builds, door, tamper
):
    # Bound as recorded, the function would take fewer arguments than it
    # was compiled with.  Enhance's block reads an image and a param.
    request, first, path, record = _recorded(cache_dir, checks, "Enhance", door)
    tamper(record)
    path.write_text(json.dumps(record))
    lowerings = count_calls(monkeypatch, native_exec, "_lower_partition")
    assert_same(first, request())
    assert len(lowerings) == 1
    entry = builds[-1]
    assert entry.record_rejected == "bindings"
    assert "library" not in entry.restored
    assert checks.take() == (0, 0, 0, 0)
    assert [
        (native.spec.images, native.spec.params)
        for native in entry.native_plan.natives
    ] == [(("input",), ("gamma",))]
    _assert_healed(cache_dir, checks, builds, request, first)


@pytest.mark.parametrize("geometry", [(WIDTH, HEIGHT), (1024, 1024)], ids=str)
def test_a_bound_plan_has_the_lowered_schedules(cache_dir, geometry):
    """The manifest spells each block's schedule once: bound from its
    JSON — no tape, no lowering — a plan has the lowered plan's
    schedules, and so its hoisting notes."""
    for app in APPS:
        graph = APPLICATIONS[app].build(*geometry).build()
        lowered = native_plan_for_partition(
            graph, partition_for(graph, GTX680, "optimized")
        )
        recorded = native_exec.RecordedLibrary(
            lowered.library_path.stem,
            lowered.library_sha256,
            json.loads(json.dumps(lowered.bindings())),
            lowered.library_path.parent,
        )
        bound = native_exec._bind_recorded(lowered.plan, recorded, lowered.f32)
        assert bound.from_record, app
        assert [native.spec.schedule for native in bound.natives] == [
            native.spec.schedule for native in lowered.natives
        ], app
        assert bound.hoisted == lowered.hoisted, app


@DOORS
def test_a_record_written_with_libmvec_is_rejected_without_it(
    cache_dir, monkeypatch, checks, builds, door
):
    if not native_exec._libmvec(cpu_exec._find_compiler()):
        pytest.skip("no libmvec on this host")
    request, first, _, record = _recorded(cache_dir, checks, "Enhance", door)
    # The same compiler and flags, but the probe finds no variant now.
    monkeypatch.setattr(
        native_exec, "libmvec_variants", lambda routines, cc=None: frozenset()
    )
    second = request()
    entry = builds[-1]
    assert entry.record_rejected == "toolchain"
    assert "library" not in entry.restored
    assert checks.take()[2:] == (1, 1)  # a new library: sanitized, compared
    library = entry.native_plan.library_path
    assert library.stem != record["library"]
    assert "_ZGV" not in entry.native_plan.source
    for name, value in first.items():
        native_exec.assert_native_equiv(
            value, second[name], entry.native_plan.tolerance, name
        )
    restart()
    assert_same(second, request())
    assert builds[-1].restored == EVERYTHING


def test_a_restored_library_is_used_for_the_lru(
    cache_dir, monkeypatch, checks, builds
):
    request, _, path, record = _recorded(cache_dir, checks)
    library = cache_dir / f"{record['library']}.so"
    for artifact in cache_dir.iterdir():
        os.utime(artifact, (1, 1))
    request()
    assert builds[-1].restored == EVERYTHING
    # Room for the library, its source and the record only: every other
    # artifact is older, so it goes first.
    kept = (library, library.with_suffix(".c"), path)
    monkeypatch.setenv(CACHE_MAX_ENV, str(sum(p.stat().st_size for p in kept)))
    assert evict_stale_artifacts() > 0
    assert library.exists() and path.exists()


def test_other_code_fingerprint_never_meets_the_record(
    cache_dir, monkeypatch, checks, builds
):
    request, first, path, record = _recorded(cache_dir, checks)
    before = path.read_bytes()
    monkeypatch.setattr(plancache, "code_fingerprint", lambda: "edited")
    assert_same(first, request())
    assert checks.take() == (1, 1, 1, 1)
    assert builds[-1].restored == () and builds[-1].record_rejected is None
    assert path.read_bytes() == before
    (other,) = set(records(cache_dir)) - {path}
    assert json.loads(other.read_text())["fingerprint"] == "edited"
    # A record moved under the other fingerprint's name is refused by
    # the fingerprint it carries.
    other.write_bytes(before)
    restart()
    assert_same(first, request())
    assert checks.take() == (1, 1, 1, 1)
    assert builds[-1].record_rejected == "fingerprint"
    _assert_healed(cache_dir, checks, builds, request, first, count=2)


@pytest.mark.parametrize(
    "blocks",
    [
        [["no_such_kernel"]],
        [["dx"], ["dx"], ["dy"], ["magnitude"]],
        [["dx"]],
        "dx",
        [[1, 2]],
        [[["dx"]]],
        7,
    ],
)
def test_partition_the_graph_rejects_is_decided_again(
    cache_dir, checks, builds, blocks
):
    request, first, path, record = _recorded(cache_dir, checks)
    record["partition"] = blocks
    path.write_text(json.dumps(record))
    assert_same(first, request())
    # The min-cut runs; the digests still reproduce, so the proofs hold.
    assert checks.take() == (1, 0, 0, 0)
    assert builds[-1].restored == EVERYTHING[1:]
    assert builds[-1].record_rejected == "partition"
    _assert_healed(cache_dir, checks, builds, request, first)


def _two_kernels(scale):
    pipe = Pipeline("two")
    src, mid, out = (image(name, 32, 24) for name in ("src", "mid", "out"))
    pipe.add(local_kernel("blur", src, mid))
    pipe.add(point_kernel("gain", mid, out, scale=scale))
    return pipe.build()


def test_changed_constant_is_another_key(cache_dir, checks, builds):
    inputs = {"src": np.random.default_rng(5).uniform(0, 255, (24, 32))}
    options = ExecutionOptions(engine="native")
    first = run(_two_kernels(2.0), inputs, options=options)
    assert checks.take() == (1, 1, 1, 1)
    path, _ = only_record(cache_dir)
    before = path.read_bytes()
    restart()
    other = run(_two_kernels(3.0), inputs, options=options)
    assert checks.take() == (1, 1, 1, 1)
    assert builds[-1].restored == ()
    assert len(records(cache_dir)) == 2 and path.read_bytes() == before
    assert not np.array_equal(first["out"], other["out"])
    restart()
    assert_same(first, run(_two_kernels(2.0), inputs, options=options))
    assert checks.take() == (0, 0, 0, 0)


# -- (e) explicit partitions have records of their own ----------------------


def test_explicit_and_staged_requests_have_their_own_records(
    cache_dir, checks, builds
):
    request = direct_door("Harris")
    graph = APPLICATIONS["Harris"].build(WIDTH, HEIGHT).build()
    basic = partition_for(graph, GTX680, "basic")
    checks.take()
    shapings = [{}, {"fuse": False}, {"partition": basic}]
    answers = []
    for count, shaping in enumerate(shapings, start=1):
        answers.append(request(**shaping))
        assert len(records(cache_dir)) == count
    # Only the fused request decides anything.
    assert checks.take() == (1, 3, 3, 3)
    restart()
    for shaping, answer in zip(shapings, answers):
        assert_same(answer, request(**shaping))
    assert checks.take() == (0, 0, 0, 0)
    assert [entry.restored for entry in builds[3:]] == [
        EVERYTHING,
        EVERYTHING[1:],
        EVERYTHING[1:],
    ]
    assert len(records(cache_dir)) == 3


# -- (f) processes sharing one directory ------------------------------------

_REQUEST = """
import sys
import numpy as np
from repro.apps import APPLICATIONS
from repro.serve import plancache
# Native from the first answer: these processes race on the native build.
plancache.native_strategy = lambda plan, lowered: "blocking"
from repro.api import ExecutionOptions, run
from repro.apps import request_inputs
inputs = request_inputs(APPLICATIONS["Sobel"], 96, 64, seed=3)
graph = APPLICATIONS["Sobel"].build(96, 64).build()
options = ExecutionOptions(engine="native", validate="strict")
env = run(graph, inputs, options=options)
sys.stdout.write(repr(float(np.sum(env["magnitude"]))))
"""

_KILLED_BEFORE_RENAME = """
import os, signal
real = os.replace
def replace(src, dst):
    if os.path.basename(dst).startswith("plan-"):
        os.kill(os.getpid(), signal.SIGKILL)
    return real(src, dst)
os.replace = replace
""" + _REQUEST


def _child_env(cache):
    env = dict(os.environ)
    env[CACHE_ENV] = str(cache)
    env["PYTHONPATH"] = SRC
    return env


def test_two_processes_racing_on_one_empty_directory(tmp_path, monkeypatch):
    cache = tmp_path / "empty"
    racers = [
        subprocess.Popen(
            [sys.executable, "-c", _REQUEST],
            env=_child_env(cache),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    results = [racer.communicate(timeout=300) for racer in racers]
    for racer, (_, err) in zip(racers, results):
        assert racer.returncode == 0, err
    assert results[0][0] == results[1][0] != ""
    _, record = only_record(cache)
    assert verdicts(record) == (True, True, True)
    assert not list(cache.glob("*.partial.*"))


def test_writer_killed_before_the_rename_leaves_no_record(
    cache_dir, checks, builds
):
    child = subprocess.run(
        [sys.executable, "-c", _KILLED_BEFORE_RENAME],
        env=_child_env(cache_dir), capture_output=True, timeout=300,
    )
    assert child.returncode == -signal.SIGKILL
    (leftover,) = cache_dir.glob("plan-*.partial.json")
    assert not records(cache_dir)
    # A reader sees no record, not half of one ...
    request = direct_door("Sobel")
    first = request()
    assert checks.take() == (1, 1, 1, 1)
    assert builds[-1].record_rejected is None
    assert verdicts(only_record(cache_dir)[1]) == (True, True, True)
    # ... and the dead writer's scratch file goes with the next sweep.
    cpu_exec._sweep_orphans(cache_dir)
    assert not leftover.exists()
    _assert_healed(cache_dir, checks, builds, request, first)


# -- (g) a failed check is never recorded as passed -------------------------


def test_sanitizer_failure_is_never_recorded(cache_dir, monkeypatch, checks):
    request = direct_door("Sobel")
    real = native_check.verify_native_blocks
    with monkeypatch.context() as patch:
        # The seeded defect of tests/analysis: blocks without functions.
        patch.setattr(
            native_check,
            "verify_native_blocks",
            lambda natives: real([with_ir(native, ()) for native in natives]),
        )
        with pytest.raises(verifier.PlanVerificationError, match="NAT004"):
            request()
    assert not records(cache_dir)
    restart()
    checks.take()
    request()
    assert checks.take() == (1, 1, 1, 1)
    assert verdicts(only_record(cache_dir)[1]) == (True, True, True)


def _flipped(block):
    """``block`` with its first tape constant changed."""
    index, instr = next(
        (i, instr) for i, instr in enumerate(block.tape) if instr.op == "const"
    )
    mutated = list(block.tape)
    mutated[index] = tape.Instr("const", instr.args, (instr.aux[0] + 1.0,))
    return tape.BlockPlan(
        block.destination, mutated, block.root, block.store,
        block.apply_reduction, block.stats, block.naive_borders, block.kind,
    )


def _flip_first_const(plan):
    """``plan`` with one tape constant changed (TAPE008 for the verifier,
    another digest for the record)."""
    plan.plans[0] = _flipped(plan.plans[0])


def test_verifier_failure_is_never_recorded(cache_dir, monkeypatch, checks):
    request = direct_door("Sobel")

    class Mutated(tape.PartitionPlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            _flip_first_const(self)

    with monkeypatch.context() as patch:
        patch.setattr(tape, "PartitionPlan", Mutated)
        with pytest.raises(verifier.PlanVerificationError, match="TAPE008"):
            request()
        assert not records(cache_dir)
        # Built where nobody checks, the mutated tape gets a record that
        # claims nothing ...
        restart()
        request(validate="standard")
        path, record = only_record(cache_dir)
        assert verdicts(record) == (False, False, False)
        # ... and a strict restart on the same tape fails again.
        restart()
        with pytest.raises(verifier.PlanVerificationError, match="TAPE008"):
            request()
        assert verdicts(json.loads(path.read_text())) == (False, False, False)
    # The honest tape has another digest: nothing of the verifier's is
    # taken from that record.
    restart()
    checks.take()
    request()
    fuse, verify, _, _ = checks.take()
    assert (fuse, verify) == (0, 1)
    assert verdicts(json.loads(path.read_text())) == (True, True, True)


def test_recorded_verdict_does_not_cover_a_mutated_tape(
    cache_dir, monkeypatch, checks
):
    request, _, path, record = _recorded(cache_dir, checks)

    class Mutated(tape.PartitionPlan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            _flip_first_const(self)

    monkeypatch.setattr(tape, "PartitionPlan", Mutated)
    with pytest.raises(verifier.PlanVerificationError, match="TAPE008"):
        request()
    assert json.loads(path.read_text()) == record


def test_a_tape_compiled_on_first_need_is_held_to_the_recorded_digest(
    cache_dir, monkeypatch, checks
):
    # The restored plan compiles its tapes for the differential the
    # record does not hold; a compiler that now writes other tapes does
    # not inherit the verdict the record proved on the old ones.
    request, _, path, record = _recorded(cache_dir, checks)
    record["differential"] = False
    path.write_text(json.dumps(record))
    compile_block = tape.compile_block
    monkeypatch.setattr(
        tape, "compile_block", lambda *a, **k: _flipped(compile_block(*a, **k))
    )
    with pytest.raises(verifier.PlanVerificationError, match="TAPE008"):
        request()
    assert checks.take()[1] == 1
    assert json.loads(path.read_text()) == record


def test_a_recorded_tape_digest_the_tapes_do_not_have_is_verified_again(
    cache_dir, checks, builds
):
    request, first, path, record = _recorded(cache_dir, checks)
    digest = record["tape_digest"]
    record["differential"] = False
    record["tape_digest"] = "0" * 64
    path.write_text(json.dumps(record))
    assert_same(first, request())
    # The identity still binds the restore; the tapes compiled for the
    # differential are verified, since no verdict covers their digest.
    assert checks.take() == (0, 1, 0, 1)
    assert builds[-1].restored == (
        "partition", "verified", "sanitized", "library"
    )
    healed = json.loads(path.read_text())
    assert healed["tape_digest"] == digest
    assert verdicts(healed) == (True, True, True)
    _assert_healed(cache_dir, checks, builds, request, first)


@DOORS
def test_differential_mismatch_quarantines_and_writes_no_bit(
    cache_dir, monkeypatch, checks, door
):
    request = door("Sobel")
    quarantined = PROCESS_CACHE.stats()["quarantined"]

    def mismatch(*args, **kwargs):
        raise NativeVerificationError("injected mismatch")

    with monkeypatch.context() as patch:
        patch.setattr(native_exec, "assert_native_equiv", mismatch)
        with pytest.raises(NativeVerificationError):
            request()
    path, record = only_record(cache_dir)
    assert verdicts(record) == (True, True, False)
    if door is direct_door:
        assert PROCESS_CACHE.stats()["quarantined"] == quarantined + 1
        assert len(PROCESS_CACHE) == 0
    restart()
    checks.take()
    request()
    assert checks.take() == (0, 0, 0, 1)
    assert verdicts(json.loads(path.read_text())) == (True, True, True)


# -- records are artifacts of the compile cache -----------------------------


def test_records_share_the_lru_the_stats_and_the_resets(
    cache_dir, monkeypatch, checks
):
    request, _, path, _ = _recorded(cache_dir, checks)
    stats = compile_cache_stats()
    assert stats["records"] == 1
    assert stats["record_bytes"] == path.stat().st_size
    # A restore refreshes the record's LRU clock ...
    os.utime(path, (1, 1))
    request()
    assert path.stat().st_mtime > 1
    # ... an old record goes first under the byte cap ...
    os.utime(path, (1, 1))
    total = sum(
        f.stat().st_size for f in cache_dir.iterdir() if f.is_file()
    )
    monkeypatch.setenv(CACHE_MAX_ENV, str(total - 1))
    assert evict_stale_artifacts() == 1
    assert not path.exists()
    assert compile_cache_stats()["records"] == 0
    # ... and clear_compile_cache is how re-proving is forced.
    monkeypatch.delenv(CACHE_MAX_ENV)
    restart()
    request()
    assert len(records(cache_dir)) == 1
    clear_compile_cache()
    assert not cache_dir.exists()


def test_unwritable_cache_costs_the_record_not_the_request(
    cache_dir, monkeypatch, checks, builds
):
    attempts = []
    real = Path.write_text

    def full_disk(self, *args, **kwargs):
        if self.name.startswith("plan-"):
            attempts.append(self.name)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", full_disk)
    request = direct_door("Sobel")
    first = request()
    for _ in range(5):
        assert_same(first, request())
    # Tried after the build and after the differential, not per request.
    assert len(attempts) == 2 and len(builds) == 1
    assert not records(cache_dir)
    assert not list(cache_dir.glob("*.partial.*"))
    restart()
    assert_same(first, request())
    assert checks.take() == (2, 2, 2, 2)


def test_serving_counters_say_what_happened(cache_dir):
    def counters(runtime):
        found = runtime.metrics_snapshot()["counters"]
        return tuple(
            found[f"plan_records_{what}"]
            for what in ("restored", "written", "rejected")
        )

    inputs = _inputs("Sobel")
    registry = default_registry(apps={"Sobel"})
    with ServingRuntime(registry, engine="native", workers=1) as runtime:
        runtime.execute("Sobel", inputs)
        runtime.execute("Sobel", inputs)
        # Written after the build, and again after the differential.
        assert counters(runtime) == (0, 2, 0)
    restart()
    with ServingRuntime(registry, engine="native", workers=1) as runtime:
        runtime.execute("Sobel", inputs)
        assert counters(runtime) == (1, 0, 0)
    path, _ = only_record(cache_dir)
    path.write_bytes(path.read_bytes()[:40])
    restart()
    with ServingRuntime(registry, engine="native", workers=1) as runtime:
        runtime.execute("Sobel", inputs)
        assert counters(runtime) == (0, 2, 1)


def test_records_under_other_cflags_never_meet(
    cache_dir, monkeypatch, checks, builds
):
    # REPRO_NATIVE_CFLAGS (the ASan/UBSan job's flags) is in the plan key
    # and in the source digest: two records, two libraries.
    request = direct_door("Sobel")
    first = request()
    base = os.environ.get("REPRO_NATIVE_CFLAGS", "")
    monkeypatch.setenv(
        "REPRO_NATIVE_CFLAGS", f"{base} -DREPRO_RECORD_TEST=1".strip()
    )
    restart()
    checks.take()
    assert_same(first, request())
    assert checks.take() == (1, 1, 1, 1)
    assert builds[-1].restored == ()
    libraries = {json.loads(p.read_text())["library"] for p in records(cache_dir)}
    assert len(records(cache_dir)) == len(libraries) == 2


def test_entry_is_freed_without_the_cycle_collector(cache_dir):
    # The differential's callback sits on the native plan the entry
    # owns; a strong reference back would park every dropped entry —
    # graph, tapes, grids — until a full collection (cold_start's peak
    # RSS rose 11 % that way).
    graph = APPLICATIONS["Sobel"].build(WIDTH, HEIGHT).build()
    key = plan_key(
        graph.structural_signature(), _inputs("Sobel"), "native",
        FusionSettings(),
    )
    gc.disable()
    try:
        entry = plancache.build_plan(
            graph, key=key, fusion=FusionSettings(), engine="native"
        )
        assert entry.native_plan.differential_pending
        alive = weakref.ref(entry)
        del entry
        assert alive() is None
    finally:
        gc.enable()


def test_restored_entry_is_freed_without_the_cycle_collector(cache_dir):
    # Its tape plan compiles lazily from a graph it holds only weakly.
    direct_door("Sobel")()
    restart()
    graph = APPLICATIONS["Sobel"].build(WIDTH, HEIGHT).build()
    key = plan_key(
        graph.structural_signature(), _inputs("Sobel"), "native",
        FusionSettings(),
    )
    gc.disable()
    try:
        entry = plancache.build_plan(
            graph, key=key, fusion=FusionSettings(), engine="native"
        )
        assert entry.restored == EVERYTHING
        alive = [weakref.ref(entry), weakref.ref(entry.plan)]
        del entry
        assert alive[0]() is None
        del graph
        assert alive[1]() is None
    finally:
        gc.enable()


def test_no_pickle_in_the_cache_directory(cache_dir):
    direct_door("Sobel")()
    for path in cache_dir.iterdir():
        assert path.suffix in (".so", ".o", ".c", ".json")
        if path.suffix == ".json":
            json.loads(path.read_text())


def test_key_names_the_record(cache_dir, builds):
    direct_door("Sobel")()
    graph = APPLICATIONS["Sobel"].build(WIDTH, HEIGHT).build()
    key = plan_key(
        graph.structural_signature(), _inputs("Sobel"), "native",
        FusionSettings(),
    )
    assert builds[-1].key == key
    path, _ = only_record(cache_dir)
    assert plancache._PlanRecord(key).name == path.name
    assert len(path.stem) == len("plan-") + 24
