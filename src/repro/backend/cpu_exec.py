"""The C toolchain behind the native engine: find, compile, cache, load.

:mod:`repro.backend.native_exec` lowers block tapes to C text; this
module turns that text into a callable library: compiler discovery
(:func:`compiler_available`), the content-hash cache of libraries and
kernel objects (:func:`build_shared_library`), its eviction
(:func:`evict_stale_artifacts`), and the ``dlopen``
(:func:`load_kernel_library`).

**The unit of compilation is the kernel, not the pipeline.**  A library
is linked from one translation unit per lowered block, and the cache —
``<tmp>/repro-cc-cache``, or wherever ``REPRO_CC_CACHE`` points — holds
both levels, each beside the ``.c`` it was made from:

* ``pipeline-<digest>.so`` — a partition's library, named by a SHA-256
  digest of the compiler, the flags and the *whole* generated source.
  Building the same partitioned pipeline twice, within a process or
  across runs, is one ``stat`` and one ``dlopen``.
* ``kernel-<digest>.o`` — one block's object, named by the same digest
  of its own text.  The sharing rule is **same cc + same flags + same
  text ⇒ same object**, whichever pipeline asks: a library miss runs
  ``cc -c`` only for the kernels nobody has compiled yet (ShiTomasi
  after Harris compiles one of its six), in parallel on a process-wide
  pool of :func:`available_cores` workers, and links once.
* ``plan-<digest>.json`` — one persisted plan record per plan key,
  read and written by :func:`repro.serve.plancache.build_plan` only
  (:func:`read_cache_bytes` / :func:`write_cache_text` are its file
  access): the partition and the strict-mode verdicts for the exact
  digests they were proved on, so a restart neither re-decides nor
  re-proves what the artifacts above have not changed under.  An
  artifact like the other two: same LRU, same byte cap, same atomic
  write, same sweep, gone with :func:`clear_compile_cache`.

The directory is the only store — nothing is remembered in memory, so an
emptied directory means every kernel is compiled again.  It is keyed
purely by content and written atomically (scratch file + ``os.replace``;
a scratch file whose writer died is swept by the next build), so it is
shared **across processes**: any two processes pointed at one directory
share its artifacts, and only the first to need a kernel pays the
compiler.

**GIL release.**  Every compiled entry point is loaded through
:class:`ctypes.CDLL`, which — unlike ``ctypes.PyDLL`` — releases the
GIL for the duration of each foreign call.  This is a load-bearing
guarantee: the scheduler threads of the serving tier
(:mod:`repro.serve.scheduler`) overlap native kernel execution on
separate cores, and pop the next request while a kernel runs, only
because the interpreter lock is dropped at the call boundary.  Keep any
future loader on ``CDLL`` (or an equivalent GIL-releasing FFI).
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.envknobs import dir_env, size_env

from repro.backend.numpy_exec import ExecutionError, fault_check


def compiler_available() -> bool:
    """Whether a usable C compiler is on PATH."""
    return _find_compiler() is not None


#: ``PATH`` at the last discovery -> the compiler found there (one
#: entry: the walk is three ``shutil.which`` scans, and the engine
#: table asks on every request).
_compiler_on_path: tuple[str | None, str | None] | None = None


def _find_compiler() -> str | None:
    global _compiler_on_path
    path = os.environ.get("PATH")
    if _compiler_on_path is None or _compiler_on_path[0] != path:
        found = None
        for name in ("cc", "gcc", "clang"):
            found = shutil.which(name)
            if found:
                break
        _compiler_on_path = (path, found)
    return _compiler_on_path[1]


#: Environment variable redirecting the shared-library cache directory.
CACHE_ENV = "REPRO_CC_CACHE"

#: Environment variable capping the on-disk cache size in bytes
#: (accepts ``K``/``M``/``G`` suffixes, e.g. ``REPRO_CC_CACHE_MAX=256M``).
#: Unset means unbounded — the historical behaviour; ``0`` keeps only
#: the most recently built library and the objects it was linked from.
CACHE_MAX_ENV = "REPRO_CC_CACHE_MAX"

#: Default eviction cap applied when ``REPRO_CC_CACHE_MAX`` is unset.
#: ``None`` — the cache has no implicit bound, matching pre-eviction
#: releases; deployments opt in through the knob.
DEFAULT_CACHE_MAX: int | None = None


#: The cache directory a request resolved at its door
#: (:func:`cache_directory`); ``None`` outside a request.  A contextvar,
#: so a background build running in a copy of its request's context
#: compiles and records where that request would have, whatever
#: ``REPRO_CC_CACHE`` says by the time it runs.
CACHE_DIRECTORY: ContextVar[Optional[Path]] = ContextVar(
    "repro_cc_cache_directory", default=None
)


#: ``REPRO_CC_CACHE`` at the last resolution -> the directory it named
#: (one entry: both doors resolve it on every request).
_cache_env: tuple[str | None, Path | None] = (None, None)


def _cache_dir() -> Path:
    global _cache_env
    scoped = CACHE_DIRECTORY.get()
    if scoped is not None:
        return scoped
    raw = os.environ.get(CACHE_ENV)
    if _cache_env[1] is None or _cache_env[0] != raw:
        default = Path(tempfile.gettempdir()) / "repro-cc-cache"
        _cache_env = (raw, dir_env(CACHE_ENV, default))
    return _cache_env[1]


@contextmanager
def cache_directory(path: Optional[Path] = None) -> Iterator[Path]:
    """Scope ``path`` — by default the directory resolved now: the
    enclosing scope's, else ``REPRO_CC_CACHE``'s — over the block: every
    artifact the block (and any job queued from it) reads or writes is
    in that one directory.  Both doors open one per request."""
    token = CACHE_DIRECTORY.set(path or _cache_dir())
    try:
        yield CACHE_DIRECTORY.get()
    finally:
        CACHE_DIRECTORY.reset(token)


def clear_compile_cache() -> None:
    """Delete every cached library, object and plan record (tests,
    stale toolchains, forcing strict mode to prove everything again)."""
    shutil.rmtree(_cache_dir(), ignore_errors=True)


def available_cores() -> int:
    """The cores this process may run on: its affinity mask (a
    container's cpuset shows here), ``os.cpu_count()`` on platforms
    without one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _artifacts(cache: Path) -> List[Tuple[Path, os.stat_result]]:
    """Every finished artifact in ``cache`` — ``pipeline-*.so``,
    ``kernel-*.o`` and the plan records ``plan-*.json`` — with its
    ``stat``.  Scratch files (``*.partial.*``) belong to an in-flight
    build and are not artifacts; a file vanishing mid-scan (a concurrent
    evictor or ``clear_compile_cache``) is skipped, never an error."""
    found = []
    for pattern in ("pipeline-*.so", "kernel-*.o", "plan-*.json"):
        try:
            paths = list(cache.glob(pattern))
        except OSError:
            continue
        for path in paths:
            if ".partial." in path.name:
                continue
            try:
                found.append((path, path.stat()))
            except OSError:
                continue
    return found


def compile_cache_stats() -> Dict[str, object]:
    """The on-disk compile cache at a glance (observability surface).

    Returns the cache directory, the number of cached libraries and
    their total byte size (``libraries`` / ``bytes``: ``.so`` files
    only), the same for the kernel objects they were linked from
    (``objects`` / ``object_bytes``) and for the persisted plan records
    beside them (``records`` / ``record_bytes``).  A monitoring read,
    not a consistency check.
    """
    cache = _cache_dir()
    stats = {"dir": str(cache), "libraries": 0, "bytes": 0,
             "objects": 0, "object_bytes": 0,
             "records": 0, "record_bytes": 0}
    counters = {
        ".so": ("libraries", "bytes"),
        ".o": ("objects", "object_bytes"),
        ".json": ("records", "record_bytes"),
    }
    for path, stat in _artifacts(cache):
        count, size = counters[path.suffix]
        stats[count] += 1
        stats[size] += stat.st_size
    return stats


#: Objects a link of this process is reading (a count: two partitions
#: linking at once may share kernels).  No evictor of this process drops
#: them — the builder pins before it probes, the evictor unlinks under
#: the same guard.  Evictors in *other* processes are caught by the
#: relink in :func:`build_shared_library`.
_pinned: "Counter[Path]" = Counter()
_pinned_guard = threading.Lock()


@contextmanager
def _pinned_objects(paths: Sequence[Path]) -> Iterator[None]:
    with _pinned_guard:
        _pinned.update(paths)
    try:
        yield
    finally:
        with _pinned_guard:
            _pinned.subtract(paths)


def evict_stale_artifacts(keep: Path | Iterable[Path] | None = None) -> int:
    """Trim the on-disk cache to the ``REPRO_CC_CACHE_MAX`` byte cap.

    Artifacts — libraries and kernel objects, each with its matching
    ``.c``, and plan records, all in one LRU — are dropped oldest-access
    first until the cache fits; ``keep`` names artifacts that must
    survive regardless (the library the caller is about to load), and
    the objects of a link in progress always do.  Returns the number of artifacts evicted.  A
    no-op when the knob is unset.  Concurrent evictors and builders
    tolerate each other: a file deleted under our feet is simply
    skipped, and a reader that loses its library to eviction rebuilds
    (see :func:`load_kernel_library`).
    """
    limit = size_env(CACHE_MAX_ENV, DEFAULT_CACHE_MAX)
    if limit is None:
        return 0
    kept = {keep} if isinstance(keep, Path) else set(keep or ())
    entries = []
    for path, stat in _artifacts(_cache_dir()):
        source = path.with_suffix(".c")
        try:
            size = stat.st_size + source.stat().st_size
        except OSError:
            size = stat.st_size
        entries.append((stat.st_mtime, size, path, source))
    entries.sort(reverse=True)  # newest first; evict from the tail
    evicted = 0
    total = 0
    for mtime, size, path, source in entries:
        total += size
        if total <= limit or path in kept:
            continue
        with _pinned_guard:
            if _pinned[path] > 0:
                continue
            path.unlink(missing_ok=True)
        source.unlink(missing_ok=True)
        evicted += 1
    return evicted


def read_cache_bytes(name: str, cache: Optional[Path] = None) -> bytes | None:
    """The artifact ``name`` of the cache directory (``cache``, when the
    caller resolved it), its LRU clock refreshed — ``None`` when it is
    not there."""
    path = (cache or _cache_dir()) / name
    try:
        data = path.read_bytes()
    except OSError:
        return None
    try:
        os.utime(path)
    except OSError:
        pass  # read-only cache, or evicted since the read
    return data


def write_cache_text(name: str, text: str, cache: Optional[Path] = None) -> bool:
    """Put the small text artifact ``name`` into the cache directory
    (``cache``, when the caller resolved it), atomically (scratch name +
    ``os.replace``, like every artifact there).  A cache that cannot be
    written — read-only, full — costs the artifact, not the request:
    returns ``False``."""
    cache = cache or _cache_dir()
    stem, suffix = os.path.splitext(name)
    scratch = cache / f"{stem}.{_scratch_tag()}{suffix}"
    try:
        if not BUILDER_JOB.get():
            cache.mkdir(parents=True, exist_ok=True)
        scratch.write_text(text)
        os.replace(scratch, cache / name)
    except OSError:
        scratch.unlink(missing_ok=True)
        return False
    return True


def _sweep_orphans(cache: Path) -> None:
    """Delete the scratch files of builders that no longer exist.

    A builder killed mid-``cc`` (or mid-record) leaves
    ``<stem>.<pid>-<tid>-<n>.partial.{c,o,so,json}`` behind; nothing
    else ever names them.  Called on the build path only, so a cache
    hit never pays the directory scan."""
    try:
        leftovers = list(cache.glob("*.partial.*"))
    except OSError:
        return
    for path in leftovers:
        try:
            pid = int(path.name.split(".")[-3].split("-")[0])
            os.kill(pid, 0)
        except ProcessLookupError:
            path.unlink(missing_ok=True)
        except (ValueError, IndexError, OSError):
            continue  # not ours to judge, or alive under another uid


# In-process serialization of builds per artifact: threads racing to
# build the same library (or the same kernel object, from two libraries)
# wait for one compiler invocation and share its result (cross-process
# races stay safe through the atomic rename below).  Reentrant:
# ``load_shared_library`` holds the library's lock across build *and*
# ``dlopen``.  Entries are tiny and bounded by the number of distinct
# artifacts a process builds.
_digest_locks: Dict[str, threading.RLock] = {}
_digest_locks_guard = threading.Lock()
_scratch_counter = itertools.count()

#: The compile pool: every ``cc -c`` of the process runs here, so any
#: number of concurrent builders start at most :func:`available_cores`
#: compilers.  Created on first use.
_compile_pool: ThreadPoolExecutor | None = None


#: Set in a background build (the hot-plan builder's): it compiles its
#: objects one after another on its own thread instead of on the pool,
#: so it holds no pool slot a request's build would wait for, its
#: compilers inherit that thread's priority, and no pool thread is
#: started from it (a thread inherits its creator's priority).
BACKGROUND_BUILD: ContextVar[bool] = ContextVar("background_build", default=False)

#: Set in every background builder job: the cache directory its request
#: resolved is never created again — one removed under the job (a
#: deployment emptying its cache) fails the build instead of coming
#: back with the build's artifacts in it.
BUILDER_JOB: ContextVar[bool] = ContextVar("builder_job", default=False)


def _lock_for_digest(stem: str) -> threading.RLock:
    with _digest_locks_guard:
        lock = _digest_locks.get(stem)
        if lock is None:
            lock = threading.RLock()
            _digest_locks[stem] = lock
        return lock


def _pool() -> ThreadPoolExecutor:
    global _compile_pool
    with _digest_locks_guard:
        if _compile_pool is None:
            _compile_pool = ThreadPoolExecutor(
                max_workers=available_cores(),
                thread_name_prefix="repro-cc",
            )
        return _compile_pool


def _after_fork_in_child() -> None:
    # The parent's pool threads and lock holders do not exist here.
    global _compile_pool
    _compile_pool = None
    _digest_locks.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _digest_of(source: str, cc: str, flags: Sequence[str]) -> str:
    return hashlib.sha256(
        "\x00".join((cc, *flags, source)).encode()
    ).hexdigest()[:24]


def _link_libraries(units: Iterable[str]) -> Tuple[str, ...]:
    """The libraries on a link line, after the objects: libm, and glibc's
    libmvec first when a unit names one of its routines (an x86-64
    vector-ABI ``_ZGV`` symbol — only the libmvec support unit does)."""
    if any("_ZGV" in text for text in units):
        return ("-lmvec", "-lm")
    return ("-lm",)


def _scratch_tag() -> str:
    # pid, thread id and a counter: concurrent builders — across
    # processes *or* threads — never collide, and the pid tells
    # ``_sweep_orphans`` whose file it is.
    return (
        f"{os.getpid()}-{threading.get_ident()}"
        f"-{next(_scratch_counter)}.partial"
    )


def _compile_object(
    cache: Path, digest: str, text: str, cc: str, flags: Tuple[str, ...]
) -> bool:
    """Make ``kernel-<digest>.o`` exist; ``True`` when ``cc`` ran.

    An object already there is reused (and its LRU clock refreshed).
    The compiler reads a scratch-named source and writes a scratch-named
    object, both moved into place atomically: an evictor working from a
    stale directory snapshot never knows those names.
    """
    stem = f"kernel-{digest}"
    with _lock_for_digest(stem):
        object_path = cache / f"{stem}.o"
        if object_path.exists():
            try:
                os.utime(object_path)
            except OSError:
                pass  # evicted by another process; the link will say so
            return False
        tag = _scratch_tag()
        scratch_source = cache / f"{stem}.{tag}.c"
        scratch = cache / f"{stem}.{tag}.o"
        scratch_source.write_text(text)
        result = subprocess.run(
            [cc, "-O2", "-fPIC", *flags, "-c", "-o", str(scratch),
             str(scratch_source)],
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            scratch.unlink(missing_ok=True)
            scratch_source.unlink(missing_ok=True)
            raise ExecutionError(
                f"C compilation failed ({stem}.c):\n{result.stderr}\n"
                "--- source ---\n" + text
            )
        try:
            os.replace(scratch_source, cache / f"{stem}.c")
            os.replace(scratch, object_path)
        except OSError:
            # The directory was emptied under the build: leave no scratch.
            scratch.unlink(missing_ok=True)
            scratch_source.unlink(missing_ok=True)
            raise
        return True


def objects_to_compile(
    source: str, kernels: Sequence[str], cc: str, extra_flags: Sequence[str] = ()
) -> int:
    """How many ``cc -c`` :func:`build_shared_library` would run for
    these arguments now: 0 when the library is cached, else the kernel
    objects missing from the cache (a stat each, nothing written)."""
    flags = tuple(extra_flags)
    cache = _cache_dir()
    if (cache / f"pipeline-{_digest_of(source, cc, flags)}.so").exists():
        return 0
    digests = {_digest_of(text, cc, flags) for text in kernels}
    return sum(not (cache / f"kernel-{d}.o").exists() for d in digests)


class LibraryBuild(NamedTuple):
    """What :func:`build_shared_library` did."""

    path: Path
    #: Whether ``pipeline-<digest>.so`` was already there.
    from_cache: bool
    #: Kernel objects this build ran ``cc -c`` for / found in the cache
    #: (0 / 0 on a library hit).
    objects_compiled: int = 0
    objects_reused: int = 0


def build_shared_library(
    source: str,
    kernels: Sequence[str],
    cc: str,
    extra_flags: Sequence[str] = (),
) -> LibraryBuild:
    """Build the library of ``kernels`` or reuse the cached one.

    ``source`` names the library: its file name is a digest of the
    compiler, the extra flags and that text, so identical generated
    pipelines share one library across processes.  ``kernels`` are the
    translation units it is made of, each cached on its own as
    ``kernel-<digest of cc, flags, text>.o`` — **same compiler, same
    flags, same text, same object**, whichever pipeline asks — so a miss
    compiles only the kernels nobody has compiled yet (longest first, on
    the process-wide pool, or in order on the calling thread in a
    :data:`BACKGROUND_BUILD`) and links once.

    A library hit refreshes its mtime (the LRU clock of
    :func:`evict_stale_artifacts`) and touches nothing else.  A link
    that fails — a truncated object left by a crashed writer, an object
    evicted by another process mid-build — drops this library's objects
    and rebuilds them once; a second failure raises with ``cc``'s
    stderr.  A finished build evicts the oldest artifacts beyond the
    ``REPRO_CC_CACHE_MAX`` cap, never its own.
    """
    flags = tuple(extra_flags)
    digest = _digest_of(source, cc, flags)
    stem = f"pipeline-{digest}"
    with _lock_for_digest(stem):
        cache = _cache_dir()
        if not BUILDER_JOB.get():
            cache.mkdir(parents=True, exist_ok=True)
        library_path = cache / f"{stem}.so"
        if library_path.exists():
            try:
                os.utime(library_path)
            except OSError:
                pass  # concurrently evicted; the caller's load retries
            return LibraryBuild(library_path, True)
        fault_check("cc.compile")
        _sweep_orphans(cache)
        texts = {_digest_of(text, cc, flags): text for text in kernels}
        objects = [cache / f"kernel-{d}.o" for d in texts]
        tag = _scratch_tag()
        scratch = cache / f"{stem}.{tag}.so"
        units = sorted(texts.items(), key=lambda item: -len(item[1]))
        with _pinned_objects(objects):
            for retry in (False, True):
                if BACKGROUND_BUILD.get():
                    compiled = sum(
                        _compile_object(cache, d, text, cc, flags)
                        for d, text in units
                    )
                else:
                    jobs = [
                        _pool().submit(_compile_object, cache, d, text, cc, flags)
                        for d, text in units
                    ]
                    wait(jobs)
                    compiled = sum(job.result() for job in jobs)
                result = subprocess.run(
                    [cc, "-shared", *flags, "-o", str(scratch),
                     *map(str, objects), *_link_libraries(kernels)],
                    capture_output=True, text=True,
                )
                if result.returncode == 0:
                    break
                scratch.unlink(missing_ok=True)
                for path in objects:
                    path.unlink(missing_ok=True)
                if retry:
                    raise ExecutionError(
                        f"linking {stem}.so failed:\n{result.stderr}"
                    )
        scratch_source = cache / f"{stem}.{tag}.c"
        scratch_source.write_text(source)
        os.replace(scratch_source, cache / f"{stem}.c")
        os.replace(scratch, library_path)
        evict_stale_artifacts(keep={library_path, *objects})
        return LibraryBuild(
            library_path, False, compiled, len(objects) - compiled
        )


def compile_shared_library(
    source: str, cc: str, extra_flags: Sequence[str] = ()
) -> tuple[Path, bool]:
    """``(library_path, from_cache)`` of a one-kernel library:
    :func:`build_shared_library` with ``source`` as its only unit."""
    build = build_shared_library(source, (source,), cc, extra_flags)
    return build.path, build.from_cache


def load_kernel_library(
    source: str,
    kernels: Sequence[str],
    cc: str,
    extra_flags: Sequence[str] = (),
) -> tuple[ctypes.CDLL, LibraryBuild]:
    """Build (or fetch) and ``dlopen`` the library of ``kernels``.

    A cached library that does not load — unlinked by a concurrent
    evictor between the cache probe and the ``dlopen``, or truncated by
    a crashed writer or a full disk — is removed and rebuilt once, under
    the library's lock so no thread of this process can hit the bad file
    in between; a second failure propagates.

    The handle is a :class:`ctypes.CDLL` **by contract**: ``CDLL``
    releases the GIL around every foreign call, which is what lets the
    serving tier's scheduler threads overlap kernel execution on real
    cores.  Do not swap in ``ctypes.PyDLL`` (it holds the GIL) without
    revisiting :class:`~repro.serve.runtime.ServingRuntime`'s
    ``workers``.
    """
    flags = tuple(extra_flags)
    with _lock_for_digest(f"pipeline-{_digest_of(source, cc, flags)}"):
        build = build_shared_library(source, kernels, cc, flags)
        try:
            return ctypes.CDLL(str(build.path)), build
        except OSError:
            # A fresh build that is still on disk and does not load is a
            # real failure; one a concurrent evictor already unlinked is
            # the same race as a vanished cache hit.
            if not build.from_cache and build.path.exists():
                raise
        build.path.unlink(missing_ok=True)
        build = build_shared_library(source, kernels, cc, flags)
        return ctypes.CDLL(str(build.path)), build


def load_shared_library(
    source: str, cc: str, extra_flags: Sequence[str] = ()
) -> tuple[ctypes.CDLL, Path, bool]:
    """``(library, path, from_cache)`` of a one-kernel library:
    :func:`load_kernel_library` with ``source`` as its only unit."""
    library, build = load_kernel_library(source, (source,), cc, extra_flags)
    return library, build.path, build.from_cache


_openmp_probe: Dict[str, bool] = {}
_openmp_probe_lock = threading.Lock()

_OPENMP_PROBE_SOURCE = """\
#include <omp.h>
int repro_openmp_probe(void) { return omp_get_max_threads(); }
"""


def openmp_available(cc: str | None = None) -> bool:
    """Whether the compiler accepts ``-fopenmp`` (probed once, cached).

    The probe compiles a one-liner through the regular content-hash
    cache, so across processes it costs one compiler invocation total.
    """
    compiler = cc or _find_compiler()
    if compiler is None:
        return False
    with _openmp_probe_lock:
        cached = _openmp_probe.get(compiler)
        if cached is None:
            try:
                compile_shared_library(
                    _OPENMP_PROBE_SOURCE, compiler, ("-fopenmp",)
                )
                cached = True
            except (ExecutionError, OSError):
                cached = False
            _openmp_probe[compiler] = cached
        return cached


#: ``(compiler path, routines)`` -> what the probe found, and the probe
#: itself keyed by the compiler binary: a hit is one dict lookup (the
#: plan-record check asks on every request), a new path to a probed
#: binary is one ``realpath``.
_libmvec_found: Dict[Tuple[str, Tuple[str, ...]], FrozenSet[str]] = {}
_libmvec_probe: Dict[Tuple[str, Tuple[str, ...]], FrozenSet[str]] = {}
_libmvec_probe_lock = threading.Lock()


def _glibc_x86_64() -> bool:
    """Whether this is an x86-64 glibc host: libmvec is glibc's, and the
    ``_ZGVb`` routine names are the x86-64 vector ABI's."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return False
    return libc.startswith("glibc") and platform.machine() in ("x86_64", "AMD64")


def libmvec_variants(routines: Sequence[str], cc: str | None = None) -> FrozenSet[str]:
    """The glibc libmvec routines among ``routines`` (vector-ABI names
    such as ``_ZGVbN2v_exp``) that a library linked with ``-lmvec``
    resolves when it loads on this host (probed once per compiler binary
    — the same one found under another path is not probed again — and
    routine list, cached).

    The probe links one library that references each routine weakly and
    loads it; it is built in a directory of its own, so the compile cache
    never sees it.  Off x86-64 glibc, without a compiler, or when the
    link or the load fails the answer is empty, and the lowering keeps
    its scalar libm calls.
    """
    compiler = cc or _find_compiler()
    if compiler is None:
        return frozenset()
    key = (compiler, tuple(routines))
    found = _libmvec_found.get(key)
    if found is None:
        with _libmvec_probe_lock:
            binary = (os.path.realpath(compiler), key[1])
            found = _libmvec_probe.get(binary)
            if found is None:
                found = frozenset()
                if key[1] and _glibc_x86_64():
                    found = _probe_libmvec(compiler, key[1])
                _libmvec_probe[binary] = found
            _libmvec_found[key] = found
    return found


def _probe_libmvec(cc: str, routines: Tuple[str, ...]) -> FrozenSet[str]:
    source = "".join(
        f"extern void {name}(void) __attribute__((weak));\n" for name in routines
    ) + "void repro_libmvec_probe(unsigned char *found) {\n" + "".join(
        f"    found[{i}] = {name} != 0;\n" for i, name in enumerate(routines)
    ) + "}\n"
    with tempfile.TemporaryDirectory(prefix="repro-libmvec-") as scratch:
        c_file, library = Path(scratch) / "probe.c", Path(scratch) / "probe.so"
        c_file.write_text(source)
        try:
            # Weak references alone would not make an --as-needed link
            # keep libmvec.
            linked = subprocess.run(
                [cc, "-shared", "-fPIC", "-o", str(library), str(c_file),
                 "-Wl,--no-as-needed", "-lmvec", "-lm"],
                capture_output=True, text=True,
            )
            if linked.returncode != 0:
                return frozenset()
            found = (ctypes.c_ubyte * len(routines))()
            probe = ctypes.CDLL(str(library)).repro_libmvec_probe
            probe.argtypes, probe.restype = [ctypes.POINTER(ctypes.c_ubyte)], None
            probe(found)
        except OSError:
            return frozenset()
    return frozenset(name for name, hit in zip(routines, found) if hit)
