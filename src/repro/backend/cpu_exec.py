"""The C toolchain behind the native engine: find, compile, cache, load.

:mod:`repro.backend.native_exec` lowers block tapes to C text; this
module turns that text into a callable library: compiler discovery
(:func:`compiler_available`), the content-hash ``.so`` cache
(:func:`compile_shared_library`), its eviction
(:func:`evict_stale_artifacts`), and the ``dlopen``
(:func:`load_shared_library`).

Compiled libraries are kept in a **content-hash cache**: the shared
object's file name is derived from a SHA-256 digest of the generated C
source (and the compiler used), so building the same partitioned
pipeline twice — within a process or across runs — reuses the cached
``.so`` instead of re-invoking the compiler.  The cache directory
defaults to ``<tmp>/repro-cc-cache`` and can be redirected with the
``REPRO_CC_CACHE`` environment variable.  The cache is keyed purely by
content and written atomically (scratch file + ``os.replace``), so it
is shared **across processes**: the sharded serving tier
(:mod:`repro.serve.sharding`) points every worker at one directory and
only the first worker to need a plan pays the compiler.

**GIL release.**  Every compiled entry point is loaded through
:class:`ctypes.CDLL`, which — unlike ``ctypes.PyDLL`` — releases the
GIL for the duration of each foreign call.  This is a load-bearing
guarantee: block-level ``workers`` threads in the native engine
(:mod:`repro.backend.native_exec`) and the scheduler threads of the
serving tier overlap native kernel execution on separate cores only
because the interpreter lock is dropped at the call boundary.  Keep any
future loader on ``CDLL`` (or an equivalent GIL-releasing FFI).
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, Sequence

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
#: the most recently built artifact's source/library pair.
CACHE_MAX_ENV = "REPRO_CC_CACHE_MAX"

#: Default eviction cap applied when ``REPRO_CC_CACHE_MAX`` is unset.
#: ``None`` — the cache has no implicit bound, matching pre-eviction
#: releases; deployments opt in through the knob.
DEFAULT_CACHE_MAX: int | None = None


def _cache_dir() -> Path:
    return dir_env(CACHE_ENV, Path(tempfile.gettempdir()) / "repro-cc-cache")


def clear_compile_cache() -> None:
    """Delete every cached shared library (tests, stale toolchains)."""
    shutil.rmtree(_cache_dir(), ignore_errors=True)


def compile_cache_stats() -> Dict[str, object]:
    """The on-disk compile cache at a glance (observability surface).

    Returns the cache directory, the number of cached libraries, and
    their total byte size.  Files vanishing mid-scan (a concurrent
    evictor or ``clear_compile_cache``) are skipped, never an error —
    this is a monitoring read, not a consistency check.
    """
    cache = _cache_dir()
    libraries = 0
    total = 0
    try:
        entries = list(cache.glob("pipeline-*.so"))
    except OSError:
        entries = []
    for library in entries:
        if library.name.endswith(".partial.so"):
            continue
        try:
            total += library.stat().st_size
        except OSError:
            continue
        libraries += 1
    return {"dir": str(cache), "libraries": libraries, "bytes": total}


def evict_stale_artifacts(keep: Path | None = None) -> int:
    """Trim the on-disk cache to the ``REPRO_CC_CACHE_MAX`` byte cap.

    Artifacts (``.so`` plus matching ``.c``) are dropped oldest-access
    first until the cache fits; ``keep`` names a library that must
    survive regardless (the artifact the caller is about to load).
    Returns the number of libraries evicted.  A no-op when the knob is
    unset.  Concurrent evictors and builders tolerate each other: a
    file deleted under our feet is simply skipped, and a reader that
    loses its library to eviction recompiles (see
    :func:`load_shared_library`).
    """
    limit = size_env(CACHE_MAX_ENV, DEFAULT_CACHE_MAX)
    if limit is None:
        return 0
    cache = _cache_dir()
    entries = []
    try:
        libraries = list(cache.glob("pipeline-*.so"))
    except OSError:
        return 0
    for library in libraries:
        if library.name.endswith(".partial.so"):
            continue  # an in-flight build owned by another thread
        try:
            stat = library.stat()
        except OSError:
            continue
        source = library.with_suffix(".c")
        try:
            size = stat.st_size + source.stat().st_size
        except OSError:
            size = stat.st_size
        entries.append((stat.st_mtime, size, library, source))
    entries.sort(reverse=True)  # newest first; evict from the tail
    evicted = 0
    total = 0
    for mtime, size, library, source in entries:
        total += size
        if total <= limit or (keep is not None and library == keep):
            continue
        library.unlink(missing_ok=True)
        source.unlink(missing_ok=True)
        evicted += 1
    return evicted


# In-process serialization of compilation per content digest: threads
# racing to build the same pipeline wait for one compiler invocation
# and share its result (cross-process races stay safe through the
# atomic rename below).  Reentrant: ``load_shared_library`` holds the
# lock across compile *and* ``dlopen``.  ``_digest_locks`` entries are
# tiny and bounded by the number of distinct pipelines a process
# compiles.
_digest_locks: Dict[str, threading.RLock] = {}
_digest_locks_guard = threading.Lock()
_scratch_counter = itertools.count()


def _lock_for_digest(digest: str) -> threading.RLock:
    with _digest_locks_guard:
        lock = _digest_locks.get(digest)
        if lock is None:
            lock = threading.RLock()
            _digest_locks[digest] = lock
        return lock


def _digest_of(source: str, cc: str, flags: Sequence[str]) -> str:
    return hashlib.sha256(
        "\x00".join((cc, *flags, source)).encode()
    ).hexdigest()[:24]


def compile_shared_library(
    source: str, cc: str, extra_flags: Sequence[str] = ()
) -> tuple[Path, bool]:
    """Compile ``source`` or reuse the content-hash cached library.

    Returns ``(library_path, from_cache)``.  The library file name is a
    digest of the compiler, the extra flags, and the source text, so
    identical generated pipelines share one compilation across
    processes; the build lands in a temporary file first and is moved
    into place atomically, and the scratch name embeds pid, thread id,
    and a counter so concurrent builders — across processes *or*
    threads — never collide.

    A cache hit refreshes the library's mtime (the LRU clock of
    :func:`evict_stale_artifacts`); a build triggers eviction of the
    oldest artifacts beyond the ``REPRO_CC_CACHE_MAX`` cap, never
    including the one just built.
    """
    flags = tuple(extra_flags)
    digest = _digest_of(source, cc, flags)
    with _lock_for_digest(digest):
        cache = _cache_dir()
        cache.mkdir(parents=True, exist_ok=True)
        library_path = cache / f"pipeline-{digest}.so"
        if library_path.exists():
            try:
                os.utime(library_path)
            except OSError:
                pass  # concurrently evicted; the caller's load retries
            return library_path, True
        fault_check("cc.compile")
        source_path = cache / f"pipeline-{digest}.c"
        scratch_tag = (
            f"{os.getpid()}-{threading.get_ident()}"
            f"-{next(_scratch_counter)}.partial"
        )
        # Compile from a scratch-named source: an evictor working from a
        # stale directory snapshot may unlink pipeline-<digest>.c while
        # the compiler is still reading it, but it never knows this name.
        scratch_source = cache / f"pipeline-{digest}.{scratch_tag}.c"
        scratch_source.write_text(source)
        scratch = cache / f"pipeline-{digest}.{scratch_tag}.so"
        command = [
            cc, "-O2", "-fPIC", "-shared", *flags, "-o", str(scratch),
            str(scratch_source), "-lm",
        ]
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode != 0:
            scratch.unlink(missing_ok=True)
            scratch_source.unlink(missing_ok=True)
            raise ExecutionError(
                f"C compilation failed:\n{result.stderr}\n--- source ---\n"
                + source
            )
        os.replace(scratch_source, source_path)
        os.replace(scratch, library_path)
        evict_stale_artifacts(keep=library_path)
        return library_path, False


def load_shared_library(
    source: str, cc: str, extra_flags: Sequence[str] = ()
) -> tuple[ctypes.CDLL, Path, bool]:
    """Compile (or fetch) and ``dlopen`` a generated library.

    Returns ``(library, path, from_cache)``.  A cached artifact that
    does not load — unlinked by a concurrent evictor between the cache
    probe and the ``dlopen``, or truncated by a crashed writer or a
    full disk — is removed and rebuilt once, under the digest's lock so
    no thread of this process can hit the bad file in between; a second
    failure propagates.

    The handle is a :class:`ctypes.CDLL` **by contract**: ``CDLL``
    releases the GIL around every foreign call, which is what lets the
    native engine's block-level worker threads and the serving tier's
    schedulers overlap kernel execution on real cores.  Do not swap in
    ``ctypes.PyDLL`` (it holds the GIL) without revisiting every
    ``workers=`` code path.
    """
    flags = tuple(extra_flags)
    with _lock_for_digest(_digest_of(source, cc, flags)):
        library_path, from_cache = compile_shared_library(source, cc, flags)
        try:
            return ctypes.CDLL(str(library_path)), library_path, from_cache
        except OSError:
            # A fresh build that is still on disk and does not load is a
            # real failure; one a concurrent evictor already unlinked is
            # the same race as a vanished cache hit.
            if not from_cache and library_path.exists():
                raise
        library_path.unlink(missing_ok=True)
        library_path, from_cache = compile_shared_library(source, cc, flags)
        return ctypes.CDLL(str(library_path)), library_path, from_cache


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
