"""Hardened parsing of ``REPRO_*`` environment knobs.

Every runtime tunable that can arrive through the environment —
``REPRO_EXEC_WORKERS``, ``REPRO_EXEC_ENGINE``, ``REPRO_CC_CACHE``,
``REPRO_CC_CACHE_MAX``, ``REPRO_NATIVE_THREADS``,
``REPRO_NATIVE_TILE2D``, ``REPRO_NATIVE_F32``, ``REPRO_NATIVE_CFLAGS``,
``REPRO_VALIDATE``, ``REPRO_SERVE_PROCS``, ``REPRO_FAULTS`` — funnels
through the helpers here, so a typo in a deployment manifest fails with
one clear message naming the variable and the accepted values instead
of a bare ``int()`` traceback deep inside an executor.

The helpers raise :class:`EnvKnobError`, a :class:`ValueError`:
misconfigured environments are configuration errors, not execution
errors, and long-lived serving processes (:mod:`repro.serve`) want to
reject them at startup.
"""

from __future__ import annotations

import contextvars
import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence


class EnvKnobError(ValueError):
    """An environment variable holds a value the knob cannot accept."""


def raw_env(name: str) -> str | None:
    """The stripped value of ``name``; ``None`` when unset or blank."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    raw = raw.strip()
    return raw or None


def int_env(name: str, default: int, minimum: int | None = None) -> int:
    """Parse an integer knob; blank/unset yields ``default``."""
    raw = raw_env(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EnvKnobError(
            f"invalid {name}={raw!r}: expected an integer"
        ) from None
    if minimum is not None and value < minimum:
        raise EnvKnobError(
            f"invalid {name}={raw!r}: expected an integer >= {minimum}"
        )
    return value


#: Multipliers accepted by :func:`size_env` suffixes (case-insensitive).
_SIZE_SUFFIXES = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3}


def size_env(name: str, default: int | None) -> int | None:
    """Parse a byte-size knob; blank/unset yields ``default``.

    Accepts a plain byte count (``1048576``) or a ``K``/``M``/``G``
    suffix (``512M``, ``1g``) with 1024-based multipliers.  ``0``
    disables the limit the knob governs, by convention; negative sizes
    are rejected.
    """
    raw = raw_env(name)
    if raw is None:
        return default
    suffix = raw[-1].lower() if raw[-1].isalpha() else ""
    digits = raw[:-1] if suffix else raw
    multiplier = _SIZE_SUFFIXES.get(suffix)
    try:
        value = int(digits)
    except ValueError:
        multiplier = None
    if multiplier is None:
        raise EnvKnobError(
            f"invalid {name}={raw!r}: expected a byte count with an "
            "optional K/M/G suffix"
        ) from None
    if value < 0:
        raise EnvKnobError(f"invalid {name}={raw!r}: expected a size >= 0")
    return value * multiplier


def choice_env(name: str, choices: Sequence[str], default: str) -> str:
    """Parse an enumerated knob; blank/unset yields ``default``."""
    raw = raw_env(name)
    if raw is None:
        return default
    if raw not in choices:
        raise EnvKnobError(
            f"invalid {name}={raw!r}: expected one of {tuple(choices)}"
        )
    return raw


#: Environment knob selecting the static-validation level.
VALIDATE_ENV = "REPRO_VALIDATE"

#: Accepted ``REPRO_VALIDATE`` values, weakest first.
VALIDATE_MODES = ("off", "standard", "strict")


#: Per-context override of the validation level, installed by
#: :func:`validate_override` (a contextvar so serving worker threads and
#: nested calls see their own scope, not a process-global toggle).
_VALIDATE_OVERRIDE: "contextvars.ContextVar[str | None]" = (
    contextvars.ContextVar("repro_validate_override", default=None)
)


@contextmanager
def validate_override(mode: str | None) -> Iterator[None]:
    """Scope a validation level stronger (or weaker) than the env knob.

    ``ExecutionOptions.validate`` routes through this so one call can
    ask for strict plan verification without mutating ``os.environ``;
    ``None`` leaves the environment's level in force.
    """
    if mode is not None and mode not in VALIDATE_MODES:
        raise EnvKnobError(
            f"invalid validate override {mode!r}: expected one of "
            f"{VALIDATE_MODES}"
        )
    token = _VALIDATE_OVERRIDE.set(mode)
    try:
        yield
    finally:
        _VALIDATE_OVERRIDE.reset(token)


def validate_mode() -> str:
    """The ``REPRO_VALIDATE`` level: ``off``, ``standard`` or ``strict``.

    ``standard`` (the default) keeps construction-time checks exactly
    as they always were; ``strict`` additionally runs the static plan
    verifier (:mod:`repro.analysis.verifier`) on every compiled tape
    before it is cached or served; ``off`` skips the optional analysis
    layers for benchmarking.  Anything else raises
    :class:`EnvKnobError` naming the variable and the accepted values.
    Case-insensitive: ``STRICT`` in a deployment manifest means strict.
    A :func:`validate_override` scope takes precedence over the
    environment.
    """
    override = _VALIDATE_OVERRIDE.get()
    if override is not None:
        return override
    raw = raw_env(VALIDATE_ENV)
    if raw is None:
        return "standard"
    mode = raw.lower()
    if mode not in VALIDATE_MODES:
        raise EnvKnobError(
            f"invalid {VALIDATE_ENV}={raw!r}: expected one of "
            f"{VALIDATE_MODES}"
        )
    return mode


#: Environment knob: the tile of a native block that materializes
#: stages (2D overlapped tiling).  ``auto`` (the default) lets
#: :mod:`repro.model.tiling` choose the shape from the detected cache
#: hierarchy, and an explicit ``HxW`` (e.g. ``64x128``) pins it to ``H``
#: rows by ``W`` columns.  A block that materializes nothing is a row
#: band whatever the knob says.
NATIVE_TILE2D_ENV = "REPRO_NATIVE_TILE2D"


def native_tile2d_env() -> "str | tuple[int, int]":
    """The ``REPRO_NATIVE_TILE2D`` setting: ``"auto"`` or ``(h, w)``.

    Blank/unset yields ``"auto"``.  An explicit shape must be two
    positive integers joined by ``x`` (case-insensitive), e.g.
    ``64x128``; anything else raises :class:`EnvKnobError` naming the
    variable and the accepted grammar.
    """
    raw = raw_env(NATIVE_TILE2D_ENV)
    if raw is None:
        return "auto"
    lowered = raw.lower()
    if lowered == "auto":
        return lowered
    parts = lowered.split("x")
    if len(parts) == 2:
        try:
            height, width = int(parts[0]), int(parts[1])
        except ValueError:
            height = width = 0
        if height >= 1 and width >= 1:
            return (height, width)
    raise EnvKnobError(
        f"invalid {NATIVE_TILE2D_ENV}={raw!r}: expected 'auto' or an "
        "explicit HxW tile shape of two positive integers (e.g. 64x128)"
    )


#: Environment knob: opt-in float32 compute fast path in the native
#: engine.  Plane I/O stays float64; only the per-pixel arithmetic runs
#: in single precision, under the pinned f32 tolerance policy
#: (:data:`repro.backend.native_exec.F32_RTOL` /
#: :data:`~repro.backend.native_exec.F32_ATOL`).
NATIVE_F32_ENV = "REPRO_NATIVE_F32"


def native_f32_enabled() -> bool:
    """Whether the float32 native fast path is on (default off)."""
    return choice_env(NATIVE_F32_ENV, ("on", "off"), "off") == "on"


#: Environment knob: extra space-separated compiler/linker flags for the
#: native ``.so`` builds (e.g. ``-fsanitize=address,undefined`` in the
#: CI sanitizer job).  Flags participate in the content-hash artifact
#: key through the compile command, so changing them recompiles.
NATIVE_CFLAGS_ENV = "REPRO_NATIVE_CFLAGS"


def native_cflags_env() -> tuple:
    """The extra native compile flags, split on whitespace (may be empty)."""
    raw = raw_env(NATIVE_CFLAGS_ENV)
    return tuple(raw.split()) if raw else ()


#: Environment knob: worker processes of the sharded serving tier
#: (``repro serve --processes`` / :class:`repro.serve.sharding.
#: ShardedRuntime`); 1 means the single-process runtime.
SERVE_PROCS_ENV = "REPRO_SERVE_PROCS"


def serve_procs_env(default: int = 1) -> int:
    """The ``REPRO_SERVE_PROCS`` worker-process count (>= 1).

    Blank/unset yields ``default``; anything that is not an integer of
    at least 1 raises :class:`EnvKnobError` naming the variable.
    """
    return int_env(SERVE_PROCS_ENV, default=default, minimum=1)


#: Environment knob injecting deterministic faults at named sites
#: (see :mod:`repro.serve.faultinject`, which owns the grammar).
FAULTS_ENV = "REPRO_FAULTS"


def faults_env() -> str | None:
    """The raw ``REPRO_FAULTS`` fault-injection spec, or ``None``.

    The spec grammar — comma-separated ``site:action[:seconds]``
    rules with optional ``*count`` / ``@every`` triggers — is parsed
    by :func:`repro.serve.faultinject.parse_spec`, which raises
    :class:`EnvKnobError` naming this variable on a malformed value.
    The raw accessor lives here so the knob is catalogued with every
    other ``REPRO_*`` tunable.
    """
    return raw_env(FAULTS_ENV)


def dir_env(name: str, default: Path) -> Path:
    """Parse a directory knob; blank/unset yields ``default``.

    The directory need not exist yet (caches create it on first use),
    but an existing *non-directory* at the path is rejected here rather
    than surfacing later as an opaque ``mkdir`` failure.
    """
    raw = raw_env(name)
    if raw is None:
        return default
    path = Path(raw)
    try:
        mode = os.stat(path).st_mode  # one stat: this is on every cache read
    except (OSError, ValueError):
        return path  # not there (yet): the cache makes it on first use
    if not stat.S_ISDIR(mode):
        raise EnvKnobError(
            f"invalid {name}={raw!r}: path exists and is not a directory"
        )
    return path
