"""Boundary handling modes and index resolution.

Local operators read windows that cross the image border.  Hipacc lets
the programmer attach a boundary mode to each accessor; the compiler
then generates the border-handling variants.  The same modes drive our
index-exchange implementation for local-to-local fusion
(:mod:`repro.fusion.border`): resolving an out-of-border index under a
mode maps it either to a valid in-image index (clamp / mirror / repeat)
or to a constant value (constant mode).

Index resolution is exposed both as scalar Python
(:func:`resolve_index`) and vectorized NumPy (:func:`resolve_array`)
forms; the NumPy form is what the executor uses on whole coordinate
grids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class BoundaryMode(enum.Enum):
    """Hipacc boundary handling modes.

    ``UNDEFINED`` means the programmer asserts no out-of-border access
    happens; we treat any such access as an error in the reference
    executor (and resolve like CLAMP in release paths, which matches the
    "whatever is fastest" semantics of Hipacc's undefined mode).
    """

    CLAMP = "clamp"
    MIRROR = "mirror"
    REPEAT = "repeat"
    CONSTANT = "constant"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class BoundarySpec:
    """A boundary mode plus its constant fill value (CONSTANT mode only)."""

    mode: BoundaryMode = BoundaryMode.CLAMP
    constant: float = 0.0

    def __post_init__(self) -> None:
        # A NumPy scalar fill is kept as the float it stands for, so it
        # enters tapes and digests as one.
        object.__setattr__(self, "constant", float(self.constant))

    def __str__(self) -> str:
        if self.mode is BoundaryMode.CONSTANT:
            return f"constant({self.constant})"
        return self.mode.value


def resolve_index(i: int, n: int, mode: BoundaryMode) -> int:
    """Map index ``i`` into ``[0, n)`` under ``mode`` (scalar form).

    For CONSTANT the caller must check bounds first (the value is not an
    index); calling with an out-of-range index raises.  UNDEFINED
    resolves like CLAMP, mirroring the implementation note in the class
    docstring.
    """
    if 0 <= i < n:
        return i
    if mode in (BoundaryMode.CLAMP, BoundaryMode.UNDEFINED):
        return min(max(i, 0), n - 1)
    if mode is BoundaryMode.MIRROR:
        # Symmetric mirroring without repeating the edge pixel's neighbour
        # twice: ... 2 1 0 | 0 1 2 ... n-1 | n-1 n-2 ...
        period = 2 * n
        j = i % period
        if j < 0:
            j += period
        return j if j < n else period - 1 - j
    if mode is BoundaryMode.REPEAT:
        return i % n
    raise ValueError(
        f"index {i} out of [0, {n}) cannot be resolved under {mode.value}"
    )


def resolve_array(
    idx: np.ndarray, n: int, mode: BoundaryMode
) -> tuple[np.ndarray, np.ndarray | None]:
    """Vectorized index resolution.

    Returns ``(resolved, oob_mask)`` where ``resolved`` contains valid
    indices in ``[0, n)`` and ``oob_mask`` marks positions that were out
    of bounds (``None`` when the mode needs no mask).  For CONSTANT mode
    the resolved index of an out-of-bounds position is 0 and the caller
    must substitute the constant using the mask.
    """
    if mode in (BoundaryMode.CLAMP, BoundaryMode.UNDEFINED):
        return np.clip(idx, 0, n - 1), None
    if mode is BoundaryMode.MIRROR:
        period = 2 * n
        j = np.mod(idx, period)
        return np.where(j < n, j, period - 1 - j), None
    if mode is BoundaryMode.REPEAT:
        return np.mod(idx, n), None
    if mode is BoundaryMode.CONSTANT:
        oob = (idx < 0) | (idx >= n)
        return np.where(oob, 0, idx), oob
    raise ValueError(f"unknown boundary mode {mode!r}")


def requires_mask(mode: BoundaryMode) -> bool:
    """Whether resolution under ``mode`` produces an out-of-bounds mask."""
    return mode is BoundaryMode.CONSTANT
