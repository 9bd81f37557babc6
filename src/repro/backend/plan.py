"""Plan compiler and SSA tape executor for fused partition blocks.

The recursive reference executor (:mod:`repro.backend.numpy_exec`)
re-enters a Python ``evaluate()`` walk for every consumer read of a
fused producer, so deep local-to-local chains pay a quadratic
Python-dispatch and index-arithmetic tax on top of the recomputation
the benefit model actually prices.  This module removes that tax by
*runtime plan flattening* (in the spirit of Kristensen et al.'s
"Fusion of Array Operations at Runtime"): each partition block is
compiled **once** into a topologically-ordered SSA *instruction tape*
and then executed iteratively — no recursion, no per-read re-walks.

Three layers of sharing make the tape strictly cheaper than the
recursive walk while remaining bit-identical to it:

* **value numbering** — one tape slot per structurally-unique
  subcomputation, keyed the way :mod:`repro.ir.cse` keys sharing
  (the compile-time generalization of the per-context ``memo`` dict);
* a **producer-result cache** keyed by ``(producer, coordinate-grid
  identity)`` — a producer evaluated at the same exchanged grid by
  multiple consumers is compiled (and therefore executed) exactly
  once, the runtime realization of Eq. 5's CSE assumption;
* **coordinate-grid interning** (:class:`GridStore`) — iteration
  grids, shifted grids, and boundary-resolved index arrays are
  materialized once per ``(grid, extent, boundary-mode)`` and shared
  across instructions, blocks, and runs.  Grids are kept in broadcast
  form (``(1, w)`` rows and ``(h, 1)`` columns), so index arithmetic
  is :math:`O(w + h)` instead of :math:`O(w \\cdot h)`;
* **views, not gathers** — each run pads every image it reads once per
  boundary mode, and a stencil tap whose offsets are static on both
  axes reads a view of that copy.  A tap static on one axis takes the
  other from a band of it; one read at an exchanged grid takes rows,
  then columns, through the interned grids.  No tap fancy-indexes a
  full plane.

Independent partition blocks can execute in parallel: a
:class:`PartitionPlan` tracks inter-block dependences (the same
ordering constraint :func:`~repro.backend.numpy_exec.block_schedule`
enforces serially) and drives a ``concurrent.futures`` thread pool —
NumPy releases the GIL for the bulk array work.  The worker count
comes from the ``workers=`` argument or the ``REPRO_EXEC_WORKERS``
environment knob; the default is the serial fallback.
"""

from __future__ import annotations

import copy
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.envknobs import int_env, validate_mode

from repro.backend.numpy_exec import (
    _BIN_FN,
    _CALL_FN,
    _CMP_FN,
    Arrays,
    ExecutionError,
    Params,
    _apply_mask,
    _array_for,
    _broadcast_output,
    fault_check,
    recursion_headroom,
    scheduled_blocks,
)
from repro.dsl.boundary import BoundaryMode, BoundarySpec, resolve_array
from repro.dsl.image import IterationSpace
from repro.dsl.kernel import Kernel, ReductionKind
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.ir.signature import canonical_digest

#: Environment knob selecting the number of parallel block workers.
WORKERS_ENV = "REPRO_EXEC_WORKERS"


# ---------------------------------------------------------------------------
# Coordinate-grid interning
# ---------------------------------------------------------------------------
#
# Grid identity is symbolic: a key is a nested tuple describing how the
# grid derives from a base iteration space.  Two reads that shift and
# resolve coordinates the same way share one key and therefore one
# materialized array.  Keys:
#
#   ("base", axis, width, height)        the iteration-space axis grid
#   ("shift", parent, delta)             parent + delta (static offset)
#   ("resolve", parent, n, mode)         boundary-resolved indices
#
# plus boolean masks (CONSTANT boundary handling):
#
#   ("oob", parent, n)                   parent out of [0, n)
#   ("ormask", xmask, ymask)             per-axis masks combined


def base_key(axis: str, width: int, height: int) -> tuple:
    """Key of an iteration-space base grid axis (``"x"`` or ``"y"``)."""
    return ("base", axis, width, height)


def _base_extent(key: tuple) -> int:
    return key[2] if key[1] == "x" else key[3]


def shift_key(parent: tuple, delta: int) -> tuple:
    """Shifted-grid key; static shifts collapse (``+1`` then ``-1`` is a
    no-op, matching the integer arithmetic of the recursive engine)."""
    if parent[0] == "shift":
        delta += parent[2]
        parent = parent[1]
    if delta == 0:
        return parent
    return ("shift", parent, delta)


def resolve_key(parent: tuple, n: int, mode: BoundaryMode) -> tuple:
    """Boundary-resolution key; resolving an un-shifted base grid that
    already lies inside ``[0, n)`` is the identity for every mode."""
    if parent[0] == "base" and _base_extent(parent) <= n:
        return parent
    return ("resolve", parent, n, mode.value)


#: Default :class:`GridStore` capacity.  Grid entries are tiny
#: (broadcast-form ``O(w + h)`` index vectors) but masks are full
#: ``(h, w)`` boolean planes, and a long-lived serving process
#: accumulates one entry per (shape, boundary-key) it ever sees —
#: unbounded before this cap existed.  4096 entries keeps every
#: realistic working set fully interned while bounding drift.
DEFAULT_GRID_CACHE = 4096


class GridStore:
    """Interned coordinate grids and out-of-bounds masks, LRU-bounded.

    Grids are integer index arrays in broadcast form: x-axis grids are
    ``(1, w)`` rows, y-axis grids ``(h, 1)`` columns.  A gather takes a
    grid along its own axis (``ndarray.take`` of the raveled vector);
    a CONSTANT gather that takes is then filled through its mask, the
    one full ``(h, w)`` plane kept here.  Taps static on both axes read
    no grid at all: they are views of a per-run padded
    copy (see "Gathers" below).  Entries are computed at most once per
    key while resident and shared across every tape compiled against
    this store.

    The store holds at most ``capacity`` entries (grids + masks
    combined), evicting least-recently-used ones beyond it — serving
    processes that see an unbounded stream of request geometries no
    longer leak interned grids.  ``capacity`` defaults to
    :data:`DEFAULT_GRID_CACHE` (``0`` is unbounded); an evicted key is
    simply re-materialized on its next use, so eviction affects
    footprint, never results.

    The store is **thread-safe**: one reentrant lock covers lookup,
    materialization, eviction, and the counters, so concurrent block
    execution (the tape engine's worker pool, the serving runtime's
    scheduler threads) sees exactly one canonical array per resident
    key and exact statistics.  The lock is reentrant because derived
    grids materialize their parents recursively.
    """

    def __init__(self, capacity: int = DEFAULT_GRID_CACHE) -> None:
        #: Maximum resident entries; ``0`` means unbounded.
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.materialized = 0
        self.evictions = 0

    def _get(self, key: tuple) -> np.ndarray | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return entry

    def _insert(self, key: tuple, array: np.ndarray) -> np.ndarray:
        self.materialized += 1
        resident = self._entries.setdefault(key, array)
        self._entries.move_to_end(key)
        if self.capacity > 0:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return resident

    def grid(self, key: tuple) -> np.ndarray:
        """The materialized index array for a grid key (interned)."""
        with self._lock:
            array = self._get(key)
            if array is not None:
                return array
            tag = key[0]
            if tag == "base":
                _, axis, width, height = key
                if axis == "x":
                    array = np.arange(width)[None, :]
                else:
                    array = np.arange(height)[:, None]
            elif tag == "shift":
                _, parent, delta = key
                array = self.grid(parent) + delta
            elif tag == "resolve":
                _, parent, n, mode = key
                array, _ = resolve_array(
                    self.grid(parent), n, BoundaryMode(mode)
                )
            else:  # pragma: no cover - compiler emits only the keys above
                raise ExecutionError(f"unknown grid key {key!r}")
            return self._insert(key, array)

    def mask(self, key: tuple) -> np.ndarray:
        """The materialized boolean mask for a mask key (interned)."""
        with self._lock:
            mask = self._get(key)
            if mask is not None:
                return mask
            tag = key[0]
            if tag == "oob":
                _, parent, n = key
                index = self.grid(parent)
                mask = (index < 0) | (index >= n)
            elif tag == "ormask":
                _, xmask, ymask = key
                mask = self.mask(xmask) | self.mask(ymask)
            else:  # pragma: no cover - compiler emits only the keys above
                raise ExecutionError(f"unknown mask key {key!r}")
            return self._insert(key, mask)

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# Instruction tape
# ---------------------------------------------------------------------------


class Instr(NamedTuple):
    """One SSA tape instruction.

    ``args`` are input slot indices; ``aux`` holds immediates (operator
    names, constants, grid keys, boundary specs).  The instruction's own
    index in the tape is its output slot.
    """

    op: str
    args: Tuple[int, ...] = ()
    aux: tuple = ()


@dataclass
class PlanStats:
    """Compile-time accounting, used by tests and benchmarks."""

    instructions: int = 0
    member_evaluations: int = 0
    producer_cache_hits: int = 0


class _TapeCompiler:
    """Flattens one block (or one kernel) into an instruction tape.

    The compilation mirrors the recursive engine step for step —
    per-member expression evaluation, static shifts, two-stage index
    exchange against the intermediate image's space, CONSTANT-mode mask
    substitution — but every step lands in a value-numbered slot
    instead of an eager NumPy value.  A member is evaluated as one
    forward loop over its kernel's
    :attr:`~repro.dsl.kernel.Kernel.body_signature` — the descriptors
    the graph's structural signature already computed, value numbered
    and operands first — so the ``Expr`` tree is not walked again.
    """

    def __init__(
        self,
        graph: Optional[KernelGraph],
        producer_of: Dict[str, str],
        naive_borders: bool,
    ):
        self.graph = graph
        self.producer_of = producer_of
        self.naive_borders = naive_borders
        self.tape: List[Instr] = []
        self._slots: Dict[tuple, int] = {}
        self._members: Dict[tuple, int] = {}
        self.producer_cache_hits = 0

    # -- slot emission ----------------------------------------------------

    def _emit(self, key: tuple, op: str, args: Tuple[int, ...], aux: tuple = ()) -> int:
        slot = self._slots.get(key)
        if slot is None:
            slot = len(self.tape)
            self.tape.append(Instr(op, args, aux))
            self._slots[key] = slot
        return slot

    # -- member evaluation (the producer-result cache) --------------------

    def member(self, name: str, gx: tuple, gy: tuple) -> int:
        key = (name, gx, gy)
        slot = self._members.get(key)
        if slot is not None:
            self.producer_cache_hits += 1
            return slot
        slot = self.body(self.graph.kernel(name), gx, gy)
        self._members[key] = slot
        return slot

    # -- kernel bodies ----------------------------------------------------

    def body(self, kernel: Kernel, gx: tuple, gy: tuple) -> int:
        """Compile ``kernel``'s body over the grids ``gx`` / ``gy``;
        returns the slot of its value (the last descriptor's)."""
        slots: List[int] = []
        emitted, tape = self._slots, self.tape
        for descriptor in kernel.body_signature:
            tag = descriptor[0]
            if tag == "input":
                _, image, dx, dy = descriptor
                slots.append(self._read(kernel, image, dx, dy, gx, gy))
                continue
            # The tag and its immediates, then operand slots.
            split = 1 if tag == "select" else 2
            args = tuple([slots[ref] for ref in descriptor[split:]])
            key = descriptor[:split] + args
            slot = emitted.get(key)
            if slot is None:
                slot = emitted[key] = len(tape)
                tape.append(Instr(tag, args, descriptor[1:split]))
            slots.append(slot)
        return slots[-1]

    def _read(
        self, kernel: Kernel, image: str, dx: int, dy: int, gx: tuple, gy: tuple
    ) -> int:
        accessor = kernel.accessor_for(image)
        boundary = accessor.boundary
        xi = shift_key(gx, dx)
        yi = shift_key(gy, dy)
        producer = self.producer_of.get(image)
        if producer is None:
            # External image: boundary resolution happens at execution
            # time against the bound array's actual shape (matching
            # :func:`repro.backend.numpy_exec.gather`), interned per
            # (grid, extent, mode).
            key = ("gather", image, xi, yi, boundary.mode.value, boundary.constant)
            return self._emit(key, "gather", (), (image, xi, yi, boundary))
        if self.naive_borders:
            # Single-stage composition (Fig. 4b): raw coordinates flow
            # into the producer, no index exchange.
            return self.member(producer, xi, yi)
        # Two-stage resolution: exchange the intermediate coordinates
        # against the intermediate image's bounds under the *consumer's*
        # boundary mode, then evaluate the producer at the valid grid.
        space = accessor.image.space
        xr = resolve_key(xi, space.width, boundary.mode)
        yr = resolve_key(yi, space.height, boundary.mode)
        slot = self.member(producer, xr, yr)
        if boundary.mode is BoundaryMode.CONSTANT:
            mask = ("ormask", ("oob", xi, space.width), ("oob", yi, space.height))
            slot = self._emit(
                ("maskfill", slot, mask, boundary.constant),
                "maskfill",
                (slot,),
                (mask, boundary.constant),
            )
        return slot


def _release_schedule(tape: List[Instr], root: int) -> Tuple[Tuple[int, ...], ...]:
    """Per-instruction lists of slots whose last use is that instruction.

    Freeing dead slots bounds peak memory to the live frontier — the
    tape equivalent of the recursive engine's evaluation stack.
    """
    last_use: Dict[int, int] = {}
    for index, instr in enumerate(tape):
        for slot in instr.args:
            last_use[slot] = index
    release: List[List[int]] = [[] for _ in tape]
    for slot, index in last_use.items():
        if slot != root:
            release[index].append(slot)
    return tuple(tuple(r) for r in release)


# ---------------------------------------------------------------------------
# Executable plans
# ---------------------------------------------------------------------------


class BlockPlan:
    """A compiled partition block: instruction tape + metadata.

    ``apply_reduction`` says whether a global destination is reduced:
    a singleton block has ``execute_kernel`` semantics (it is), a fused
    block evaluates its destination body as-is.
    """

    def __init__(
        self,
        destination: Kernel,
        tape: List[Instr],
        root: int,
        store: GridStore,
        apply_reduction: bool,
        stats: PlanStats,
        naive_borders: bool = False,
        kind: str = "block",
    ):
        self.destination = destination
        self.output_name = destination.output.name
        self.tape: Tuple[Instr, ...] = tuple(tape)
        self.root = root
        self.store = store
        self.apply_reduction = apply_reduction
        self.stats = stats
        # Compilation provenance, recorded so the static verifier
        # (:mod:`repro.analysis.verifier`) can recompile a reference tape
        # and diff against it.
        self.naive_borders = naive_borders
        self.kind = kind

    @cached_property
    def _release(self) -> Tuple[Tuple[int, ...], ...]:
        # Computed on first use: a block bound to a native library never
        # runs its tape.
        return _release_schedule(self.tape, self.root)

    @cached_property
    def _reads(self) -> "_Reads":
        # Computed on first use, like the release schedule.
        return _tape_reads(self.tape)

    def execute(self, arrays: Arrays, params: Params | None = None) -> np.ndarray:
        """Run the tape over bound arrays; returns the output array."""
        params = params or {}
        values = _run_tape(
            self.tape,
            self.root,
            self._release,
            self._reads,
            arrays,
            params,
            self.store,
        )
        kernel = self.destination
        if not self.apply_reduction or kernel.reduction is None:
            return _broadcast_output(values, kernel)
        if kernel.reduction is ReductionKind.SUM:
            return _broadcast_output(np.sum(values), kernel)
        if kernel.reduction is ReductionKind.MIN:
            return _broadcast_output(np.min(values), kernel)
        if kernel.reduction is ReductionKind.MAX:
            return _broadcast_output(np.max(values), kernel)
        if kernel.reduction is ReductionKind.HISTOGRAM:
            bins = kernel.output.space.width
            counts, _ = np.histogram(values, bins=bins, range=(0.0, float(bins)))
            return counts.astype(np.float64).reshape(1, bins)
        raise ExecutionError(f"unknown reduction {kernel.reduction!r}")


# ---------------------------------------------------------------------------
# Gathers: views of one padded copy per image
# ---------------------------------------------------------------------------
#
# A gather whose grid keys are one static shift of the iteration space
# on an axis (``base`` or ``shift(base, d)``) is *static* on that axis:
# it reads the indices ``d .. d + n - 1`` there, resolved under its
# boundary mode.  A tape run pads each image it reads once per boundary
# (:class:`_Pad`): the rows and columns every static tap of that pair
# reaches, taken with :func:`~repro.dsl.boundary.resolve_array`'s own
# indices, the out-of-bounds ones filled under CONSTANT.  A tap static
# on both axes is then a slice of that copy — a view, no NumPy call; a
# tap static on one axis is one ``take`` of the other axis from the
# band its static axis slices.  A tap with no static axis (a producer
# read at an exchanged grid) takes rows, then columns, from the bound
# array.  A CONSTANT tap that takes is then filled through the
# interned mask.  Every pixel read either way is, by construction, the
# value the recursive engine's :func:`~repro.backend.numpy_exec.gather`
# reads.


def _static(key: tuple) -> Optional[Tuple[int, int]]:
    """``(shift, extent)`` of a grid key that is one static shift of a
    base grid, else ``None``."""
    if key[0] == "base":
        return 0, _base_extent(key)
    if key[0] == "shift" and key[1][0] == "base":
        return key[2], _base_extent(key[1])
    return None


class _Reach(NamedTuple):
    """The indices a padded copy covers on one axis: ``lo`` up to
    ``hi``, and the whole axis ``[0, n)`` too where a tap takes it
    through a resolved grid (``whole``; ``lo`` is then at most 0)."""

    lo: int
    hi: int
    whole: bool

    def indices(self, n: int) -> np.ndarray:
        return np.arange(self.lo, max(self.hi, n) if self.whole else self.hi)


class _Pad(NamedTuple):
    """One padded copy of ``image`` under ``boundary``, over ``rows`` x
    ``cols``, built on first need in a run and dropped after tape
    instruction ``last``."""

    image: str
    boundary: BoundarySpec
    rows: _Reach
    cols: _Reach
    last: int


class _Tap(NamedTuple):
    """How one gather reads: the band ``rows`` x ``cols`` of its pad
    (an index into the tape's pads; ``None``: the bound array itself),
    then one ``take`` of the resolved grid per axis in ``takes`` — none
    for a tap static on both axes, whose band is its value — and, under
    CONSTANT, the mask if it took."""

    pad: Optional[int]
    rows: slice = slice(None)
    cols: slice = slice(None)
    takes: Tuple[int, ...] = (0, 1)


class _Reads(NamedTuple):
    """Per tape instruction its :class:`_Tap` (``None`` for every op
    but a gather), and the tape's pads."""

    taps: Tuple[Optional[_Tap], ...]
    pads: Tuple[_Pad, ...]


def _tape_reads(tape: Tuple[Instr, ...]) -> _Reads:
    """How each gather of ``tape`` reads, and the padded copies it reads
    them from — a function of the tape alone."""
    taps: List[Optional[_Tap]] = [None] * len(tape)
    static: Dict[int, tuple] = {}  # tape index -> (ys, xs), a (shift, extent) or None
    reach: Dict[tuple, list] = {}  # (image, boundary) -> [row shifts, col shifts, last]
    for index, instr in enumerate(tape):
        if instr.op != "gather":
            continue
        image, xi, yi, boundary = instr.aux
        shifts = (_static(yi), _static(xi))
        if shifts == (None, None):
            taps[index] = _Tap(None)  # rows, then columns, of the array
        else:
            static[index] = shifts
            entry = reach.setdefault((image, boundary), [[], [], index])
            entry[0].append(shifts[0])
            entry[1].append(shifts[1])
            entry[2] = index
    pads: List[_Pad] = []
    pad_of: Dict[tuple, int] = {}
    for (image, boundary), (rows, cols, last) in reach.items():
        pad_of[image, boundary] = len(pads)
        pads.append(
            _Pad(image, boundary, _axis_reach(rows), _axis_reach(cols), last)
        )
    for index, (ys, xs) in static.items():
        image, _, _, boundary = tape[index].aux
        number = pad_of[image, boundary]
        pad = pads[number]
        takes = tuple(axis for axis, shift in enumerate((ys, xs)) if shift is None)
        taps[index] = _Tap(number, _band(ys, pad.rows), _band(xs, pad.cols), takes)
    return _Reads(tuple(taps), tuple(pads))


def _axis_reach(shifts: List[Optional[Tuple[int, int]]]) -> _Reach:
    """The :class:`_Reach` covering every ``(shift, extent)`` of one axis
    (``None``: a tap that takes the axis whole)."""
    spans = [(d, d + n) for d, n in (s for s in shifts if s is not None)]
    whole = len(spans) < len(shifts)
    lo = min([d for d, _ in spans] + ([0] if whole else []))
    hi = max([e for _, e in spans] + ([0] if whole else []))
    return _Reach(lo, hi, whole)


def _band(shift: Optional[Tuple[int, int]], reach: _Reach) -> slice:
    """The slice of a padded axis a tap reads: its static span, or, for
    an axis it takes through a resolved grid, the copy from index 0 on
    (the resolved indices all lie in ``[0, n)``)."""
    if shift is None:
        return slice(-reach.lo, None)
    d, n = shift
    return slice(d - reach.lo, d - reach.lo + n)


def _padded(array: np.ndarray, pad: _Pad) -> np.ndarray:
    """``array`` padded over ``pad``'s rows and columns: each pixel is
    the value :func:`~repro.backend.numpy_exec.gather` reads at that
    coordinate under ``pad.boundary``."""
    height, width = array.shape[:2]
    mode = pad.boundary.mode
    rows, row_oob = resolve_array(pad.rows.indices(height), height, mode)
    cols, col_oob = resolve_array(pad.cols.indices(width), width, mode)
    padded = array.take(rows, 0).take(cols, 1)
    if row_oob is not None:
        mask = row_oob[:, None] | col_oob[None, :]
        padded = _apply_mask(padded, mask, pad.boundary.constant)
    return padded


def _taken(
    band: np.ndarray, store: GridStore, key: tuple, n: int, mode: BoundaryMode, axis: int
) -> np.ndarray:
    """``band`` read on ``axis`` through the interned grid ``key``,
    resolved against extent ``n``: one ``take``."""
    return band.take(store.grid(resolve_key(key, n, mode)).ravel(), axis)


def _read(
    tap: _Tap,
    aux: tuple,
    pads: Tuple[_Pad, ...],
    copies: List[Optional[np.ndarray]],
    arrays: Arrays,
    store: GridStore,
) -> np.ndarray:
    """One gather through its :class:`_Tap`; builds the run's padded
    copy in ``copies`` on its first need.  A CONSTANT tap that takes is
    filled through the interned mask of both its axes (its static one,
    if any, is filled in the pad already, with the same constant)."""
    image, xi, yi, boundary = aux
    array = _array_for(image, arrays)
    value = array
    if tap.pad is not None:
        value = copies[tap.pad]
        if value is None:
            value = copies[tap.pad] = _padded(array, pads[tap.pad])
        value = value[tap.rows, tap.cols]
    for axis in tap.takes:
        key = yi if axis == 0 else xi
        value = _taken(value, store, key, array.shape[axis], boundary.mode, axis)
    if tap.takes and boundary.mode is BoundaryMode.CONSTANT:
        height, width = array.shape[:2]
        mask = store.mask(("ormask", ("oob", xi, width), ("oob", yi, height)))
        value = _apply_mask(value, mask, boundary.constant)
    return value


def _run_tape(
    tape: Tuple[Instr, ...],
    root: int,
    release: Tuple[Tuple[int, ...], ...],
    reads: _Reads,
    arrays: Arrays,
    params: Params,
    store: GridStore,
) -> np.ndarray:
    slots: List = [None] * len(tape)
    taps, pads = reads
    # This run's padded copies: its own, never shared with another run.
    copies: List[Optional[np.ndarray]] = [None] * len(pads)
    for index, instr in enumerate(tape):
        op = instr.op
        args = instr.args
        if op == "bin":
            value = _BIN_FN[instr.aux[0]](slots[args[0]], slots[args[1]])
        elif op == "gather":
            tap = taps[index]
            value = _read(tap, instr.aux, pads, copies, arrays, store)
            if tap.pad is not None and pads[tap.pad].last == index:
                copies[tap.pad] = None
            if index == root and not tap.takes:
                value = value.copy()  # a view: the output owns its pixels
        elif op == "maskfill":
            mask_key, fill = instr.aux
            value = _apply_mask(slots[args[0]], store.mask(mask_key), fill)
        elif op == "un":
            operand = slots[args[0]]
            value = -operand if instr.aux[0] == "neg" else np.abs(operand)
        elif op == "cmp":
            value = _CMP_FN[instr.aux[0]](
                slots[args[0]], slots[args[1]]
            ).astype(np.float64)
        elif op == "select":
            value = np.where(
                slots[args[0]] != 0.0, slots[args[1]], slots[args[2]]
            )
        elif op == "call":
            value = _CALL_FN[instr.aux[0]](*(slots[s] for s in args))
        elif op == "cast":
            value = (
                np.asarray(slots[args[0]])
                .astype(instr.aux[0])
                .astype(np.float64)
            )
        elif op == "const":
            value = np.float64(instr.aux[0])
        elif op == "param":
            try:
                value = np.float64(params[instr.aux[0]])
            except KeyError:
                raise ExecutionError(
                    f"unbound parameter {instr.aux[0]!r}"
                ) from None
        else:  # pragma: no cover - compiler emits only the ops above
            raise ExecutionError(f"unknown tape op {op!r}")
        slots[index] = value
        for dead in release[index]:
            slots[dead] = None
    return slots[root]


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


def _iteration_grids(kernel: Kernel) -> Tuple[tuple, tuple]:
    """Base grid keys of the kernel's iteration space.

    Global (reduction) kernels iterate their input space, like
    ``_coordinate_grids`` in the recursive engine.
    """
    space = kernel.space
    if kernel.reduction is not None and kernel.accessors:
        space = kernel.accessors[0].image.space
    return (
        base_key("x", space.width, space.height),
        base_key("y", space.width, space.height),
    )


def compile_kernel(
    kernel: Kernel,
    store: GridStore | None = None,
) -> BlockPlan:
    """Compile a single kernel (``execute_kernel`` semantics: global
    operators are reduced and broadcast)."""
    compiler = _TapeCompiler(None, {}, naive_borders=False)
    root = compiler.body(kernel, *_iteration_grids(kernel))
    stats = PlanStats(
        instructions=len(compiler.tape),
        member_evaluations=1,
        producer_cache_hits=0,
    )
    return BlockPlan(
        kernel,
        compiler.tape,
        root,
        store or GridStore(),
        apply_reduction=True,
        stats=stats,
        kind="kernel",
    )


def _destination(graph: KernelGraph, block: PartitionBlock) -> Kernel:
    """The one kernel whose output leaves a fused ``block``."""
    destinations = block.destination_kernels()
    if len(destinations) != 1:
        raise ExecutionError(
            f"block {sorted(block.vertices)} has no unique destination"
        )
    return graph.kernel(destinations[0])


def compile_block(
    graph: KernelGraph,
    block: PartitionBlock,
    naive_borders: bool = False,
    store: GridStore | None = None,
) -> BlockPlan:
    """Compile a partition block; a singleton block is its kernel
    (``execute_kernel`` semantics: global operators are reduced)."""
    if len(block) == 1:
        (name,) = block.vertices
        return compile_kernel(graph.kernel(name), store)
    producer_of = {
        graph.kernel(name).output.name: name for name in block.vertices
    }
    destination = _destination(graph, block)
    compiler = _TapeCompiler(graph, producer_of, naive_borders)
    gx, gy = _iteration_grids(destination)
    with recursion_headroom():
        root = compiler.member(destination.name, gx, gy)
    stats = PlanStats(
        instructions=len(compiler.tape),
        member_evaluations=len(compiler._members),
        producer_cache_hits=compiler.producer_cache_hits,
    )
    return BlockPlan(
        destination,
        compiler.tape,
        root,
        store or GridStore(),
        apply_reduction=False,
        stats=stats,
        naive_borders=naive_borders,
        kind="block",
    )


def _plain_gather(instr: Instr) -> tuple:
    """A gather as plain values: its boundary enters as ``(mode,
    constant)``."""
    image, xi, yi, boundary = instr.aux
    return (
        instr.op,
        instr.args,
        (image, xi, yi, (boundary.mode.value, boundary.constant)),
    )


class BlockFacts(NamedTuple):
    """What the schedule says about one block before its tape exists:
    its members, the image it writes and the space it writes it over,
    the images it reads from outside and every parameter a member
    reads."""

    members: Tuple[str, ...]
    output_name: str
    space: IterationSpace
    inputs: Tuple[str, ...]
    params: FrozenSet[str]


class PartitionPlan:
    """A partition's blocks in schedule order, each compiled to a
    :class:`BlockPlan` tape, plus the inter-block dependence structure
    for parallel scheduling.

    The schedule facts (:attr:`schedule`, :attr:`deps`) are computed
    at once; the tapes (:attr:`plans`) on first access, under the
    graph's memo lock — a plan whose verdicts a persisted plan record
    supplies and whose blocks run a recorded library may never need
    them.  The plan keeps the names of what it was compiled from and
    its graph only weakly: it lives in its graph's memo, so a
    reference back would make graph and plan a cycle only the
    collector frees.
    """

    def __init__(
        self,
        graph: KernelGraph,
        partition: Partition,
        naive_borders: bool = False,
        store: GridStore | None = None,
    ):
        #: :meth:`Partition.signature` — the block member names, in
        #: partition order.
        self.partition_signature = partition.signature()
        #: :meth:`KernelGraph.structural_signature` of the graph compiled.
        self.graph_signature = graph.structural_signature()
        self.naive_borders = naive_borders
        self.store = store or GridStore()
        #: Whether the static plan verifier passed this plan (see
        #: :meth:`ensure_verified`), and the wall-clock it took.
        self.verified = False
        self.verify_ms = 0.0
        #: The :meth:`tape_digest` whose verifier verdict a persisted
        #: plan record supplies (:meth:`take_verdict`), or ``None``.
        self.proved_digest: Optional[str] = None
        self._tape_digest: Optional[str] = None
        self._graph = weakref.ref(graph)
        self._plans: Optional[List[BlockPlan]] = None
        producer_block: Dict[str, int] = {}
        self.schedule: List[BlockFacts] = []
        self.deps: List[Set[int]] = []
        # One pass: the inputs are the ones the ordering read off each
        # block, and each member kernel is looked up once.
        for index, (block, inputs) in enumerate(scheduled_blocks(graph, partition)):
            members = block.signature()
            kernels = [graph.kernel(name) for name in members]
            destination = (
                kernels[0] if len(kernels) == 1 else _destination(graph, block)
            )
            self.schedule.append(
                BlockFacts(
                    members,
                    destination.output.name,
                    destination.space,
                    inputs,
                    frozenset().union(*(kernel.param_names for kernel in kernels)),
                )
            )
            self.deps.append(
                {producer_block[i] for i in inputs if i in producer_block}
            )
            for kernel in kernels:
                producer_block[kernel.output.name] = index

    @property
    def plans(self) -> List[BlockPlan]:
        """One compiled tape per block, aligned with :attr:`schedule` —
        compiled on first access, once however many threads ask.  Tapes
        a recorded verdict does not cover (:meth:`take_verdict`) are
        verified under strict mode before any thread sees them."""
        plans = self._plans
        if plans is None:
            graph = self._graph()
            if graph is None:
                raise ExecutionError(
                    "the graph of this plan is gone: its tapes cannot be compiled"
                )
            with _memo_state(graph)[1]:
                if self._plans is None:
                    compiled = [
                        compile_block(
                            graph,
                            PartitionBlock(graph, facts.members),
                            naive_borders=self.naive_borders,
                            store=self.store,
                        )
                        for facts in self.schedule
                    ]
                    if self.proved_digest is not None and self.verified:
                        self._check_verdict(graph, compiled)
                    self._plans = compiled
                plans = self._plans
        return plans

    def _check_verdict(self, graph: KernelGraph, compiled: List[BlockPlan]) -> None:
        """Hold the recorded verdict to the tapes just ``compiled``: one
        with another digest is void, and strict mode verifies them."""
        digest = self._digest_of(compiled)
        if digest == self.proved_digest:
            self._tape_digest = digest
            return
        self.verified = False
        if validate_mode() == "strict":
            candidate = copy.copy(self)
            candidate._plans = compiled
            candidate.ensure_verified(graph)
            self.verified, self.verify_ms = True, candidate.verify_ms

    def take_verdict(self, digest: str) -> None:
        """Take over a persisted plan record's verifier verdict for the
        tapes whose :meth:`tape_digest` is ``digest``: tapes compiled
        already are checked now, the others when they compile."""
        self.proved_digest = digest
        self.verified = self._plans is None or self.tape_digest() == digest

    def known_digest(self) -> Optional[str]:
        """:meth:`tape_digest` where the tapes are compiled, else the
        digest a recorded verdict binds them to — never a compile."""
        return self.tape_digest() if self._plans is not None else self.proved_digest

    def execute(
        self,
        inputs: Arrays,
        params: Params | None = None,
        workers: int | None = None,
    ) -> Arrays:
        """Run every block; returns the surviving-image environment."""
        return run_block_dag(
            self.deps,
            [facts.output_name for facts in self.schedule],
            lambda index, env, params: self.plans[index].execute(env, params),
            dict(inputs),
            params or {},
            resolve_workers(workers),
        )

    def tape_digest(self) -> str:
        """SHA-256 over everything the static verifier reads off the
        compiled plan — per block its output, kind, root, flags,
        dependences and the tape itself.  It is a function of the graph's
        structural signature, the partition and ``naive_borders`` (and
        the code), which is why a persisted plan record
        (:mod:`repro.serve.plancache`) can name the tape by those
        instead and compile it only when something runs it."""
        if self._tape_digest is None:
            self._tape_digest = self._digest_of(self.plans)
        return self._tape_digest

    def _digest_of(self, plans: List[BlockPlan]) -> str:
        return canonical_digest(
            [
                (
                    plan.output_name,
                    plan.kind,
                    plan.root,
                    plan.apply_reduction,
                    plan.naive_borders,
                    sorted(deps),
                    [
                        _plain_gather(instr)
                        if instr.op == "gather"
                        else tuple(instr)
                        for instr in plan.tape
                    ],
                )
                for plan, deps in zip(plans, self.deps)
            ]
        )

    def ensure_verified(self, graph: KernelGraph) -> None:
        """Run the static plan verifier against ``graph`` (the one this
        plan was compiled from) unless this plan already passed it —
        strict mode's "verified before first use", paid once per
        artifact.  Raises
        :class:`repro.analysis.verifier.PlanVerificationError`.
        """
        if self.verified:
            return
        # Imported here: the verifier sits above this module (it
        # recompiles reference tapes through :func:`compile_block`).
        from repro.analysis.verifier import enforce, verify_partition_plan

        started = time.perf_counter()
        enforce(
            verify_partition_plan(self, graph=graph),
            context=f"graph {self.graph_signature[:12]}",
        )
        self.verify_ms = (time.perf_counter() - started) * 1e3
        self.verified = True


def run_block_dag(
    deps: List[Set[int]],
    output_names: List[str],
    run_one: Callable[[int, Arrays, Params], np.ndarray],
    env: Arrays,
    params: Params,
    workers: int,
) -> Arrays:
    """Run a partition's blocks in dependence order; returns ``env``
    with every block's output added.

    ``run_one(index, env, params)`` computes block ``index``; ``deps``
    and ``output_names`` are aligned with it and listed in a valid
    serial schedule.  With ``workers > 1`` independent blocks are
    dispatched on a thread pool, each on a snapshot of ``env`` so a
    worker never observes a concurrent insert — every input a block
    needs is present by the time its dependences completed.
    """
    if workers <= 1 or len(deps) <= 1:
        for index, name in enumerate(output_names):
            env[name] = run_one(index, env, params)
        return env
    pending = {index: len(block_deps) for index, block_deps in enumerate(deps)}
    dependents: Dict[int, List[int]] = {index: [] for index in pending}
    for index, block_deps in enumerate(deps):
        for dep in block_deps:
            dependents[dep].append(index)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures: Dict = {}

        def submit(index: int) -> None:
            futures[pool.submit(run_one, index, dict(env), params)] = index

        for index, count in pending.items():
            if count == 0:
                submit(index)
        while futures:
            done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
            for future in done:
                index = futures.pop(future)
                env[output_names[index]] = future.result()
                for dependent in dependents[index]:
                    pending[dependent] -= 1
                    if pending[dependent] == 0:
                        submit(dependent)
    return env


def resolve_workers(workers: int | None = None) -> int:
    """The effective worker count: explicit argument, else the
    ``REPRO_EXEC_WORKERS`` environment knob, else serial (1).

    A malformed environment value raises
    :class:`repro.envknobs.EnvKnobError` (a :class:`ValueError`) naming
    the variable.
    """
    if workers is not None:
        return max(1, int(workers))
    return max(1, int_env(WORKERS_ENV, default=1))


# ---------------------------------------------------------------------------
# The per-graph plan memo
# ---------------------------------------------------------------------------
#
# A graph owns what is compiled from it: ``graph.__dict__["_plan_memo"]``
# (kept where ``KernelGraph._signature_cache`` is) is one table — the
# interned grids under ``("grids",)``, each tape and native plan under
# ``("tape" | "native", partition shape, ...)``, the graph of a block
# run on its own (:func:`repro.api.run_block`) under ``("block",
# members)`` — and one lock.  Nothing in the table refers back to the
# graph, so it is all freed with the graph by reference counting.  The
# lock being the graph's, a plan is compiled once however many threads
# race to it while cold builds of different graphs overlap; it is
# re-entrant because a native build fetches its tape plan, and a tape
# build the grids, from the same memo.

#: The graphs carrying a memo — weakly, only so the resets can reach
#: them.  The lock guards membership, never a build.
_memo_graphs: "weakref.WeakSet[KernelGraph]" = weakref.WeakSet()
_memo_graphs_lock = threading.Lock()


def _memo_state(graph: KernelGraph) -> Tuple[dict, threading.RLock]:
    """``graph``'s memo table and lock, made on first use."""
    state = graph.__dict__.get("_plan_memo")
    if state is None:
        with _memo_graphs_lock:
            state = graph.__dict__.setdefault(
                "_plan_memo", ({}, threading.RLock())
            )
            _memo_graphs.add(graph)
    return state


def memo(graph: KernelGraph, key: tuple, build: Callable[[], object]):
    """What ``graph`` memoizes under ``key``; a miss stores ``build()``,
    called under the graph's lock."""
    table, lock = _memo_state(graph)
    with lock:
        value = table.get(key)
        if value is None:
            value = table[key] = build()
        return value


def forget_plans(
    stale: Callable[[tuple], bool], graph: Optional[KernelGraph] = None
) -> None:
    """Drop what ``graph`` memoizes under the keys ``stale`` accepts.
    Without a graph: on every graph, and
    :data:`repro.serve.plancache.PROCESS_CACHE`, whose entries hold
    those plans, is emptied too."""
    if graph is None:
        with _memo_graphs_lock:
            graphs = list(_memo_graphs)
    else:
        graphs = [graph]
    for owner in graphs:
        state = owner.__dict__.get("_plan_memo")
        if state is not None:
            table, lock = state
            with lock:
                for key in [key for key in table if stale(key)]:
                    del table[key]
    if graph is None:
        # Imported here: that module sits above this one.
        from repro.serve.plancache import PROCESS_CACHE

        PROCESS_CACHE.clear()


def plan_for_partition(
    graph: KernelGraph,
    partition: Partition,
    naive_borders: bool = False,
    *,
    proved_digest: Optional[str] = None,
) -> PartitionPlan:
    """The (cached) compiled plan of a partition.

    ``proved_digest`` is the :meth:`PartitionPlan.tape_digest` a
    persisted plan record says the verifier already passed, for a plan
    whose tape identity the record is bound to: a plan built now takes
    that verdict over (:meth:`PartitionPlan.take_verdict`) and compiles
    its tapes on first need instead of here; tapes that turn out to
    have another digest are not covered by it.
    """

    def build() -> PartitionPlan:
        fault_check("plan.compile")
        plan = PartitionPlan(
            graph,
            partition,
            naive_borders,
            store=memo(graph, ("grids",), GridStore),
        )
        if proved_digest is None:
            plan.plans  # a build no record vouches for compiles now
        else:
            plan.take_verdict(proved_digest)
        if validate_mode() == "strict":
            plan.ensure_verified(graph)
        return plan

    return memo(
        graph, ("tape", partition.signature(), bool(naive_borders)), build
    )


def clear_plan_caches() -> None:
    """Drop every memoized plan, tape and native, and every grid store,
    and empty the process-wide plan cache (tests, memory pressure)."""
    forget_plans(lambda key: True)
