"""The lazy frontend: record NumPy-like array expressions, fuse at flush.

The DSL in :mod:`repro.dsl` asks the programmer to spell out kernels,
images, and accessors explicitly — faithful to Hipacc, but verbose for
exploratory work.  This module adds the array-programming surface the
paper's introduction gestures at ("write loops, get fused kernels"):

>>> from repro import lazy
>>> t = lazy.Trace("sobel", 64, 48)
>>> src = t.source("input")
>>> ix = lazy.convolve(src, SOBEL_X).checkpoint("dx", "Ix")
>>> iy = lazy.convolve(src, SOBEL_Y).checkpoint("dy", "Iy")
>>> mag = lazy.sqrt(ix * ix + iy * iy).checkpoint("mag", "magnitude")
>>> out = mag.evaluate({"input": frame})

Nothing executes while recording: every operator composes an IR
expression (:mod:`repro.ir.expr`) over reads of *materialized* images.
:meth:`LazyArray.checkpoint` (or any operation that needs a
neighbourhood of a computed value, e.g. :meth:`LazyArray.shift`) cuts
the expression into a kernel; :meth:`LazyArray.evaluate` lowers the
recorded trace to an ordinary :class:`~repro.dsl.pipeline.Pipeline` /
:class:`~repro.graph.dag.KernelGraph` and feeds it through
:func:`repro.api.run` — the same fuse → plan → (tape | native) path
every hand-built pipeline takes.  A lazy trace that mirrors a
hand-built pipeline therefore lowers to a **bit-identical** graph with
the **same structural signature** (the differential suite in
``tests/lazy`` pins this for all six paper apps).

Common subexpressions are shared at two levels: IR nodes are frozen
dataclasses, so repeated subtrees sign identically under
:func:`repro.ir.signature.expr_signature` by construction; and the
trace hash-conses materializations, so cutting the same expression
twice yields **one** kernel, not two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.image import Image
from repro.dsl.kernel import Accessor, Kernel
from repro.dsl.pipeline import Pipeline
from repro.graph.dag import KernelGraph
from repro.ir.expr import (
    BinOp,
    Call,
    Cast,
    Cmp,
    Const,
    Expr,
    InputAt,
    Param,
    Select,
    UnOp,
)
from repro.ir.signature import expr_signature

__all__ = ["LazyArray", "LazyError", "Trace"]


class LazyError(ValueError):
    """Raised for malformed lazy traces (see the ``LAZY0xx`` codes)."""


def _first_read_order(expr: Expr) -> Tuple[str, ...]:
    """Image names in first-read order (deterministic left-to-right walk).

    This is the accessor order :meth:`Trace._materialize` uses by
    default — it matches ``Kernel.from_function(inputs=...)`` whenever
    the hand-built kernel's body reads its inputs in declaration order
    (true for most paper kernels; ``checkpoint(inputs=...)`` overrides
    the rest).
    """
    seen: List[str] = []

    def walk(node: Expr) -> None:
        if isinstance(node, InputAt):
            if node.image not in seen:
                seen.append(node.image)
        elif isinstance(node, (BinOp, Cmp)):
            walk(node.lhs)
            walk(node.rhs)
        elif isinstance(node, (UnOp, Cast)):
            walk(node.operand)
        elif isinstance(node, Select):
            walk(node.cond)
            walk(node.if_true)
            walk(node.if_false)
        elif isinstance(node, Call):
            for arg in node.args:
                walk(arg)
        # Const / Param read nothing.

    walk(expr)
    return tuple(seen)


class _ReadAccessor:
    """Duck-typed stand-in for :class:`repro.dsl.kernel.Accessor`.

    The :mod:`repro.dsl.functional` window builders only ever *call*
    their accessor (``acc(dx, dy) -> InputAt``), so a shim anchored at a
    base offset lets every existing window helper (``convolve``,
    ``window_reduce``, ...) record into a lazy trace unchanged.
    """

    __slots__ = ("image", "dx", "dy")

    def __init__(self, image: str, dx: int = 0, dy: int = 0):
        self.image = image
        self.dx = dx
        self.dy = dy

    def __call__(self, dx: int = 0, dy: int = 0) -> InputAt:
        return InputAt(self.image, self.dx + dx, self.dy + dy)

    at = __call__


class _Node:
    """One materialized kernel of a trace (recording order preserved)."""

    __slots__ = ("kernel", "explicit")

    def __init__(self, kernel: Kernel, explicit: bool):
        self.kernel = kernel
        self.explicit = explicit

    @property
    def image(self) -> Image:
        return self.kernel.output


Operand = Union["LazyArray", Expr, int, float]


class Trace:
    """A recording session: one geometry, one growing kernel list.

    All arrays of a trace share one iteration space (``width`` x
    ``height`` x ``channels``) — the paper's fusion legality demands
    header-compatible spaces anyway.
    """

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        channels: int = 1,
        bytes_per_pixel: int = 4,
    ):
        self.name = name
        self.width = width
        self.height = height
        self.channels = channels
        self.bytes_per_pixel = bytes_per_pixel
        self._images: Dict[str, Image] = {}
        self._boundaries: Dict[str, BoundarySpec] = {}
        self._domains: Dict[str, Tuple[float, float]] = {}
        self._foreign_scalars: set = set()
        self._sources: Dict[str, Optional[np.ndarray]] = {}
        self._nodes: List[_Node] = []
        self._node_by_image: Dict[str, _Node] = {}
        self._cse: Dict[tuple, _Node] = {}
        self._kernel_names: set = set()
        self._requested: List[str] = []
        self._auto = 0

    # -- recording ---------------------------------------------------------

    def source(
        self,
        name: str,
        array: Optional[np.ndarray] = None,
        boundary: BoundarySpec | BoundaryMode | None = None,
        domain: Optional[Tuple[float, float]] = None,
    ) -> "LazyArray":
        """Declare a pipeline input and return its lazy handle.

        ``array`` (optional) pre-binds the pixel data so
        :meth:`LazyArray.evaluate` needs no ``inputs`` argument;
        ``boundary`` fixes the border mode of every read of this image
        (default clamp, like the explicit DSL).  ``domain`` declares the
        input's value range as an ``(lo, hi)`` pair — it flows to
        :meth:`~repro.dsl.pipeline.Pipeline.declare_domain` on lowering
        and seeds the value-range analysis (``VAL0xx``).
        """
        if name in self._images:
            raise LazyError(f"image name {name!r} already used in this trace")
        image = Image.create(
            name, self.width, self.height, self.channels, self.bytes_per_pixel
        )
        self._images[name] = image
        if boundary is not None:
            if isinstance(boundary, BoundaryMode):
                boundary = BoundarySpec(boundary)
            self._boundaries[name] = boundary
        if domain is not None:
            lo, hi = domain
            self._domains[name] = (float(lo), float(hi))
        self._sources[name] = None if array is None else np.asarray(array)
        return LazyArray(self, InputAt(name, 0, 0))

    def const(self, value: float) -> "LazyArray":
        """A constant-valued lazy array (a :class:`Const` leaf)."""
        return LazyArray(self, Const(value))

    def param(self, name: str) -> "LazyArray":
        """A runtime scalar parameter (bound through ``params`` at run)."""
        return LazyArray(self, Param(name))

    # -- materialization ---------------------------------------------------

    def _boundary_of(self, image_name: str) -> BoundarySpec:
        return self._boundaries.get(image_name, BoundarySpec())

    def _fresh_names(self) -> Tuple[str, str]:
        while True:
            kernel_name = f"lazy{self._auto}"
            image_name = f"tmp{self._auto}"
            self._auto += 1
            if (
                kernel_name not in self._kernel_names
                and image_name not in self._images
            ):
                return kernel_name, image_name

    def _materialize(
        self,
        array: "LazyArray",
        kernel_name: Optional[str] = None,
        image_name: Optional[str] = None,
        inputs: Optional[Sequence[Union["LazyArray", str]]] = None,
    ) -> _Node:
        """Cut ``array``'s expression into a kernel (hash-consed).

        Without explicit names (the auto path taken by ``shift`` /
        ``evaluate`` / window helpers on computed values) an existing
        node with the same body and accessor order is reused — the
        kernel-level half of common-subexpression sharing.  Explicit
        ``checkpoint`` names always create the named kernel (re-running
        the same checkpoint is idempotent).
        """
        expr = array.expr
        if isinstance(expr, InputAt) and expr.dx == 0 and expr.dy == 0:
            node = self._node_by_image.get(expr.image)
            if node is not None and kernel_name is None:
                return node
            if kernel_name is None:
                # A bare, unmodified pipeline input: there is no kernel
                # to lower, and "run the identity" is almost always a
                # recording bug.  ``repro lint`` reports this as LAZY001.
                raise LazyError(
                    f"[LAZY001] evaluate() on the unmodified input "
                    f"{expr.image!r}: the trace records no computation "
                    "over it (checkpoint() a derived value, or read the "
                    "input array directly)"
                )

        if inputs is not None:
            order = tuple(
                entry if isinstance(entry, str) else entry._image_name()
                for entry in inputs
            )
            if sorted(order) != sorted(_first_read_order(expr)):
                raise LazyError(
                    f"checkpoint inputs {list(order)} must cover exactly "
                    f"the images the expression reads "
                    f"({sorted(_first_read_order(expr))})"
                )
        else:
            order = _first_read_order(expr)

        key = (expr_signature(expr), order)
        node = self._cse.get(key)
        if node is not None:
            if kernel_name is None or node.kernel.name == kernel_name:
                return node
        explicit = kernel_name is not None
        if kernel_name is None:
            kernel_name, image_name = self._fresh_names()
        elif image_name is None:
            image_name = kernel_name + "_out"

        if kernel_name in self._kernel_names:
            raise LazyError(
                f"kernel name {kernel_name!r} already used in this trace"
            )
        if image_name in self._images:
            raise LazyError(
                f"image name {image_name!r} already used in this trace"
            )
        accessors = [
            Accessor(self._images[name], self._boundary_of(name))
            for name in order
        ]
        output = Image.create(
            image_name,
            self.width,
            self.height,
            self.channels,
            self.bytes_per_pixel,
        )
        kernel = Kernel(kernel_name, accessors, output, expr)
        # The CSE key already holds the body's signature: the kernel
        # takes it instead of walking the same body again on first use.
        kernel.body_signature = key[0]
        node = _Node(kernel, explicit=explicit)
        self._nodes.append(node)
        self._images[image_name] = output
        self._node_by_image[image_name] = node
        self._kernel_names.add(kernel_name)
        if key not in self._cse:
            self._cse[key] = node
        return node

    # -- lowering / flush --------------------------------------------------

    def lower(self, outputs: Sequence[str] = ()) -> Pipeline:
        """The recorded trace as an ordinary :class:`Pipeline`.

        Kernels appear in materialization order — the same order a
        hand-written builder ``add``s them — so a transliterated app
        lowers to a graph with an identical structural signature.
        ``outputs`` marks non-sink images externally observed.
        """
        if not self._nodes:
            raise LazyError(
                "[LAZY001] trace lowers to an empty graph: no kernel was "
                "recorded (evaluate() on an unmodified input?)"
            )
        pipe = Pipeline(self.name)
        for node in self._nodes:
            pipe.add(node.kernel)
        for name, (lo, hi) in self._domains.items():
            pipe.declare_domain(name, lo, hi)
        for name in outputs:
            if self._node_by_image.get(name) is None:
                raise LazyError(
                    f"requested output {name!r} is not a materialized image"
                )
            pipe.mark_output(name)
        return pipe

    def graph(self, outputs: Sequence[str] = ()) -> KernelGraph:
        """The lowered dependence DAG (see :meth:`lower`)."""
        return self.lower(outputs).build()

    def checkpoint_provenance(self) -> Dict[str, str]:
        """Synthesized kernel name -> nearest downstream ``checkpoint``.

        Auto-materialized kernels carry names no user ever wrote
        (``lazy0``, ``lazy1``, ...); a diagnostic located there is
        unactionable.  This maps each such kernel to the closest
        explicitly named checkpoint that consumes it (transitively), so
        lint output can say *which user-visible value* the synthesized
        kernel feeds.  Kernels reaching no checkpoint stay unmapped.
        """
        producer = {node.image.name: node for node in self._nodes}
        provenance: Dict[str, str] = {}
        for node in self._nodes:
            if not node.explicit:
                continue
            stack: List[_Node] = [node]
            while stack:
                current = stack.pop()
                for accessor in current.kernel.accessors:
                    upstream = producer.get(accessor.image.name)
                    if (
                        upstream is None
                        or upstream.explicit
                        or upstream.kernel.name in provenance
                    ):
                        continue
                    provenance[upstream.kernel.name] = node.kernel.name
                    stack.append(upstream)
        return provenance

    def run(
        self,
        inputs: Optional[Dict[str, np.ndarray]] = None,
        params: Optional[Dict[str, float]] = None,
        options=None,
        outputs: Sequence[str] = (),
    ) -> Dict[str, np.ndarray]:
        """Flush: lower and execute through :func:`repro.api.run`.

        Bound source arrays merge with ``inputs`` (explicit ``inputs``
        win).  Returns the surviving-image environment, exactly as
        :func:`repro.api.run` would for the equivalent hand-built graph.
        """
        from repro.api import run as api_run

        graph = self.graph(outputs)
        merged: Dict[str, np.ndarray] = {
            name: array
            for name, array in self._sources.items()
            if array is not None
        }
        merged.update(inputs or {})
        missing = [
            name for name in graph.pipeline_inputs() if name not in merged
        ]
        if missing:
            raise LazyError(
                f"unbound pipeline inputs {missing}; bind them via "
                "source(name, array) or pass them to evaluate()/run()"
            )
        for name in outputs:
            if name not in self._requested:
                self._requested.append(name)
        return api_run(graph, merged, params, options=options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, {self.width}x{self.height}"
            f"x{self.channels}, {len(self._nodes)} kernels)"
        )


class LazyArray:
    """A deferred 2D array: an IR expression over materialized images.

    Arithmetic (``+ - * /``), comparisons, ``abs``/negation, and the
    module-level math helpers all *record*; nothing touches pixels until
    :meth:`evaluate`.  Scalars and raw IR expressions mix freely as
    operands.
    """

    __slots__ = ("trace", "expr")

    #: Opt out of NumPy's binary-operator protocol: ``ndarray * lazy``
    #: must return ``NotImplemented`` from the ndarray side so Python
    #: falls through to :meth:`__rmul__` here (which then reports the
    #: foreign operand precisely) instead of broadcasting the lazy
    #: array into an object-dtype ndarray element by element.
    __array_ufunc__ = None

    def __init__(self, trace: Trace, expr: Expr):
        self.trace = trace
        self.expr = expr

    # -- internals ---------------------------------------------------------

    def _operand(self, value: Operand) -> Expr:
        if isinstance(value, LazyArray):
            if value.trace is not self.trace:
                raise LazyError(
                    "cannot combine arrays from different traces"
                )
            return value.expr
        if isinstance(value, Expr):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # Subclasses of the Python scalar types (np.float64 chief
            # among them) coerce fine but record their type, so the
            # LAZY004 lint can flag a trace mixing scalar types whose
            # precision intent the float64 Const silently erases.
            if type(value) is not int and type(value) is not float:
                self.trace._foreign_scalars.add(type(value).__name__)
            return Const(float(value))
        if isinstance(value, np.generic) and np.ndim(value) == 0:
            if np.issubdtype(value.dtype, np.number):
                self.trace._foreign_scalars.add(type(value).__name__)
                return Const(float(value))
        raise TypeError(
            f"cannot use {type(value).__name__} ({value!r}) as a lazy "
            "operand: lazy arrays combine with Python scalars, NumPy "
            "scalars, IR expressions, and arrays of the same trace. "
            "Note that for scalar-on-the-left forms like `k * a`, "
            "Python tries `k.__mul__(a)` first and only falls back to "
            "`a.__rmul__(k)` when the left side returns NotImplemented "
            "— a sequence or array on the left may consume the lazy "
            "array instead; bind pixel data through "
            "Trace.source(name, array) and read it via shift()/[]."
        )

    def _wrap(self, expr: Expr) -> "LazyArray":
        return LazyArray(self.trace, expr)

    def _wrap_binop(self, op: str, other: Operand) -> "LazyArray":
        return self._wrap(BinOp(op, self.expr, self._operand(other)))

    def _pure_read(self) -> Optional[InputAt]:
        return self.expr if isinstance(self.expr, InputAt) else None

    def _image_name(self) -> str:
        read = self._pure_read()
        if read is None or read.dx or read.dy:
            raise LazyError(
                "expected an unshifted image handle (a source or a "
                "checkpointed value)"
            )
        return read.image

    def _as_accessor(self) -> _ReadAccessor:
        """A window accessor over this value (for the functional helpers).

        A pure image read anchors the accessor at its offset; a computed
        expression is materialized first — reading a *neighbourhood* of
        a derived value forces a kernel boundary, which is exactly what
        preserves the two-stage border semantics of fused local
        operators (Fig. 4).
        """
        read = self._pure_read()
        if read is not None:
            return _ReadAccessor(read.image, read.dx, read.dy)
        node = self.trace._materialize(self)
        return _ReadAccessor(node.image.name, 0, 0)

    # -- stencil access ----------------------------------------------------

    def shift(self, dx: int = 0, dy: int = 0) -> "LazyArray":
        """The array translated by ``(dx, dy)`` pixels.

        ``shift(1, 0)`` reads the right neighbour, like ``a[:, 1:]`` on
        a NumPy array (boundary handling per the image's spec).  Shifts
        of pure reads compose offsets; shifting a computed value
        materializes it first (see :meth:`_as_accessor`).
        """
        if not isinstance(dx, int) or not isinstance(dy, int):
            raise LazyError("shift offsets must be integers")
        if dx == 0 and dy == 0:
            return self
        read = self._pure_read()
        if read is not None:
            return self._wrap(InputAt(read.image, read.dx + dx, read.dy + dy))
        node = self.trace._materialize(self)
        return self._wrap(InputAt(node.image.name, dx, dy))

    def __getitem__(self, index) -> "LazyArray":
        """NumPy-flavoured stencil slicing, row-major: ``a[y, x]``.

        ``a[1:, 2:]`` is ``shift(dx=2, dy=1)`` (down-right neighbour),
        ``a[:-1]`` is ``shift(dy=-1)``, and an integer pair ``a[1, -2]``
        reads the single offset ``(dx=-2, dy=1)``.  Only shift-like
        slices (no steps, no window narrowing on both ends) translate —
        anything else raises, because a lazy array has no materialized
        extent to crop.
        """
        if not isinstance(index, tuple):
            index = (index, slice(None))
        if len(index) != 2:
            raise LazyError("lazy arrays are 2D: index with [y, x]")

        def delta(axis_index, axis: str) -> int:
            if isinstance(axis_index, int):
                return axis_index
            if isinstance(axis_index, slice):
                if axis_index.step is not None:
                    raise LazyError(
                        f"{axis}-slice with a step does not translate to "
                        "a shift"
                    )
                start, stop = axis_index.start, axis_index.stop
                if start is None and stop is None:
                    return 0
                if stop is None and start is not None:
                    return int(start)
                if start is None and stop is not None and stop < 0:
                    return int(stop)
                raise LazyError(
                    f"{axis}-slice {axis_index!r} narrows the window; "
                    "only whole-image shifts (a[k:], a[:-k]) are lazy"
                )
            raise LazyError(f"unsupported {axis} index {axis_index!r}")

        dy = delta(index[0], "y")
        dx = delta(index[1], "x")
        return self.shift(dx, dy)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Operand) -> "LazyArray":
        return self._wrap(BinOp("add", self.expr, self._operand(other)))

    def __radd__(self, other: Operand) -> "LazyArray":
        return self._wrap(BinOp("add", self._operand(other), self.expr))

    def __sub__(self, other: Operand) -> "LazyArray":
        return self._wrap(BinOp("sub", self.expr, self._operand(other)))

    def __rsub__(self, other: Operand) -> "LazyArray":
        return self._wrap(BinOp("sub", self._operand(other), self.expr))

    def __mul__(self, other: Operand) -> "LazyArray":
        return self._wrap(BinOp("mul", self.expr, self._operand(other)))

    def __rmul__(self, other: Operand) -> "LazyArray":
        return self._wrap(BinOp("mul", self._operand(other), self.expr))

    def __truediv__(self, other: Operand) -> "LazyArray":
        return self._wrap(BinOp("div", self.expr, self._operand(other)))

    def __rtruediv__(self, other: Operand) -> "LazyArray":
        return self._wrap(BinOp("div", self._operand(other), self.expr))

    def __mod__(self, other: Operand) -> "LazyArray":
        return self._wrap(BinOp("mod", self.expr, self._operand(other)))

    def __neg__(self) -> "LazyArray":
        return self._wrap(UnOp("neg", self.expr))

    def __abs__(self) -> "LazyArray":
        return self._wrap(UnOp("abs", self.expr))

    # -- comparisons (record Cmp nodes, 1.0/0.0 at run time) ---------------

    def __lt__(self, other: Operand) -> "LazyArray":
        return self._wrap(Cmp("lt", self.expr, self._operand(other)))

    def __le__(self, other: Operand) -> "LazyArray":
        return self._wrap(Cmp("le", self.expr, self._operand(other)))

    def __gt__(self, other: Operand) -> "LazyArray":
        return self._wrap(Cmp("gt", self.expr, self._operand(other)))

    def __ge__(self, other: Operand) -> "LazyArray":
        return self._wrap(Cmp("ge", self.expr, self._operand(other)))

    def eq(self, other: Operand) -> "LazyArray":
        """Elementwise equality (``__eq__`` stays Python identity)."""
        return self._wrap(Cmp("eq", self.expr, self._operand(other)))

    def ne(self, other: Operand) -> "LazyArray":
        """Elementwise inequality."""
        return self._wrap(Cmp("ne", self.expr, self._operand(other)))

    # -- flushing ----------------------------------------------------------

    def checkpoint(
        self,
        kernel_name: str,
        image_name: Optional[str] = None,
        inputs: Optional[Sequence[Union["LazyArray", str]]] = None,
    ) -> "LazyArray":
        """Materialize this value as the named kernel/image boundary.

        Returns a pure handle on the produced image; downstream
        recording reads it like a source.  ``inputs`` overrides the
        accessor order (default: first-read order of the body) — needed
        to transliterate hand-built kernels whose declared input order
        differs from the body's read order.
        """
        node = self.trace._materialize(self, kernel_name, image_name, inputs)
        return self._wrap(InputAt(node.image.name, 0, 0))

    def evaluate(
        self,
        inputs: Optional[Dict[str, np.ndarray]] = None,
        params: Optional[Dict[str, float]] = None,
        options=None,
    ) -> np.ndarray:
        """Flush the trace and return this value's pixels.

        Materializes the expression (if not already a checkpoint),
        lowers the whole recorded trace, and executes it via
        :func:`repro.api.run` under ``options``
        (:class:`repro.api.ExecutionOptions` — engine, fusion version,
        serving runtime, validation level all apply unchanged).
        """
        node = self.trace._materialize(self)
        env = self.trace.run(
            inputs, params, options, outputs=(node.image.name,)
        )
        return env[node.image.name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LazyArray({self.trace.name!r}, {self.expr!r})"
