"""Kernels: the vertices of the fusion graph.

A kernel is a pure function mapping a window of input pixels to one
output pixel (point and local operators), or reducing a whole image to
a scalar/array (global operators).  This mirrors Hipacc's operator
classes; the paper's fusion technique targets point and local operators
(Section II-C1), global operators participate in pipelines but never
fuse.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Mapping, Sequence, Set, Tuple

from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.image import Image, IterationSpace
from repro.ir.expr import Expr, InputAt
from repro.ir.cost import OpCounts, count_ops
from repro.ir.signature import ExprSig, expr_signature
from repro.ir.traversal import inputs_of, reads_extent
from repro.ir.validate import validate


def _image_signature(image: Image) -> tuple:
    """Structural identity of an image: name, geometry, element size."""
    space = image.space
    return (
        image.name,
        space.width,
        space.height,
        space.channels,
        image.bytes_per_pixel,
    )


def _image_structure(image: Image) -> tuple:
    """Shape-agnostic identity of an image: name, channels, element size.

    The width/height are deliberately elided — this is the image half of
    :meth:`Kernel.structure_signature`, under which every resolution of
    the same pipeline structure signs identically (the key of the
    serving runtime's structure-keyed plan cache, served by
    shape-polymorphic native plans)."""
    space = image.space
    return (image.name, space.channels, image.bytes_per_pixel)


class ComputePattern(enum.Enum):
    """The paper's compute-pattern taxonomy (Section II-C1)."""

    POINT = "point"
    LOCAL = "local"
    GLOBAL = "global"


class ReductionKind(enum.Enum):
    """Reduction performed by a global operator."""

    SUM = "sum"
    MIN = "min"
    MAX = "max"
    HISTOGRAM = "histogram"


class Accessor:
    """Read access to an input image with a boundary specification.

    Calling the accessor (``acc(dx, dy)``) yields an :class:`InputAt`
    read at the given window offset.  Boundary handling is attached here
    rather than on the read node: fused kernels resolve indices in two
    stages (index exchange), and each stage uses the boundary mode of
    the accessor through which the image was originally read.
    """

    def __init__(
        self,
        image: Image,
        boundary: BoundarySpec | BoundaryMode | None = None,
    ):
        self.image = image
        if boundary is None:
            boundary = BoundarySpec()
        elif isinstance(boundary, BoundaryMode):
            boundary = BoundarySpec(boundary)
        self.boundary = boundary

    def __call__(self, dx: int = 0, dy: int = 0) -> InputAt:
        return InputAt(self.image.name, dx, dy)

    def at(self, dx: int = 0, dy: int = 0) -> InputAt:
        """Alias of ``__call__`` for readability in kernel bodies."""
        return InputAt(self.image.name, dx, dy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Accessor({self.image.name}, {self.boundary})"


class Kernel:
    """A pipeline kernel.

    Parameters
    ----------
    name:
        Unique name within the pipeline.
    accessors:
        Input accessors; every image read by ``body`` must be covered.
    output:
        The image the kernel produces.  Its iteration space is the
        kernel's iteration space (the paper's header information).
    body:
        The per-pixel expression.
    reduction:
        If set, the kernel is a *global* operator: the per-pixel values
        are reduced with this kind instead of written per pixel.
    granularity:
        Pixels computed per thread.  Part of the fusion header check —
        kernels with different granularities never fuse.
    block_shape:
        The CUDA thread-block shape used for shared-memory footprint and
        occupancy estimates.
    force_no_shared_memory:
        Opt a local kernel out of shared-memory staging (affects the
        resource model only, not semantics).
    """

    def __init__(
        self,
        name: str,
        accessors: Sequence[Accessor],
        output: Image,
        body: Expr,
        reduction: ReductionKind | None = None,
        granularity: int = 1,
        block_shape: Tuple[int, int] = (32, 8),
        force_no_shared_memory: bool = False,
    ):
        if not name:
            raise ValueError("kernel name must be non-empty")
        if not name.isidentifier():
            # Kernel names become CUDA/OpenCL/C function names.
            raise ValueError(
                f"kernel name {name!r} must be a valid identifier"
            )
        if granularity < 1:
            raise ValueError("granularity must be >= 1")
        validate(body)

        self.name = name
        self.accessors: Tuple[Accessor, ...] = tuple(accessors)
        self.output = output
        self.body = body
        self.reduction = reduction
        self.granularity = granularity
        self.block_shape = block_shape
        self.force_no_shared_memory = force_no_shared_memory

        seen: Set[str] = set()
        for accessor in self.accessors:
            if accessor.image.name in seen:
                raise ValueError(
                    f"kernel {name!r}: duplicate accessor for image "
                    f"{accessor.image.name!r}"
                )
            if accessor.image.name == output.name:
                # Even unread, such an accessor would put a self-edge in
                # the dependence graph and surface later as a baffling
                # "dependence cycle" involving a single kernel.
                raise ValueError(
                    f"kernel {name!r} must not declare an accessor for "
                    f"its own output {output.name!r}"
                )
            seen.add(accessor.image.name)
        #: What :meth:`reads` returns: the one walk of the body this
        #: kernel pays.
        self._reads_cache = inputs_of(body)
        read_images = set(self._reads_cache)
        missing = read_images - seen
        if missing:
            raise ValueError(
                f"kernel {name!r} reads images without accessors: "
                f"{sorted(missing)}"
            )
        if output.name in read_images:
            raise ValueError(
                f"kernel {name!r} must not read its own output {output.name!r}"
            )

    # -- derived header / pattern information -----------------------------

    @property
    def space(self) -> IterationSpace:
        """The kernel's iteration space (its output image's space)."""
        return self.output.space

    @property
    def input_images(self) -> Tuple[Image, ...]:
        """Images read by this kernel, in accessor order."""
        return tuple(a.image for a in self.accessors)

    @property
    def input_names(self) -> Tuple[str, ...]:
        return tuple(a.image.name for a in self.accessors)

    def accessor_for(self, image_name: str) -> Accessor:
        """The accessor reading ``image_name`` (KeyError if absent)."""
        for accessor in self.accessors:
            if accessor.image.name == image_name:
                return accessor
        raise KeyError(f"kernel {self.name!r} has no accessor for {image_name!r}")

    @property
    def window_radius(self) -> Tuple[int, int]:
        """``(rx, ry)`` read-window radius over all inputs."""
        return reads_extent(self.reads())

    @property
    def window_size(self) -> int:
        """The paper's ``sz(k)``: window footprint in pixels.

        ``1`` for point operators; ``(2*rx+1) * (2*ry+1)`` for local
        operators (e.g. 9 for a 3x3 convolution).
        """
        rx, ry = self.window_radius
        return (2 * rx + 1) * (2 * ry + 1)

    @property
    def pattern(self) -> ComputePattern:
        """Classify the kernel as point / local / global."""
        if self.reduction is not None:
            return ComputePattern.GLOBAL
        rx, ry = self.window_radius
        if rx == 0 and ry == 0:
            return ComputePattern.POINT
        return ComputePattern.LOCAL

    @property
    def uses_shared_memory(self) -> bool:
        """Whether the generated code stages inputs in shared memory.

        Local operators access each input pixel multiple times, so
        Hipacc stages their inputs in shared memory; point and global
        operators stream from global memory.
        """
        if self.force_no_shared_memory:
            return False
        return self.pattern is ComputePattern.LOCAL

    @property
    def op_counts(self) -> OpCounts:
        """ALU / SFU operation counts of the body (feeds Eq. 6).

        Cached: bodies are immutable, and the CSE-aware count walks the
        whole (possibly large, fused) tree.
        """
        cached = getattr(self, "_op_counts_cache", None)
        if cached is None:
            cached = count_ops(self.body)
            self._op_counts_cache = cached
        return cached

    @property
    def param_names(self) -> Set[str]:
        """Runtime scalar parameters referenced by the body — read off
        the value-numbered :attr:`body_signature`, where each appears
        once however often the tree repeats it."""
        cached = getattr(self, "_param_names_cache", None)
        if cached is None:
            cached = {node[1] for node in self.body_signature if node[0] == "param"}
            self._param_names_cache = cached
        return cached

    @property
    def body_signature(self) -> ExprSig:
        """:func:`~repro.ir.signature.expr_signature` of the body, walked
        once (bodies are immutable): the body half of both structural
        signatures, and what the tape compiler
        (:mod:`repro.backend.plan`) evaluates a member from."""
        cached = getattr(self, "_body_signature_cache", None)
        if cached is None:
            cached = self._body_signature_cache = expr_signature(self.body)
        return cached

    def structural_signature(self) -> tuple:
        """A hashable signature of everything execution depends on.

        Two kernels built separately by the same construction code have
        equal signatures; any change to the body (constants, operators,
        offsets), the header (spaces, granularity, block shape), the
        boundary handling, or the reduction kind changes it.  The
        serving runtime's plan cache keys on the pipeline-level
        aggregate of these (:meth:`repro.graph.dag.KernelGraph.structural_signature`).
        """
        cached = getattr(self, "_signature_cache", None)
        if cached is None:
            cached = (
                "kernel",
                self.name,
                _image_signature(self.output),
                tuple(
                    (
                        _image_signature(a.image),
                        a.boundary.mode.value,
                        float(a.boundary.constant),
                    )
                    for a in self.accessors
                ),
                self.reduction.value if self.reduction else None,
                self.granularity,
                tuple(self.block_shape),
                self.force_no_shared_memory,
                self.body_signature,
            )
            self._signature_cache = cached
        return cached

    def structure_signature(self) -> tuple:
        """:meth:`structural_signature` with the image geometry elided.

        Two kernels that differ only in iteration-space width/height —
        the same construction code run at different resolutions — have
        equal structure signatures; channels, element sizes, bodies,
        boundaries, and headers still distinguish.  This is the kernel
        half of :meth:`repro.graph.dag.KernelGraph.structure_signature`,
        the structure-keyed plan-cache identity served by
        shape-polymorphic native plans.
        """
        cached = getattr(self, "_structure_cache", None)
        if cached is None:
            cached = (
                "kernel-structure",
                self.name,
                _image_structure(self.output),
                tuple(
                    (
                        _image_structure(a.image),
                        a.boundary.mode.value,
                        float(a.boundary.constant),
                    )
                    for a in self.accessors
                ),
                self.reduction.value if self.reduction else None,
                self.granularity,
                tuple(self.block_shape),
                self.force_no_shared_memory,
                self.body_signature,
            )
            self._structure_cache = cached
        return cached

    def reads(self) -> Dict[str, Set[Tuple[int, int]]]:
        """Per-image sets of read offsets (collected once, by the
        constructor; body is immutable)."""
        return self._reads_cache

    # -- construction convenience -----------------------------------------

    @classmethod
    def from_function(
        cls,
        name: str,
        inputs: Sequence[Image],
        output: Image,
        fn: Callable[..., Expr],
        boundary: BoundarySpec
        | BoundaryMode
        | Mapping[str, BoundarySpec | BoundaryMode]
        | None = None,
        **kwargs,
    ) -> "Kernel":
        """Build a kernel from a Python function of accessors.

        ``fn`` receives one :class:`Accessor` per input image and returns
        the body expression.  ``boundary`` applies to every accessor, or
        per-image when given as a mapping.
        """
        accessors = []
        for image in inputs:
            if isinstance(boundary, Mapping):
                spec = boundary.get(image.name)
            else:
                spec = boundary
            accessors.append(Accessor(image, spec))
        body = fn(*accessors)
        return cls(name, accessors, output, body, **kwargs)

    def __repr__(self) -> str:
        return (
            f"Kernel({self.name!r}, {self.pattern.value}, "
            f"sz={self.window_size}, out={self.output.name!r})"
        )
