"""Kernels: the vertices of the fusion graph.

A kernel is a pure function mapping a window of input pixels to one
output pixel (point and local operators), or reducing a whole image to
a scalar/array (global operators).  This mirrors Hipacc's operator
classes; the paper's fusion technique targets point and local operators
(Section II-C1), global operators participate in pipelines but never
fuse.
"""

from __future__ import annotations

import copy
import enum
from functools import cached_property
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
    the same pipeline structure signs identically (the plan cache's
    structure/shape miss split)."""
    space = image.space
    return (image.name, space.channels, image.bytes_per_pixel)


#: What a kernel keeps that derives from its header: the two signatures
#: and the footprint :func:`repro.model.resources.kernel_shared_bytes`
#: parks on it.  :meth:`Kernel.with_header` drops them from its copy.
_HEADER_DERIVED = ("_structural", "_structure", "_shared_bytes")


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

    The header is fixed at construction, as in Hipacc: ``block_shape``
    and ``force_no_shared_memory`` are read-only, and
    :meth:`with_header` re-heads a copy (a block-shape sweep, a resource
    ablation).  Everything derived from the kernel is computed once, on
    first read, and kept.
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
        self._block_shape = tuple(block_shape)
        self._force_no_shared_memory = force_no_shared_memory

        seen: Set[str] = set()
        names = []
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
            names.append(accessor.image.name)
        self._input_names: Tuple[str, ...] = tuple(names)
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
        """Names of the images read, in accessor order (built once, by
        the constructor)."""
        return self._input_names

    def accessor_for(self, image_name: str) -> Accessor:
        """The accessor reading ``image_name`` (KeyError if absent)."""
        for accessor in self.accessors:
            if accessor.image.name == image_name:
                return accessor
        raise KeyError(f"kernel {self.name!r} has no accessor for {image_name!r}")

    @cached_property
    def window_radius(self) -> Tuple[int, int]:
        """``(rx, ry)`` read-window radius over all inputs.

        Read on first use: the fusion model reads it hundreds of times a
        partition, while a build that restores its partition never does,
        so the constructor does not pay for it."""
        return reads_extent(self._reads_cache)

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

    @cached_property
    def op_counts(self) -> OpCounts:
        """ALU / SFU operation counts of the body (feeds Eq. 6): the
        CSE-aware count walks the whole (possibly large, fused) tree."""
        return count_ops(self.body)

    @cached_property
    def param_names(self) -> Set[str]:
        """Runtime scalar parameters referenced by the body — read off
        the value-numbered :attr:`body_signature`, where each appears
        once however often the tree repeats it."""
        return {node[1] for node in self.body_signature if node[0] == "param"}

    @cached_property
    def body_signature(self) -> ExprSig:
        """:func:`~repro.ir.signature.expr_signature` of the body: the
        body half of both structural signatures, and what the tape
        compiler (:mod:`repro.backend.plan`) evaluates a member from.  A
        builder that already holds it may set it."""
        return expr_signature(self.body)

    @property
    def block_shape(self) -> Tuple[int, int]:
        return self._block_shape

    @property
    def force_no_shared_memory(self) -> bool:
        return self._force_no_shared_memory

    def with_header(
        self,
        block_shape: Tuple[int, int] | None = None,
        force_no_shared_memory: bool | None = None,
    ) -> "Kernel":
        """A copy of this kernel under another header (``None`` keeps a
        field): it keeps what was derived from the body and drops what
        was derived from the header."""
        clone = copy.copy(self)
        for name in _HEADER_DERIVED:
            clone.__dict__.pop(name, None)
        if block_shape is not None:
            clone._block_shape = tuple(block_shape)
        if force_no_shared_memory is not None:
            clone._force_no_shared_memory = force_no_shared_memory
        return clone

    def _signature(self, tag: str, image_identity: Callable[[Image], tuple]) -> tuple:
        """The one builder of both kernel signatures: every image enters
        through ``image_identity``."""
        return (
            tag,
            self.name,
            image_identity(self.output),
            tuple(
                (
                    image_identity(a.image),
                    a.boundary.mode.value,
                    float(a.boundary.constant),
                )
                for a in self.accessors
            ),
            self.reduction.value if self.reduction else None,
            self.granularity,
            self._block_shape,
            self._force_no_shared_memory,
            self.body_signature,
        )

    @cached_property
    def _structural(self) -> tuple:
        return self._signature("kernel", _image_signature)

    @cached_property
    def _structure(self) -> tuple:
        return self._signature("kernel-structure", _image_structure)

    def structural_signature(self) -> tuple:
        """A hashable signature of everything execution depends on.

        Two kernels built separately by the same construction code have
        equal signatures; any change to the body (constants, operators,
        offsets), the header (spaces, granularity, block shape), the
        boundary handling, or the reduction kind changes it.  The
        serving runtime's plan cache keys on the pipeline-level
        aggregate of these (:meth:`repro.graph.dag.KernelGraph.structural_signature`).
        """
        return self._structural

    def structure_signature(self) -> tuple:
        """:meth:`structural_signature` with the image geometry elided.

        Two kernels that differ only in iteration-space width/height —
        the same construction code run at different resolutions — have
        equal structure signatures; channels, element sizes, bodies,
        boundaries, and headers still distinguish.  This is the kernel
        half of :meth:`repro.graph.dag.KernelGraph.structure_signature`.
        """
        return self._structure

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
