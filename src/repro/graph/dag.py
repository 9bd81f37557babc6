"""The kernel dependence DAG.

:class:`KernelGraph` stores kernels keyed by name and the data-dependence
edges between them.  Each edge is labelled with the image flowing across
it and (after benefit estimation) carries a positive weight — the number
of execution cycles saved by fusing its endpoints (Section II-C).

The graph also records which images are pipeline inputs (produced by no
kernel) and which kernel outputs are pipeline outputs (live past the
pipeline); the legality analysis needs both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Set,
    Tuple,
)

from repro.dsl.kernel import header_epoch
from repro.ir.signature import canonical_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dsl.kernel import Kernel


class GraphError(ValueError):
    """Raised for malformed graphs (cycles, duplicate producers, ...)."""


@dataclass(frozen=True)
class Edge:
    """A data-dependence edge: ``dst`` consumes ``src``'s output image.

    ``weight`` is assigned by the benefit model; ``None`` means "not yet
    estimated".  Edges compare by endpoints and image so that a graph
    with re-weighted edges still identifies the same dependences.
    """

    src: str
    dst: str
    image: str
    weight: float | None = field(default=None, compare=False)

    def weighted(self, weight: float) -> "Edge":
        """A copy of this edge carrying ``weight``."""
        return replace(self, weight=weight)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.src, self.dst)


class KernelGraph:
    """A DAG of kernels with labelled, weighted edges.

    Vertices are addressed by kernel name throughout the fusion
    machinery — names are unique per pipeline and cheap to hash, while
    :class:`~repro.dsl.kernel.Kernel` objects stay the single source of
    truth for bodies and headers.
    """

    def __init__(
        self,
        kernels: Iterable["Kernel"],
        external_outputs: Iterable[str] = (),
        declared_domains: "Mapping[str, object] | None" = None,
    ):
        #: Declared value domains, image name -> domain (anything the
        #: value-range analysis accepts: a ``VRange``, an ``(lo, hi)``
        #: tuple, or a scalar).  Purely advisory — they seed
        #: :func:`repro.analysis.dataflow.analyze_graph` and never enter
        #: :meth:`structural_signature`, so the serving plan cache and
        #: the native artifact cache are oblivious to them.
        self.declared_domains: Dict[str, object] = dict(declared_domains or {})
        self._kernels: Dict[str, "Kernel"] = {}
        producers: Dict[str, str] = {}
        for kernel in kernels:
            if kernel.name in self._kernels:
                raise GraphError(f"duplicate kernel name {kernel.name!r}")
            if kernel.output.name in producers:
                raise GraphError(
                    f"image {kernel.output.name!r} produced by both "
                    f"{producers[kernel.output.name]!r} and {kernel.name!r}"
                )
            self._kernels[kernel.name] = kernel
            producers[kernel.output.name] = kernel.name
        self._producer_of_image = producers

        self._edges: List[Edge] = []
        edge_keys: Set[Tuple[str, str, str]] = set()
        for kernel in self._kernels.values():
            for image in kernel.input_images:
                producer = producers.get(image.name)
                if producer is None:
                    continue  # pipeline input
                if producer == kernel.name:
                    # Kernel.__init__ already rejects this; keep a clear
                    # message for graphs assembled from hand-built
                    # kernels rather than a one-vertex "cycle" report.
                    raise GraphError(
                        f"kernel {kernel.name!r} reads its own output "
                        f"image {image.name!r}"
                    )
                key = (producer, kernel.name, image.name)
                if key not in edge_keys:
                    edge_keys.add(key)
                    self._edges.append(Edge(producer, kernel.name, image.name))

        declared = set(external_outputs)
        unknown = declared - set(producers)
        if unknown:
            raise GraphError(
                f"external outputs {sorted(unknown)} are produced by no kernel"
            )
        # Sink outputs are always external: nothing else observes them.
        consumed = {e.image for e in self._edges}
        sinks = {k.output.name for k in self._kernels.values()} - consumed
        self._external_outputs: FrozenSet[str] = frozenset(declared | sinks)

        self._topo_order = self._topological_sort()
        #: Image name -> the kernels reading it (:meth:`consumers_of`).
        self._readers: Dict[str, Tuple[str, ...]] | None = None

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._kernels)

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def __iter__(self) -> Iterator[str]:
        return iter(self._topo_order)

    @property
    def kernel_names(self) -> Tuple[str, ...]:
        """Kernel names in topological order."""
        return self._topo_order

    def kernel(self, name: str) -> "Kernel":
        return self._kernels[name]

    def kernels(self) -> Tuple["Kernel", ...]:
        """All kernels in topological order."""
        return tuple(self._kernels[name] for name in self._topo_order)

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(self._edges)

    def edge(self, src: str, dst: str) -> Edge:
        """The edge from ``src`` to ``dst`` (KeyError if absent)."""
        for e in self._edges:
            if e.src == src and e.dst == dst:
                return e
        raise KeyError(f"no edge {src!r} -> {dst!r}")

    def has_edge(self, src: str, dst: str) -> bool:
        return any(e.src == src and e.dst == dst for e in self._edges)

    @property
    def external_outputs(self) -> FrozenSet[str]:
        """Image names whose contents must survive the pipeline."""
        return self._external_outputs

    def producer_of(self, image_name: str) -> str | None:
        """The kernel producing ``image_name``; None for pipeline inputs."""
        return self._producer_of_image.get(image_name)

    def consumers_of(self, image_name: str) -> Tuple[str, ...]:
        """Kernels reading ``image_name`` (by name, topological order).

        A lookup in the graph's image → readers index, which the first
        call builds in one pass over the kernels' ``input_names`` and
        every later call shares (the structure is immutable).
        """
        readers = self._readers
        if readers is None:
            index: Dict[str, List[str]] = {}
            for name in self._topo_order:
                for image in self._kernels[name].input_names:
                    index.setdefault(image, []).append(name)
            readers = self._readers = {
                image: tuple(names) for image, names in index.items()
            }
        return readers.get(image_name, ())

    def pipeline_inputs(self) -> Tuple[str, ...]:
        """Image names read by some kernel but produced by none."""
        seen: Set[str] = set()
        ordered: List[str] = []
        for name in self._topo_order:
            for image in self._kernels[name].input_names:
                if image not in self._producer_of_image and image not in seen:
                    seen.add(image)
                    ordered.append(image)
        return tuple(ordered)

    def predecessors(self, name: str) -> Tuple[str, ...]:
        preds = {e.src for e in self._edges if e.dst == name}
        return tuple(n for n in self._topo_order if n in preds)

    def successors(self, name: str) -> Tuple[str, ...]:
        succs = {e.dst for e in self._edges if e.src == name}
        return tuple(n for n in self._topo_order if n in succs)

    def _headers(self) -> tuple:
        """Every kernel's :meth:`~repro.dsl.kernel.Kernel.header_settings`,
        in topological order: the part of the graph's structure that may
        change after construction."""
        kernels = self._kernels
        return tuple(kernels[name].header_settings() for name in self._topo_order)

    def _digest(self, attribute: str, kernel_signature: str) -> str:
        """One of the two digests, cached under
        :func:`~repro.dsl.kernel.header_epoch` and, once that has moved,
        re-taken only if this graph's own headers changed."""
        epoch = header_epoch()
        cached = self.__dict__.get(attribute)
        if cached is not None and cached[0] == epoch:
            return cached[2]
        headers = self._headers()
        if cached is not None and cached[1] == headers:
            digest = cached[2]
        else:
            digest = canonical_digest(
                (
                    tuple(
                        getattr(self._kernels[name], kernel_signature)()
                        for name in self._topo_order
                    ),
                    tuple(sorted((e.src, e.dst, e.image) for e in self._edges)),
                    tuple(sorted(self._external_outputs)),
                )
            )
        setattr(self, attribute, (epoch, headers, digest))
        return digest

    def structural_signature(self) -> str:
        """A stable hex digest of the graph's structure.

        Covers every kernel signature (in topological order), the edge
        set, and the external outputs — everything plan compilation and
        execution semantics depend on — while ignoring object identity
        and edge *weights* (weights belong to the fusion configuration,
        which plan caches key separately).  Two graphs built separately
        by the same pipeline code hash identically, which is what lets
        the serving runtime's plan cache (:mod:`repro.serve.plancache`)
        reuse compiled plans across requests and sessions: the digest is
        :func:`~repro.ir.signature.canonical_digest`, so it does not
        depend on how names were built, on object sharing or on the
        process's hash seed.  A kernel re-shaped after the digest was
        taken is signed afresh (:meth:`_digest`).
        """
        return self._digest("_signature_cache", "structural_signature")

    def structure_signature(self) -> str:
        """:meth:`structural_signature` with image geometry elided.

        Two graphs built by the same pipeline code at *different
        resolutions* hash identically here (while any change to kernel
        bodies, boundaries, channels, edges, or outputs still misses) —
        the identity under which the plan cache tells a *shape* miss (a
        known pipeline at a new geometry, compiled at that geometry)
        from a *structure* miss.
        """
        return self._digest("_structure_sig_cache", "structure_signature")

    @property
    def total_weight(self) -> float:
        """The paper's ``w_G``: sum of all edge weights (Eq. 13)."""
        missing = [e for e in self._edges if e.weight is None]
        if missing:
            raise GraphError(
                f"{len(missing)} edges have no weight; run benefit "
                "estimation first"
            )
        return sum(e.weight for e in self._edges)

    # -- mutation (weights only — structure is immutable) -------------------

    def with_weights(self, weights: Dict[Tuple[str, str], float]) -> "KernelGraph":
        """A structurally identical graph with the given edge weights.

        ``weights`` maps ``(src, dst)`` to the estimated fusion benefit.
        Every edge must receive a weight, and weights must be positive —
        the Stoer–Wagner invariants of Algorithm 1 require it.
        """
        new = KernelGraph.__new__(KernelGraph)
        new._kernels = self._kernels
        new._producer_of_image = self._producer_of_image
        new._external_outputs = self._external_outputs
        new._topo_order = self._topo_order
        new._readers = self._readers
        new_edges = []
        for e in self._edges:
            if e.key not in weights:
                raise GraphError(f"missing weight for edge {e.src!r}->{e.dst!r}")
            weight = weights[e.key]
            if weight <= 0:
                raise GraphError(
                    f"edge weight must be positive, got {weight} for "
                    f"{e.src!r}->{e.dst!r}"
                )
            new_edges.append(e.weighted(weight))
        new._edges = new_edges
        return new

    # -- structure ----------------------------------------------------------

    def _topological_sort(self) -> Tuple[str, ...]:
        """Kahn's algorithm; raises :class:`GraphError` on cycles.

        Ties are broken by kernel insertion order so that the whole
        toolchain (min-cut starting vertex, trace output, codegen order)
        is deterministic.
        """
        insertion = {name: i for i, name in enumerate(self._kernels)}
        indegree = {name: 0 for name in self._kernels}
        for e in self._edges:
            indegree[e.dst] += 1
        ready = sorted(
            (name for name, deg in indegree.items() if deg == 0),
            key=insertion.__getitem__,
        )
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            changed = False
            for e in self._edges:
                if e.src == name:
                    indegree[e.dst] -= 1
                    if indegree[e.dst] == 0:
                        ready.append(e.dst)
                        changed = True
            if changed:
                ready.sort(key=insertion.__getitem__)
        if len(order) != len(self._kernels):
            stuck = sorted(set(self._kernels) - set(order))
            raise GraphError(f"dependence cycle involving {stuck}")
        return tuple(order)

    def induced_edges(self, vertices: Set[str]) -> Tuple[Edge, ...]:
        """Edges with both endpoints inside ``vertices``."""
        return tuple(
            e for e in self._edges if e.src in vertices and e.dst in vertices
        )

    def is_connected(self, vertices: Set[str]) -> bool:
        """Weak connectivity of the induced subgraph."""
        if not vertices:
            return True
        adjacency: Dict[str, Set[str]] = {v: set() for v in vertices}
        for e in self.induced_edges(vertices):
            adjacency[e.src].add(e.dst)
            adjacency[e.dst].add(e.src)
        start = next(iter(sorted(vertices)))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen == set(vertices)

    def __repr__(self) -> str:
        return (
            f"KernelGraph({len(self._kernels)} kernels, "
            f"{len(self._edges)} edges)"
        )
