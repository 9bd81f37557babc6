"""The pipeline registry: named, geometry-generic pipeline builders.

A serving process registers each pipeline **once** under a stable name
and thereafter addresses it by name per request.  Builders are
geometry-generic (``build(width, height) -> Pipeline``), matching the
application modules (:mod:`repro.apps`): a request's geometry is
inferred from the arrays it binds, so one registered pipeline serves
any image size, and each distinct geometry compiles exactly one plan
(the plan cache keys on the built graph's structural signature, which
embeds the geometry).

Built graphs are memoized per ``(name, width, height)`` under a lock —
building and signing a graph is cheap but not free, and the registry
sits on the per-request hot path.  The memo is an LRU as large as a
default plan cache: a graph owns the plans compiled from it, so an
unbounded memo would pin every plan mixed-resolution traffic ever built.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from repro.backend.numpy_exec import Arrays, ExecutionError, Params
from repro.dsl.pipeline import Pipeline
from repro.graph.dag import KernelGraph
from repro.serve.plancache import DEFAULT_CAPACITY

__all__ = [
    "DEFAULT_APP_PARAMS",
    "GeometryError",
    "PipelineEntry",
    "PipelineRegistry",
    "RegistryError",
    "default_registry",
]


class RegistryError(KeyError):
    """Raised for unknown or duplicate pipeline names."""


class GeometryError(ExecutionError, ValueError):
    """A named request whose bound arrays disagree on (height, width).
    Both bases are load-bearing: :func:`repro.api.run` callers catch
    :class:`ExecutionError`, serving callers :class:`ValueError`."""


@dataclass
class PipelineEntry:
    """One registered pipeline: a named builder plus default geometry.

    ``params`` are the pipeline's default scalar-parameter bindings
    (e.g. the enhancement app's ``gamma``); per-request parameters are
    merged on top, so a request only names what it overrides.
    """

    name: str
    build: Callable[[int, int], Pipeline]
    width: int
    height: int
    channels: int = 1
    params: Dict[str, float] = field(default_factory=dict)
    _graphs: "OrderedDict[Tuple[int, int], KernelGraph]" = field(
        default_factory=OrderedDict, repr=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def graph(self, width: int | None = None, height: int | None = None) -> KernelGraph:
        """The dependence DAG at the given (or default) geometry, memoized.

        Memoization also pins the graph object and, with it, the plans
        and grid store the graph owns — a serving process does not
        recompile any of its :data:`DEFAULT_CAPACITY` most recently
        used geometries.  An older one is rebuilt on its next request;
        whatever was compiled from it goes when the plan caches let go.
        """
        key = (width or self.width, height or self.height)
        with self._lock:
            graph = self._graphs.get(key)
            if graph is None:
                graph = self._graphs[key] = self.build(*key).build()
                if len(self._graphs) > DEFAULT_CAPACITY:
                    self._graphs.popitem(last=False)
            else:
                self._graphs.move_to_end(key)
            return graph

    def bind(
        self, inputs: Arrays, params: Params | None = None
    ) -> Tuple[KernelGraph, Params]:
        """What one named request executes: the graph at the geometry
        of the bound arrays (they must agree) and the entry's default
        parameters with the request's merged on top."""
        geometries = {np.shape(a)[:2] for a in inputs.values()}
        if len(geometries) != 1:
            raise GeometryError(
                f"cannot infer request geometry from input shapes {geometries}"
            )
        height, width = geometries.pop()
        return self.graph(width, height), {**self.params, **(params or {})}


class PipelineRegistry:
    """Named pipelines available to the serving runtime."""

    def __init__(self) -> None:
        self._entries: Dict[str, PipelineEntry] = {}
        self._lock = threading.Lock()

    def register(
        self,
        name: str,
        build: Callable[[int, int], Pipeline],
        width: int,
        height: int,
        channels: int = 1,
        params: Dict[str, float] | None = None,
    ) -> PipelineEntry:
        """Register a pipeline builder under ``name``.

        Re-registering an existing name is an error — silent
        redefinition under live traffic would be a footgun; deregister
        first if hot-swapping is really intended.
        """
        entry = PipelineEntry(
            name, build, width, height, channels, dict(params or {})
        )
        with self._lock:
            if name in self._entries:
                raise RegistryError(f"pipeline {name!r} already registered")
            self._entries[name] = entry
        return entry

    def deregister(self, name: str) -> None:
        with self._lock:
            if name not in self._entries:
                raise RegistryError(f"unknown pipeline {name!r}")
            del self._entries[name]

    def get(self, name: str) -> PipelineEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            known = ", ".join(sorted(self._entries)) or "<none>"
            raise RegistryError(f"unknown pipeline {name!r}; known: {known}")
        return entry

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def default_registry(
    include_extensions: bool = False,
    apps: Iterable[str] | None = None,
) -> PipelineRegistry:
    """A registry pre-loaded with the paper's six applications.

    ``include_extensions`` adds the extension apps (Canny, DoG);
    ``apps`` restricts to a subset by name.  Apps with scalar runtime
    parameters get the default bindings their example programs use, so
    a bare request is always executable.
    """
    from repro.apps import ALL_APPS, APPLICATIONS

    registry = PipelineRegistry()
    pool = ALL_APPS if include_extensions else APPLICATIONS
    for name, spec in pool.items():
        if apps is not None and name not in apps:
            continue
        registry.register(
            name,
            spec.build,
            spec.width,
            spec.height,
            spec.channels,
            params=DEFAULT_APP_PARAMS.get(name),
        )
    return registry


#: Default scalar-parameter bindings per application — the values the
#: example programs use (``examples/``), so every registered app serves
#: without a request-supplied parameter set.
DEFAULT_APP_PARAMS: Dict[str, Dict[str, float]] = {
    "Enhance": {"gamma": 0.8},
    "Canny": {"threshold": 400.0},
    "DoG": {"tau": 4.0},
}
