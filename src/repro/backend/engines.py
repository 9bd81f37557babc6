"""The engine table: which engines exist, in what order, what each builds.

One ordered tuple, fastest first.  Its order *is* the degradation
ladder: an engine that is unavailable on this host, or that fails under
a resilience policy, hands the request to the entry after it — every
entry computes the same result, so that costs time, never correctness.
:func:`repro.api.run` (and through it :func:`repro.api.run_block`),
:class:`repro.serve.runtime.ServingRuntime` and
:func:`repro.serve.resilience.ladder_from` all read this object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Tuple

from repro.backend import native_exec
from repro.backend.numpy_exec import (
    ExecutionError,
    _execute_partitioned_recursive,
)
from repro.backend.plan import plan_for_partition
from repro.envknobs import choice_env


class UnknownEngineError(ExecutionError, ValueError):
    """An engine name outside the table.  Both bases are load-bearing:
    ``ExecutionOptions`` callers catch :class:`ExecutionError`,
    ``ServingRuntime`` and ``ladder_from`` callers :class:`ValueError`."""


@dataclass(frozen=True)
class Engine:
    """One entry: ``plan_partition(graph, partition, naive_borders)``
    builds an object whose ``.execute(inputs, params, workers)`` runs
    it."""

    name: str
    available: Callable[[], bool]
    plan_partition: Callable[..., Any]


@dataclass(frozen=True)
class _Walk:
    """The recursive oracle walk in plan clothing (nothing is compiled:
    the walk interprets the graph on every call)."""

    graph: Any
    partition: Any
    naive_borders: bool = False

    def execute(self, inputs, params=None, workers=None):
        return _execute_partitioned_recursive(
            self.graph, self.partition, inputs, params, self.naive_borders
        )


#: Every executing engine, fastest first.
ENGINES: Tuple[Engine, ...] = (
    Engine(
        "native",
        # Late-bound through the module attribute: suites fake a
        # compiler-less host by patching ``native_exec.native_available``.
        lambda: native_exec.native_available(),
        native_exec.native_plan_for_partition,
    ),
    Engine("tape", lambda: True, plan_for_partition),
    Engine("recursive", lambda: True, _Walk),
)

ENGINE_NAMES: Tuple[str, ...] = tuple(engine.name for engine in ENGINES)

#: The reference every differential test compares against.
ORACLE: Engine = ENGINES[-1]

#: Default engine; override per call (``ExecutionOptions.engine``) or
#: globally with the ``REPRO_EXEC_ENGINE`` environment variable.
DEFAULT_ENGINE = "tape"
ENGINE_ENV = "REPRO_EXEC_ENGINE"

_INDEX = {name: index for index, name in enumerate(ENGINE_NAMES)}


def requested(name: str | None = None) -> str:
    """The engine a caller asked for, before availability: ``name``,
    else ``REPRO_EXEC_ENGINE``, else tape.  A bad environment value
    raises ``EnvKnobError`` naming the variable; a bad explicit name
    :class:`UnknownEngineError` — the caller passed it, not the
    environment."""
    if name is None:
        return choice_env(ENGINE_ENV, ENGINE_NAMES, DEFAULT_ENGINE)
    if name not in _INDEX:
        raise UnknownEngineError(
            f"unknown execution engine {name!r}; "
            f"expected one of {ENGINE_NAMES}"
        )
    return name


def ladder_from(name: str | None = None) -> Tuple[Engine, ...]:
    """The table from ``name`` down: the rungs a request may be served on."""
    return ENGINES[_INDEX[requested(name)]:]


def resolve(name: str | None = None) -> Engine:
    """The engine that serves a request for ``name`` on this host: the
    first available rung of its ladder (the last rung always is)."""
    return next(engine for engine in ladder_from(name) if engine.available())
