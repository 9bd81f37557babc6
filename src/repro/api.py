"""The canonical execution API: one entry point, one options object.

>>> from repro.api import ExecutionOptions, run
>>> env = run(graph, {"src": image})                      # fuse + tape
>>> env = run(graph, {"src": image},
...           options=ExecutionOptions(engine="native"))  # compiled C
>>> env = run("Harris", {"src": image})                   # by app name
>>> env = run(graph, {"src": image}, options=ExecutionOptions(
...     fusion=FusionSettings(version="basic", gpu_name="K20c")))

:func:`run` is the one way to execute a pipeline, and :func:`run_block`
runs one block through it.  :class:`ExecutionOptions` carries
everything that shapes a call: the execution engine, intra-request
parallelism, an optional
:class:`~repro.serve.runtime.ServingRuntime` to route through, a
per-call validation level, the fusion configuration — one
:class:`~repro.serve.plancache.FusionSettings` (version / GPU model /
benefit constants / border handling) — or an explicit
:class:`~repro.graph.partition.Partition`, and an optional
:class:`~repro.serve.resilience.ResiliencePolicy` whose degradation
ladder also protects direct (non-serving) execution.

Which engines exist, the order they degrade in, and what an engine that
is unavailable on this host resolves to are decided in one place,
:mod:`repro.backend.engines`.  What one request does is the same at
both doors — key (:func:`~repro.serve.plancache.plan_key`) → plan-cache
lookup → on a miss the staged
:func:`~repro.serve.plancache.build_plan` → ``.execute`` on the entry:
a direct call uses the process-wide cache, a serving runtime its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.backend import engines
from repro.backend.cpu_exec import cache_directory
from repro.backend.numpy_exec import (
    Arrays,
    ExecutionError,
    Params,
    _execute_block_recursive,
)
from repro.backend.plan import memo
from repro.envknobs import (
    VALIDATE_MODES,
    NativeLowering,
    native_lowering,
    validate_override,
)
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.serve.plancache import (
    PROCESS_CACHE,
    FusionSettings,
    build_plan,
    plan_key,
    validate_plan,
)
from repro.serve.registry import default_registry
from repro.serve.runtime import ServingRuntime

__all__ = ["ExecutionOptions", "FusionSettings", "run", "run_block"]

#: The fusion a direct call without ``fusion=`` runs under.
_DEFAULT_FUSION = FusionSettings()


@dataclass(frozen=True)
class ExecutionOptions:
    """Everything that shapes one execution, in one immutable object.

    Parameters
    ----------
    engine:
        A name from :data:`repro.backend.engines.ENGINE_NAMES`
        (``"native"`` / ``"tape"`` / ``"recursive"``); ``None`` defers
        to ``REPRO_EXEC_ENGINE`` (default tape).  An engine that is
        unavailable on this host — native without a C compiler —
        resolves to the next one in the table.
    workers:
        Parallelism across independent blocks within the call
        (``None`` defers to ``REPRO_EXEC_WORKERS``) — tape plans only:
        the native engine parallelises inside each kernel.
    runtime:
        A :class:`~repro.serve.runtime.ServingRuntime` to route the
        call through — its own plan cache, scheduler, and the
        serving resilience layer apply.  The runtime serves the call
        on its own engine, workers, validation and resilience, so an
        explicit ``workers``, ``validate`` or ``resilience``, or an
        ``engine`` other than the one the runtime was asked for, raises
        :class:`ExecutionError` instead of being ignored, and so does a
        ``runtime`` that is not a ``ServingRuntime``.  A pipeline name
        resolves against the runtime's registry.
    validate:
        Per-call validation level (``"off"`` / ``"standard"`` /
        ``"strict"``) scoped over the call via
        :func:`repro.envknobs.validate_override`; ``None`` leaves the
        ``REPRO_VALIDATE`` environment level in force.
    fuse:
        With no explicit ``partition``: ``True`` fuses the graph under
        the fusion configuration below, ``False`` runs staged
        (unfused) semantics — every kernel separately.
    partition:
        An explicit fusion partition to execute; overrides ``fuse``.
    fusion:
        A :class:`~repro.serve.plancache.FusionSettings`: the fusion
        version (``baseline`` … ``exhaustive``), the GPU model feeding
        the benefit estimate, the benefit-model constants — used when
        ``fuse=True`` and no partition is given — and ``naive_borders``,
        which reproduces the border-incorrect single-stage composition
        (Fig. 4b) whatever the partition.  ``None`` is
        ``FusionSettings()`` for a direct call and the runtime's own
        settings through a runtime; a given one applies at both doors.
    resilience:
        A :class:`~repro.serve.resilience.ResiliencePolicy`.  For
        direct execution an enabled policy walks the degradation
        ladder from the requested engine on failure.
    """

    engine: Optional[str] = None
    workers: Optional[int] = None
    runtime: Optional[ServingRuntime] = None
    validate: Optional[str] = None
    fuse: bool = True
    partition: Optional[Partition] = None
    fusion: Optional[FusionSettings] = None
    resilience: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            engines.requested(self.engine)
        if self.validate is not None and self.validate not in VALIDATE_MODES:
            raise ExecutionError(
                f"unknown validation level {self.validate!r}; "
                f"expected one of {VALIDATE_MODES}"
            )


def run(
    pipeline: Union[KernelGraph, str],
    inputs: Arrays,
    params: Params | None = None,
    *,
    options: ExecutionOptions | None = None,
) -> Arrays:
    """Run a pipeline: the one entry point every path dispatches through.

    ``pipeline`` is a built :class:`~repro.graph.dag.KernelGraph` or
    the name of a registered paper app (``"Harris"``, ``"Canny"``, …);
    names resolve against ``options.runtime``'s registry when routing
    through a serving runtime, otherwise against the default registry
    at the geometry inferred from ``inputs``.  Returns the environment
    mapping image names to arrays: the inputs and the graph's external
    outputs when the fusion model chose the partition, every block's
    image too when the caller gave it (``partition=``, ``fuse=False``).
    The arrays are identical, bit for bit, on every engine, except that
    a native plan calling a libm function other than ``sqrt`` /
    ``rsqrt`` (Enhance's ``exp`` / ``log`` / ``pow``) agrees with the
    tape only within the pinned 1e-12 of
    :func:`repro.backend.native_exec.tolerance_for`.

    A cold ``engine="native"`` call may be answered by the tape
    (:func:`~repro.serve.plancache.native_strategy`): under strict
    always, when no plan record binds a library, and then the call
    lowers no C — it fuses, plans, verifies and runs the tape; under
    ``standard`` / ``off`` when ``cc`` would run and the tape is
    predicted to answer first.  The call returns the tape plan's
    result — the same bits, or for Enhance the same within that 1e-12 —
    while the native plan is lowered (unless the call did) and compiled
    in the background, and serves the calls after it is ready.  The
    compile cache directory (``REPRO_CC_CACHE``) is resolved once per
    call, and that background build writes there.
    """
    opts = options or ExecutionOptions()
    runtime = opts.runtime
    if runtime is not None:
        _refuse_what_the_runtime_ignores(opts)
    if isinstance(pipeline, str):
        registry = runtime.registry if runtime is not None else _default_registry()
        graph, params = registry.get(pipeline).bind(inputs, params)
    elif isinstance(pipeline, KernelGraph):
        graph = pipeline
    else:
        raise ExecutionError(
            f"cannot run a {type(pipeline).__name__}; expected a "
            "KernelGraph or a registered pipeline name"
        )
    partition = opts.partition
    if partition is None and not opts.fuse:
        partition = Partition.singletons(graph)
    if runtime is not None:
        return runtime.execute_graph(
            graph, inputs, params, partition, fusion=opts.fusion
        )
    fusion = opts.fusion or _DEFAULT_FUSION
    lowering = native_lowering()
    engine = engines.resolve(opts.engine)
    # Under a resilience policy a failed build or execute hands the
    # request down the ladder — every rung computes the same bits — the
    # serving runtime's availability contract, for direct callers.
    degrade = getattr(opts.resilience, "degradation", False)
    rungs = engines.ladder_from(engine.name) if degrade else (engine,)
    with validate_override(opts.validate), cache_directory():
        for rung in rungs:
            try:
                return _run_rung(
                    graph, inputs, params, opts.workers, partition, rung.name,
                    fusion, lowering,
                )
            except Exception:
                if rung is rungs[-1]:
                    raise


def _refuse_what_the_runtime_ignores(opts: ExecutionOptions) -> None:
    """Raise on a runtime that is not a ``ServingRuntime``, or naming
    the first field a routed call would drop: the runtime serves on the
    engine it was asked for, with its own workers, validation level and
    resilience policy."""
    runtime = opts.runtime
    if not isinstance(runtime, ServingRuntime):
        raise ExecutionError(
            f"ExecutionOptions.runtime must be a ServingRuntime, not a "
            f"{type(runtime).__name__}"
        )
    engine = runtime.requested_engine
    if opts.engine is not None and opts.engine != engine:
        raise ExecutionError(
            f"ExecutionOptions.engine={opts.engine!r} cannot apply through "
            f"a runtime that serves {engine!r}"
        )
    for field in ("workers", "validate", "resilience"):
        if getattr(opts, field) is not None:
            raise ExecutionError(
                f"ExecutionOptions.{field} cannot apply through a runtime, "
                "which uses its own; leave it unset"
            )


def run_block(
    graph: KernelGraph,
    block: PartitionBlock,
    arrays: Arrays,
    params: Params | None = None,
    *,
    options: ExecutionOptions | None = None,
    call_counter: Dict[str, int] | None = None,
) -> np.ndarray:
    """Run one partition block with fused-kernel semantics; returns
    the destination's image.

    A fused block is a kernel whose signature is the block's external
    inputs and its destination's output (Listing 1b), so this is
    :func:`run` on the block's own kernels as a one-block partition:
    engine, runtime, validation, resilience, the plan cache and the plan
    record apply exactly as they do to a pipeline.  The block's graph is
    memoized on ``graph``.

    ``call_counter`` (when given) is filled with per-kernel
    re-evaluation counts by the recursive block walk — the counts
    instrument *its* evaluation order (the tape engine deduplicates
    producer evaluations by grid).
    """
    opts = options or ExecutionOptions()
    if call_counter is not None:
        naive = opts.fusion is not None and opts.fusion.naive_borders
        return _execute_block_recursive(
            graph, block, arrays, params, naive, call_counter=call_counter
        )
    own, partition, output = memo(
        graph, ("block", block.signature()), lambda: _block_graph(graph, block)
    )
    inputs = {
        name: arrays[name] for name in own.pipeline_inputs() if name in arrays
    }
    env = run(own, inputs, params, options=replace(opts, partition=partition))
    return env[output]


def _block_graph(graph: KernelGraph, block: PartitionBlock) -> tuple:
    """``(graph, partition, image)``: ``block`` as a pipeline of its own,
    that pipeline's one-block partition, and the destination's image.
    Legality is the parent's: a member output read outside the block is
    a second destination."""
    destinations = block.destination_kernels()
    if len(destinations) != 1:
        raise ExecutionError(
            f"block {sorted(block.vertices)} has no unique destination"
        )
    own = KernelGraph(
        [graph.kernel(name) for name in block.ordered_vertices()]
    )
    partition = Partition(own, [PartitionBlock(own, own.kernel_names)])
    return own, partition, graph.kernel(destinations[0]).output.name


#: The registry bare names resolve against — built once, so an entry's
#: per-geometry graph memo survives from call to call.
_default_registry = lru_cache(maxsize=None)(default_registry)


def _run_rung(
    graph: KernelGraph,
    inputs: Arrays,
    params: Params | None,
    workers: Optional[int],
    partition: Partition | None,
    engine: str,
    fusion: FusionSettings,
    lowering: NativeLowering,
) -> Arrays:
    """One request on one engine: key (with the ``lowering`` the door
    resolved) → :data:`PROCESS_CACHE` lookup →
    :func:`build_plan` on a miss, which may answer a native miss on the
    tape (``tiering``) → :meth:`CachedPlan.execute` (which also
    re-fuses a hot entry).  An entry whose execute raised is
    dropped, as serving's quarantine does, so it is never served
    again."""
    key = plan_key(
        graph.structural_signature(), inputs, engine, fusion, partition, lowering
    )
    entry, hit = PROCESS_CACHE.get_or_build(
        key,
        lambda: build_plan(
            graph, key=key, partition=partition, fusion=fusion, engine=engine,
            tiering=True,
        ),
    )
    if hit:
        validate_plan(entry)
    try:
        return entry.execute(inputs, params, workers)
    except Exception:
        PROCESS_CACHE.quarantine(key)
        raise
