"""The canonical execution API: one entry point, one options object.

>>> from repro.api import ExecutionOptions, run
>>> env = run(graph, {"src": image})                      # fuse + tape
>>> env = run(graph, {"src": image},
...           options=ExecutionOptions(engine="native"))  # compiled C
>>> env = run("Harris", {"src": image})                   # by app name

:func:`run` and :func:`run_block` are the only ways to execute a
pipeline.  :class:`ExecutionOptions` carries everything that shapes a
call: the execution engine, intra-request parallelism, an optional
:class:`~repro.serve.runtime.ServingRuntime` to route through, a
per-call validation level, the fusion configuration (version / GPU
model / benefit constants) or an explicit
:class:`~repro.graph.partition.Partition`, and an optional
:class:`~repro.serve.resilience.ResiliencePolicy` whose degradation
ladder also protects direct (non-serving) execution.

Which engines exist, the order they degrade in, and what an engine that
is unavailable on this host resolves to are decided in one place,
:mod:`repro.backend.engines`; this module looks the engine up there and
calls ``.execute`` on the plan it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.backend import engines
from repro.backend.numpy_exec import Arrays, ExecutionError, Params
from repro.envknobs import VALIDATE_MODES, validate_override
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.model.benefit import BenefitConfig
from repro.model.hardware import KNOWN_GPUS, GpuSpec

__all__ = ["ExecutionOptions", "run", "run_block"]


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
        (``None`` defers to ``REPRO_EXEC_WORKERS``).
    runtime:
        A :class:`~repro.serve.runtime.ServingRuntime` to route the
        call through — plan caching, micro-batching, and the serving
        resilience layer apply; the options' own engine/fusion fields
        are ignored in favour of the runtime's configuration.  A
        :class:`~repro.serve.sharding.ShardedRuntime` also works for
        *named* pipelines (requests fan out over its worker
        processes); ad-hoc graph execution needs the single-process
        runtime, since unregistered graphs do not cross process
        boundaries.
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
    naive_borders:
        ``True`` reproduces the border-incorrect single-stage
        composition (Fig. 4b); ``None``/``False`` is correct fusion.
        ``None`` additionally defers to the runtime's configured
        default when routing through one.
    fusion_version / gpu / benefit:
        The fusion configuration used when ``fuse=True`` and no
        partition is given: algorithm version (``baseline`` …
        ``exhaustive``), the GPU model feeding the benefit estimate,
        and the benefit-model constants.
    resilience:
        A :class:`~repro.serve.resilience.ResiliencePolicy`.  For
        direct execution an enabled policy walks the degradation
        ladder from the requested engine on failure; when constructing
        a runtime (``ServingRuntime.from_options``) it becomes the
        runtime's policy.
    """

    engine: Optional[str] = None
    workers: Optional[int] = None
    runtime: Optional[Any] = None
    validate: Optional[str] = None
    fuse: bool = True
    partition: Optional[Partition] = None
    naive_borders: Optional[bool] = None
    fusion_version: str = "optimized"
    gpu: Union[str, GpuSpec] = "GTX680"
    benefit: Optional[BenefitConfig] = None
    resilience: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            engines.requested(self.engine)
        if self.validate is not None and self.validate not in VALIDATE_MODES:
            raise ExecutionError(
                f"unknown validation level {self.validate!r}; "
                f"expected one of {VALIDATE_MODES}"
            )
        gpu_name = self.gpu if isinstance(self.gpu, str) else self.gpu.name
        if gpu_name not in KNOWN_GPUS:
            known = ", ".join(sorted(KNOWN_GPUS))
            raise ExecutionError(
                f"unknown GPU {gpu_name!r}; known: {known}"
            )

    @property
    def gpu_spec(self) -> GpuSpec:
        return (
            KNOWN_GPUS[self.gpu] if isinstance(self.gpu, str) else self.gpu
        )

    def fusion_settings(self):
        """The equivalent :class:`repro.serve.plancache.FusionSettings`
        (for building a :class:`ServingRuntime` from these options)."""
        from repro.serve.runtime import fusion_settings

        return fusion_settings(
            version=self.fusion_version,
            gpu=self.gpu_spec,
            config=self.benefit,
            naive_borders=bool(self.naive_borders),
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
    mapping surviving image names to arrays — identical, bit for bit,
    on every engine.
    """
    opts = options or ExecutionOptions()
    if opts.runtime is not None:
        if isinstance(pipeline, str):
            return opts.runtime.execute(pipeline, inputs, params)
        partition = opts.partition
        if partition is None and not opts.fuse:
            partition = Partition.singletons(pipeline)
        return opts.runtime.execute_graph(
            pipeline,
            inputs,
            params,
            partition,
            naive_borders=opts.naive_borders,
        )
    graph, params = _resolve_pipeline(pipeline, inputs, params)
    engine = engines.resolve(opts.engine)
    with validate_override(opts.validate):
        if opts.resilience is not None and getattr(
            opts.resilience, "degradation", False
        ):
            return _run_ladder(graph, inputs, params, opts, engine)
        return _run_direct(graph, inputs, params, opts, engine)


def run_block(
    graph: KernelGraph,
    block: PartitionBlock,
    arrays: Arrays,
    params: Params | None = None,
    *,
    options: ExecutionOptions | None = None,
    call_counter: Dict[str, int] | None = None,
) -> np.ndarray:
    """Run one partition block with fused-kernel semantics.

    ``call_counter`` (when given) is filled with per-kernel
    re-evaluation counts and forces the recursive engine — the counts
    instrument *its* evaluation order (the tape engine deduplicates
    producer evaluations by grid).
    """
    opts = options or ExecutionOptions()
    naive = bool(opts.naive_borders)
    with validate_override(opts.validate):
        if call_counter is not None:
            plan = engines.ORACLE.plan_block(graph, block, naive)
            return plan.execute(arrays, params, call_counter=call_counter)
        plan = engines.resolve(opts.engine).plan_block(graph, block, naive)
        return plan.execute(arrays, params)


def _resolve_pipeline(
    pipeline: Union[KernelGraph, str],
    inputs: Arrays,
    params: Params | None,
) -> Tuple[KernelGraph, Params | None]:
    if isinstance(pipeline, KernelGraph):
        return pipeline, params
    if isinstance(pipeline, str):
        from repro.serve.registry import default_registry

        entry = default_registry().get(pipeline)
        geometries = {np.shape(a)[:2] for a in inputs.values()}
        if len(geometries) != 1:
            raise ExecutionError(
                "cannot infer pipeline geometry from input shapes "
                f"{geometries}"
            )
        height, width = geometries.pop()
        merged = dict(entry.params)
        merged.update(params or {})
        return entry.graph(width, height), merged
    raise ExecutionError(
        f"cannot run a {type(pipeline).__name__}; expected a KernelGraph "
        "or a registered pipeline name"
    )


def _partition_of(graph: KernelGraph, opts: ExecutionOptions) -> Partition:
    """The partition one call executes: explicit, fused, or singletons."""
    if opts.partition is not None:
        return opts.partition
    if not opts.fuse:
        return Partition.singletons(graph)
    from repro.eval.runner import partition_for

    return partition_for(
        graph,
        opts.gpu_spec,
        opts.fusion_version,
        opts.benefit or BenefitConfig(),
    )


def _run_direct(
    graph: KernelGraph,
    inputs: Arrays,
    params: Params | None,
    opts: ExecutionOptions,
    engine: engines.Engine,
) -> Arrays:
    plan = engine.plan_partition(
        graph, _partition_of(graph, opts), bool(opts.naive_borders)
    )
    return plan.execute(inputs, params, opts.workers)


def _run_ladder(
    graph: KernelGraph,
    inputs: Arrays,
    params: Params | None,
    opts: ExecutionOptions,
    engine: engines.Engine,
) -> Arrays:
    """Direct execution under a resilience policy's degradation ladder.

    All rungs compute bit-identical results, so a failed compile on a
    fast engine degrades to a slower answer rather than an error —
    the same availability contract the serving runtime enforces, for
    callers that execute directly.
    """
    last_error: Optional[BaseException] = None
    for rung in engines.ladder_from(engine.name):
        try:
            return _run_direct(graph, inputs, params, opts, rung)
        except Exception as err:
            last_error = err
    assert last_error is not None
    raise last_error
