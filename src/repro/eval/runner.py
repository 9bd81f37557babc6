"""Running the evaluation matrix.

One configuration = (application, GPU, fusion version).  Versions:

* ``baseline`` — no fusion (singleton partition); every kernel is one
  launch with all intermediates in global memory;
* ``basic`` — prior-work pairwise fusion [12];
* ``optimized`` — the paper's min-cut fusion (Algorithm 1);
* ``greedy`` — heaviest-edge greedy grouping (extra ablation engine,
  not part of the paper's matrix).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from repro.api import ExecutionOptions, run
from repro.apps import APPLICATIONS, AppSpec, request_inputs
from repro.backend.launch import PipelineTiming, simulate_partition, simulate_runs
from repro.backend.numpy_exec import Arrays
from repro.fusion import partition_for
from repro.graph.partition import Partition
from repro.model.benefit import BenefitConfig
from repro.model.hardware import GTX680, GTX745, K20C, GpuSpec

#: The paper's evaluation versions, in table order.
VERSIONS: Tuple[str, ...] = ("baseline", "basic", "optimized")

#: The paper's devices, in figure order.
DEFAULT_GPUS: Tuple[GpuSpec, ...] = (GTX745, GTX680, K20C)

ResultKey = Tuple[str, str, str]  # (app, gpu, version)


@dataclass(frozen=True)
class AppResult:
    """Outcome of one configuration."""

    app: str
    gpu: str
    version: str
    partition: Partition
    timing: PipelineTiming
    runs: np.ndarray

    @property
    def median_ms(self) -> float:
        return float(np.median(self.runs))

    @property
    def launches(self) -> int:
        return self.timing.launches


def _seed(app: str, gpu: str, version: str) -> int:
    """A stable per-configuration RNG seed."""
    return zlib.crc32(f"{app}/{gpu}/{version}".encode())


def run_configuration(
    spec: AppSpec,
    gpu: GpuSpec,
    version: str,
    config: BenefitConfig | None = None,
    runs: int = 500,
) -> AppResult:
    """Fuse, simulate, and sample one configuration."""
    graph = spec.pipeline().build()
    partition = partition_for(graph, gpu, version, config)
    timing = simulate_partition(graph, partition, gpu)
    samples = simulate_runs(timing, runs=runs, seed=_seed(spec.name, gpu.name, version))
    return AppResult(spec.name, gpu.name, version, partition, timing, samples)


def execute_configuration(
    spec: AppSpec,
    gpu: GpuSpec,
    version: str,
    width: int = 96,
    height: int = 64,
    config: BenefitConfig | None = None,
    params: Dict[str, float] | None = None,
    seed: int = 0,
    engine: str | None = None,
    workers: int | None = None,
    runtime=None,
) -> Arrays:
    """Numerically execute one configuration's fused pipeline.

    Complements :func:`run_configuration` (which *simulates* timing):
    the application is built at the given geometry, partitioned for the
    version, and run on deterministic random inputs through
    :func:`repro.api.run` — the tape engine by default, with
    ``workers`` forwarded for parallel block execution.
    ``engine="native"`` (or ``REPRO_EXEC_ENGINE=native``)
    runs the compiled-C backend of :mod:`repro.backend.native_exec`
    when a C toolchain is available.  Returns the surviving-image
    environment.

    ``runtime`` (a :class:`repro.serve.runtime.ServingRuntime`) routes
    execution through the serving layer: the fused plan is cached
    across calls, so evaluation sweeps that revisit a configuration
    compile it once.
    """
    graph = spec.build(width, height).build()
    partition = partition_for(graph, gpu, version, config)
    return run(
        graph,
        request_inputs(
            spec, width, height, _seed(spec.name, gpu.name, version) ^ seed
        ),
        params,
        options=ExecutionOptions(
            engine=engine,
            workers=workers,
            runtime=runtime,
            partition=partition,
        ),
    )


def run_matrix(
    apps: Iterable[AppSpec] | None = None,
    gpus: Iterable[GpuSpec] = DEFAULT_GPUS,
    versions: Iterable[str] = VERSIONS,
    config: BenefitConfig | None = None,
    runs: int = 500,
) -> Dict[ResultKey, AppResult]:
    """The full evaluation matrix (Fig. 6 / Table I input).

    Returns a mapping ``(app, gpu, version) -> AppResult``.
    """
    if apps is None:
        apps = APPLICATIONS.values()
    results: Dict[ResultKey, AppResult] = {}
    for spec in apps:
        for gpu in gpus:
            for version in versions:
                result = run_configuration(spec, gpu, version, config, runs)
                results[(spec.name, gpu.name, version)] = result
    return results
