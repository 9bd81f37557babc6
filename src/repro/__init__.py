"""repro — min-cut driven kernel fusion for image processing pipelines.

A from-scratch Python reproduction of

    Bo Qiao, Oliver Reiche, Frank Hannig, Jürgen Teich:
    "From Loop Fusion to Kernel Fusion: A Domain-Specific Approach to
    Locality Optimization", CGO 2019.

The library contains:

* a Hipacc-like image processing DSL (:mod:`repro.dsl`) over a small
  expression IR (:mod:`repro.ir`),
* the kernel dependence DAG and a from-scratch Stoer–Wagner minimum
  cut (:mod:`repro.graph`),
* the paper's legality rules and analytic benefit model
  (:mod:`repro.model`),
* three fusion engines — min-cut (Algorithm 1), prior-work basic
  fusion, greedy — plus border-correct kernel fusion with index
  exchange (:mod:`repro.fusion`),
* a NumPy reference executor, CUDA source generation, and an analytic
  GPU performance simulator (:mod:`repro.backend`),
* the six benchmark applications (:mod:`repro.apps`) and the evaluation
  harness reproducing every table and figure (:mod:`repro.eval`).

Quickstart::

    from repro.apps.harris import build_pipeline
    from repro.model import GTX680, estimate_graph
    from repro.fusion import mincut_fusion

    graph = build_pipeline().build()
    weighted = estimate_graph(graph, GTX680)
    result = mincut_fusion(weighted, start_vertex="dx")
    print(result.describe())

Execution goes through the canonical API (:mod:`repro.api`)::

    from repro import ExecutionOptions, FusionSettings, run

    env = run(graph, {"input": image})                        # fuse + tape
    env = run(graph, {"input": image},
              options=ExecutionOptions(engine="native"))      # compiled C
    env = run(graph, {"input": image},
              options=ExecutionOptions(fusion=FusionSettings(gpu_name="K20c")))
"""

from repro.api import ExecutionOptions, FusionSettings, run, run_block
from repro.dsl import (
    Accessor,
    BoundaryMode,
    BoundarySpec,
    Domain,
    Image,
    IterationSpace,
    Kernel,
    Mask,
    Pipeline,
)
from repro.fusion import basic_fusion, greedy_fusion, mincut_fusion
from repro.graph import KernelGraph, Partition, PartitionBlock
from repro.model import (
    GTX680,
    GTX745,
    K20C,
    BenefitConfig,
    GpuSpec,
    estimate_graph,
)

__version__ = "1.0.0"

__all__ = [
    "Accessor",
    "BenefitConfig",
    "BoundaryMode",
    "BoundarySpec",
    "Domain",
    "ExecutionOptions",
    "FusionSettings",
    "GTX680",
    "GTX745",
    "GpuSpec",
    "Image",
    "IterationSpace",
    "K20C",
    "Kernel",
    "KernelGraph",
    "Mask",
    "Partition",
    "PartitionBlock",
    "Pipeline",
    "__version__",
    "basic_fusion",
    "estimate_graph",
    "greedy_fusion",
    "mincut_fusion",
    "run",
    "run_block",
]
