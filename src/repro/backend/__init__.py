"""Execution substrates.

Three engines execute a fused partition, and bit-identity between them
is the repo's form of the paper's claim; :mod:`repro.backend.engines`
is the one table naming them, fastest first, and :func:`repro.api.run`
the one way in (:func:`repro.api.run_block` runs one block through it
as a one-block partition of the block's own kernels).

* :mod:`repro.backend.native_exec` — ``"native"``, the fast path: block
  tapes lowered to tiled, optionally OpenMP-parallel C kernels,
  compiled and loaded through :mod:`~repro.backend.cpu_exec` (compiler
  discovery, content-hash ``.so`` cache, eviction, ``dlopen``) and
  driven via ctypes on zero-copy NumPy buffers.  Falls back to the tape
  per block, and entirely on hosts without a C compiler.
* :mod:`repro.backend.plan` — ``"tape"``, the portable fallback and
  the default: partition blocks flattened once into SSA instruction
  tapes with producer-result caching, interned coordinate grids, and
  parallel block scheduling.
* :mod:`repro.backend.numpy_exec` — ``"recursive"``, the oracle: the
  recursive walk implementing the paper's two-stage index exchange, so
  fused results are bit-comparable with unfused staged execution.
* :mod:`repro.backend.codegen_cuda` / :mod:`~repro.backend.codegen_opencl`
  — CUDA / OpenCL source text generation (the "source-to-source" output
  of the compiler; inspectable, not executed here).
* :mod:`repro.backend.memsim` — the analytic GPU performance simulator
  standing in for the paper's physical devices.
* :mod:`repro.backend.launch` — simulated pipeline launches producing
  per-version execution-time distributions.
"""

from repro.backend.codegen_cuda import generate_cuda, generate_cuda_pipeline
from repro.backend.codegen_opencl import (
    generate_opencl,
    generate_opencl_pipeline,
)
from repro.backend.roofline import (
    RooflinePoint,
    analyze_roofline,
    device_balance,
    pipeline_roofline,
)
from repro.backend.cpu_exec import clear_compile_cache, compiler_available
from repro.backend.launch import PipelineTiming, simulate_partition, simulate_runs
from repro.backend.native_exec import (
    NativeLoweringError,
    NativePartitionPlan,
    NativeVerificationError,
    clear_native_caches,
    lower_block_source,
    lower_partition_source,
    native_available,
    native_plan_for_partition,
)
from repro.backend.memsim import KernelCostBreakdown, estimate_kernel_time
from repro.backend.numpy_exec import (
    ExecutionError,
    block_schedule,
    execute_kernel,
    recursion_headroom,
)
from repro.backend.plan import (
    BlockPlan,
    GridStore,
    PartitionPlan,
    clear_plan_caches,
    compile_block,
    compile_kernel,
    plan_for_partition,
)

__all__ = [
    "BlockPlan",
    "ExecutionError",
    "GridStore",
    "NativeLoweringError",
    "NativePartitionPlan",
    "NativeVerificationError",
    "PartitionPlan",
    "KernelCostBreakdown",
    "PipelineTiming",
    "RooflinePoint",
    "analyze_roofline",
    "block_schedule",
    "clear_compile_cache",
    "clear_native_caches",
    "clear_plan_caches",
    "compile_block",
    "compile_kernel",
    "compiler_available",
    "device_balance",
    "estimate_kernel_time",
    "execute_kernel",
    "generate_cuda",
    "generate_cuda_pipeline",
    "generate_opencl",
    "generate_opencl_pipeline",
    "lower_block_source",
    "lower_partition_source",
    "native_available",
    "native_plan_for_partition",
    "pipeline_roofline",
    "plan_for_partition",
    "recursion_headroom",
    "simulate_partition",
    "simulate_runs",
]
