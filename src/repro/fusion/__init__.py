"""Fusion engines and kernel-level fusion machinery.

Three engines, matching the paper's evaluation matrix:

* :func:`~repro.fusion.mincut_fusion.mincut_fusion` — the paper's
  contribution: recursive partitioning via Stoer–Wagner minimum cuts
  (Algorithm 1), the *optimized fusion* configuration;
* :func:`~repro.fusion.basic_fusion.basic_fusion` — the prior-work
  baseline [12]: pairwise fusion of point-related scenarios only, the
  *basic fusion* configuration;
* :func:`~repro.fusion.greedy_fusion.greedy_fusion` — a classic
  heaviest-edge greedy grouping (PolyMage / Halide style), provided as
  an additional comparison point for ablations.

:mod:`repro.fusion.fuser` materializes a fused kernel for each legal
partition block; :mod:`repro.fusion.border` implements the
interior/halo/exterior analysis and the index-exchange method that makes
local-to-local fusion border-correct (Section IV).

:data:`FUSERS` is the fuse stage's one table, version name → engine;
:data:`VERSIONS` adds ``baseline`` (no fusion), and :func:`partition_for`
is the stage itself.
"""

from typing import Callable, Dict

from repro.fusion.basic_fusion import basic_fusion
from repro.fusion.coalesce import coalesce_partition, coalesced_fusion
from repro.fusion.distribution import (
    distribute,
    distribute_block,
    maximal_partition,
)
from repro.fusion.exhaustive import exhaustive_fusion, optimality_gap
from repro.fusion.border import (
    Region,
    classify_coordinate,
    fused_interior_width,
    index_exchange,
    interior_width,
)
from repro.fusion.fuser import FusedKernel, fuse_block, fuse_partition
from repro.fusion.greedy_fusion import greedy_fusion
from repro.fusion.mincut_fusion import FusionResult, TraceEvent, mincut_fusion
from repro.fusion.scenarios import classify_edge_scenario
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition
from repro.model.benefit import BenefitConfig, WeightedGraph, estimate_graph
from repro.model.hardware import GpuSpec

#: Fusion version → the engine that partitions a weighted graph.
#: ``baseline`` (no fusion) is the one version that is not an engine.
FUSERS: Dict[str, Callable[[WeightedGraph], FusionResult]] = {
    "basic": basic_fusion,
    "optimized": mincut_fusion,
    "greedy": greedy_fusion,
    "exhaustive": exhaustive_fusion,
    "coalesced": coalesced_fusion,
}

#: Every fusion version :func:`partition_for` accepts.
VERSIONS = ("baseline", *FUSERS)


def partition_for(
    graph: KernelGraph,
    gpu: GpuSpec,
    version: str,
    config: BenefitConfig | None = None,
) -> Partition:
    """The fusion partition of one version (``baseline`` or a
    :data:`FUSERS` name) under ``gpu``'s benefit model."""
    if version not in VERSIONS:
        raise ValueError(f"unknown version {version!r}")
    if version == "baseline":
        return Partition.singletons(graph)
    return FUSERS[version](estimate_graph(graph, gpu, config)).partition


__all__ = [
    "FUSERS",
    "FusedKernel",
    "FusionResult",
    "Region",
    "TraceEvent",
    "VERSIONS",
    "basic_fusion",
    "classify_coordinate",
    "classify_edge_scenario",
    "coalesce_partition",
    "coalesced_fusion",
    "distribute",
    "distribute_block",
    "exhaustive_fusion",
    "fuse_block",
    "fuse_partition",
    "fused_interior_width",
    "greedy_fusion",
    "maximal_partition",
    "index_exchange",
    "interior_width",
    "mincut_fusion",
    "optimality_gap",
    "partition_for",
]
