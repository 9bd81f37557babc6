"""Figure reproductions.

* :func:`figure3_trace` — the Harris walk-through of Fig. 3: edge
  weights (328/328/256/ε...) and the recursive min-cut steps;
* :func:`figure4_example` — the border-fusion worked example of Fig. 4
  on the paper's exact 5x5 matrix: the unnormalized Gaussian
  convolution chain (intermediate 82/98/93..., interior value 992) and
  the clamp-border value (763 with index exchange; wrong without);
* :func:`figure6_data` — execution-time distributions with box-plot
  statistics for every (GPU, app, version), i.e. the data behind the
  paper's Fig. 6 panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.apps.common import GAUSS3_UNNORM
from repro.apps.harris import build_pipeline as build_harris
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.dsl.functional import convolve
from repro.dsl.image import Image
from repro.dsl.kernel import Kernel
from repro.dsl.pipeline import Pipeline
from repro.eval.runner import AppResult, ResultKey
from repro.eval.stats import BoxStats, box_stats
from repro.api import ExecutionOptions, FusionSettings, run, run_block
from repro.fusion.mincut_fusion import FusionResult, mincut_fusion
from repro.graph.partition import PartitionBlock
from repro.model.benefit import BenefitConfig, estimate_graph
from repro.model.hardware import GTX680, GpuSpec

#: The 5x5 integer matrix of the paper's Fig. 4.
FIGURE4_INPUT = np.array(
    [
        [1, 3, 7, 7, 6],
        [3, 7, 9, 6, 8],
        [5, 4, 3, 2, 1],
        [4, 1, 2, 1, 2],
        [5, 2, 2, 4, 2],
    ],
    dtype=float,
)


def figure3_trace(
    gpu: GpuSpec = GTX680, config: BenefitConfig | None = None
) -> FusionResult:
    """Run Algorithm 1 on Harris with the paper's parameters.

    Uses the paper's constants (image-unit iteration spaces, γ = 0,
    ``cMshared = 2``, ``t_g = 400``, ``c_ALU = 4``) and ``dx`` as the
    Stoer–Wagner start vertex.  The resulting edge weights are the
    published 328/328/256 plus seven ε edges, and the final partition is
    {dx}, {dy}, {sx, gx}, {sy, gy}, {sxy, gxy}, {hc}.
    """
    graph = build_harris().build()
    weighted = estimate_graph(graph, gpu, config or BenefitConfig())
    return mincut_fusion(weighted, start_vertex="dx")


def _figure4_pipeline(boundary: BoundarySpec | None) -> Pipeline:
    """Two chained unnormalized 3x3 Gaussian convolutions on a 5x5 image."""
    pipe = Pipeline("figure4")
    source = Image.create("src", 5, 5)
    intermediate = Image.create("intermediate", 5, 5)
    out = Image.create("out", 5, 5)
    pipe.add(
        Kernel.from_function(
            "conv1",
            [source],
            intermediate,
            lambda a: convolve(a, GAUSS3_UNNORM),
            boundary=boundary,
        )
    )
    pipe.add(
        Kernel.from_function(
            "conv2",
            [intermediate],
            out,
            lambda a: convolve(a, GAUSS3_UNNORM),
            boundary=boundary,
        )
    )
    return pipe


@dataclass(frozen=True)
class Figure4Result:
    """All quantities of the Fig. 4 worked example."""

    intermediate_center: np.ndarray  # the 3x3 of Fig. 4a (82 98 93 / ...)
    interior_value: float  # 992 (Fig. 4a)
    staged_border_value: float  # 763 (unfused clamp, Fig. 4c reference)
    fused_border_value: float  # 763 (fused with index exchange)
    naive_border_value: float  # != 763 (fused without exchange, Fig. 4b)


def figure4_example() -> Figure4Result:
    """Reproduce Fig. 4's numbers on the paper's matrix."""
    clamp = BoundarySpec(BoundaryMode.CLAMP)
    graph = _figure4_pipeline(clamp).build()
    inputs = {"src": FIGURE4_INPUT}

    staged = run(graph, inputs, options=ExecutionOptions(fuse=False))
    block = PartitionBlock(graph, {"conv1", "conv2"})
    fused = run_block(graph, block, inputs)
    naive = run_block(
        graph,
        block,
        inputs,
        options=ExecutionOptions(fusion=FusionSettings(naive_borders=True)),
    )

    intermediate = staged["intermediate"][1:4, 1:4]
    return Figure4Result(
        intermediate_center=intermediate,
        interior_value=float(fused[2, 2]),
        staged_border_value=float(staged["out"][0, 0]),
        fused_border_value=float(fused[0, 0]),
        naive_border_value=float(naive[0, 0]),
    )


def figure6_data(
    results: Dict[ResultKey, AppResult],
) -> Dict[Tuple[str, str, str], BoxStats]:
    """Box-plot statistics for every configuration in ``results``."""
    return {key: box_stats(result.runs) for key, result in results.items()}
