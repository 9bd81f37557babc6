#!/usr/bin/env python3
"""Extension: Canny-lite edges, and a case the heuristic cannot see.

The paper proves the general fusion problem NP-complete and solves it
with the recursive min-cut heuristic (Algorithm 1).  On all six paper
applications the heuristic is *optimal* — our exhaustive engine proves
it by enumeration.  This example shows the structural case where the
heuristic can lose: Canny's {mag, orient, nms, thresh} block is legal
as a whole (two producers feed one consumer), but every pair inside it
is pairwise-illegal, so each edge carries only the epsilon weight and
the min cut never assembles the block.  The loss is bounded by a few
epsilon — negligible by construction — but the exhaustive engine fuses
four kernels where the heuristic fuses two.

Run:  python examples/canny_extension.py
"""

import numpy as np

from repro.apps.canny import build_pipeline
from repro.backend.launch import simulate_partition
from repro.api import ExecutionOptions, run
from repro.fusion.exhaustive import exhaustive_fusion
from repro.fusion.mincut_fusion import mincut_fusion
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680

PARAMS = {"threshold": 400.0}


def main() -> None:
    graph = build_pipeline(2048, 2048).build()
    weighted = estimate_graph(graph, GTX680)

    print("edge estimates (note the epsilon pairs around nms):")
    print(weighted.describe_edges())
    print()

    heuristic = mincut_fusion(weighted)
    optimal = exhaustive_fusion(weighted)
    print("Algorithm 1 (recursive min-cut):")
    print(heuristic.partition.describe())
    print()
    print("exhaustive optimum:")
    print(optimal.partition.describe())
    print()
    gap = optimal.benefit - heuristic.benefit
    print(f"beta gap: {gap:g} (bounded by the epsilon weights: "
          f"eps = {weighted.config.epsilon:g})")
    print()

    for label, result in (("min-cut", heuristic), ("exhaustive", optimal)):
        timing = simulate_partition(graph, result.partition, GTX680)
        print(f"simulated {label:<11}: {timing.total_ms:7.3f} ms "
              f"({timing.launches} launches)")
    print()

    # Both partitions compute the same edges.
    small = build_pipeline(64, 64).build()
    rng = np.random.default_rng(0)
    data = rng.uniform(0, 255, size=(64, 64))
    staged = run(
        small, {"input": data}, PARAMS, options=ExecutionOptions(fuse=False)
    )
    for label, engine in (("min-cut", mincut_fusion),
                          ("exhaustive", exhaustive_fusion)):
        weighted_small = estimate_graph(small, GTX680)
        partition = engine(weighted_small).partition
        fused = run(
            small, {"input": data}, PARAMS,
            options=ExecutionOptions(partition=partition),
        )
        match = np.array_equal(fused["edges"], staged["edges"])
        print(f"{label:<11} fused output matches staged: {match}")


if __name__ == "__main__":
    main()
