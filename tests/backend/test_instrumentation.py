"""Empirical validation of the recomputation model.

The benefit model prices fused recomputation analytically (Eq. 5: none
for point consumers; Eq. 7/10: per-window for local consumers).  The
fused executor can *count* how often each member kernel is actually
re-evaluated; these tests confirm the analytical scenario semantics on
real executions.
"""

import numpy as np
import pytest

from helpers import BLUR3, BLUR5, chain_pipeline, random_image

from repro.api import run_block
from repro.apps.unsharp import build_pipeline as build_unsharp
from repro.graph.partition import PartitionBlock


def count_block(pipe, vertices, seed=0):
    graph = pipe.build()
    block = PartitionBlock(graph, vertices)
    data = {"img0": random_image(8, 8, seed=seed)}
    counter = {}
    run_block(graph, block, data, call_counter=counter)
    return counter


class TestRecomputationCounts:
    def test_point_consumer_evaluates_producer_once(self):
        # Eq. 5 (point-based): the intermediate stays in a register.
        counter = count_block(chain_pipeline(("p", "p")), {"k0", "k1"})
        assert counter == {"k1": 1, "k0": 1}

    def test_local_consumer_evaluates_producer_per_offset(self):
        # Eq. 7 (point-to-local): one recomputation per window element.
        counter = count_block(chain_pipeline(("p", "l")), {"k0", "k1"})
        assert counter["k1"] == 1
        assert counter["k0"] == 9  # 3x3 consumer window

    def test_five_by_five_consumer(self):
        counter = count_block(
            chain_pipeline(("p", "l"), masks=[BLUR5]), {"k0", "k1"}
        )
        assert counter["k0"] == 25

    def test_deep_chain_multiplies(self):
        # k0 <- k1 (3x3) <- k2 (3x3): k1 runs 9 times, k0 runs 9*9.
        counter = count_block(
            chain_pipeline(("p", "l", "l")), {"k0", "k1", "k2"}
        )
        assert counter["k2"] == 1
        assert counter["k1"] == 9
        assert counter["k0"] == 81

    def test_memoization_deduplicates_repeated_point_reads(self):
        # Unsharp: three point kernels all read `blurred`'s consumer
        # chain and the source; the blur is evaluated exactly once even
        # though it is referenced from several member bodies.
        graph = build_unsharp(8, 8).build()
        block = PartitionBlock(graph, set(graph.kernel_names))
        counter = {}
        run_block(
            graph, block, {"input": random_image(8, 8, seed=1)},
            call_counter=counter,
        )
        assert counter["sharpen"] == 1
        assert counter["amp"] == 1
        assert counter["high"] == 1
        assert counter["blur"] == 1

    def test_counts_do_not_change_results(self):
        graph = chain_pipeline(("p", "l")).build()
        block = PartitionBlock(graph, {"k0", "k1"})
        data = {"img0": random_image(8, 8, seed=2)}
        plain = run_block(graph, block, data)
        counted = run_block(graph, block, data, call_counter={})
        np.testing.assert_array_equal(plain, counted)
