"""The premise a restored plan record stands on: the tape is a function
of what the record's *tape identity* names.

A persisted plan record (:mod:`repro.serve.plancache`) is bound to
:func:`~repro.serve.plancache.tape_identity` — the canonical digest of
the plan key, the graph's structural signature, the partition signature
and ``naive_borders`` — and a restart whose identity matches compiles no
tape to check it.  That is sound only if two separately built graphs
whose requests have equal identities compile the very same tapes
(:meth:`PartitionPlan.tape_digest`), whatever the hash seed, while a
changed body, partition, geometry, dtype or border mode changes the
identity.  The 12 app variants (hand-built and ``repro.lazy``-recorded,
whose graphs are built apart and compared across the two) are drawn
with random legal partitions at three geometries.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.apps import APPLICATIONS, request_inputs
from repro.backend.numpy_exec import block_schedule
from repro.backend.plan import PartitionPlan
from repro.dsl.kernel import Kernel
from repro.eval.runner import partition_for
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.ir.expr import Const
from repro.ir.traversal import transform, walk
from repro.lazy.apps import lazy_trace
from repro.model.hardware import GTX680
from repro.serve.plancache import FusionSettings, plan_key, tape_identity

APPS = sorted(APPLICATIONS)
ORIGINS = ("hand", "lazy")
GEOMETRIES = [(96, 64), (7, 5), (33, 7)]


def build(app, origin, width, height):
    """A freshly built graph of one app variant."""
    if origin == "lazy":
        return lazy_trace(app, width, height).graph()
    return APPLICATIONS[app].build(width, height).build()


def merged_partition(graph, order):
    """The partition random edge merges in ``order`` reach: a merge is
    kept when ``Partition`` accepts the result, the merged block has one
    destination and reduces nothing, and the blocks still schedule."""
    blocks = [set(b.vertices) for b in Partition.singletons(graph).blocks]
    edges = list(graph.edges)
    for index in order:
        edge = edges[index]
        src = next(b for b in blocks if edge.src in b)
        dst = next(b for b in blocks if edge.dst in b)
        if src is dst:
            continue
        merged = src | dst
        if any(graph.kernel(name).reduction is not None for name in merged):
            continue
        candidate = [b for b in blocks if b is not src and b is not dst]
        candidate.append(merged)
        try:
            if len(PartitionBlock(graph, merged).destination_kernels()) != 1:
                continue
            block_schedule(
                graph,
                Partition(graph, [PartitionBlock(graph, b) for b in candidate]),
            )
        except Exception:
            continue
        blocks = candidate
    return [sorted(block) for block in blocks]


def over(graph, blocks):
    return Partition(graph, [PartitionBlock(graph, names) for names in blocks])


@st.composite
def requests(draw):
    """(app, origin, width, height, partition blocks, naive_borders)."""
    app = draw(st.sampled_from(APPS))
    origin = draw(st.sampled_from(ORIGINS))
    width, height = draw(st.sampled_from(GEOMETRIES))
    graph = build(app, origin, width, height)
    order = draw(st.permutations(range(len(graph.edges))))
    return app, origin, width, height, merged_partition(graph, order), draw(
        st.booleans()
    )


def identity(graph, inputs, partition, naive_borders):
    """The tape identity a plan record of this request is bound to."""
    key = plan_key(
        graph.structural_signature(),
        inputs,
        "native",
        FusionSettings(naive_borders=naive_borders),
    )
    return tape_identity(key, graph, partition, naive_borders)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(requests(), st.sampled_from(ORIGINS))
def test_equal_identity_compiles_equal_tapes(request, other_origin):
    # The second graph is built separately, hand-built or recorded
    # whatever the first was, and fed other pixels of the same shapes.
    app, origin, width, height, blocks, naive_borders = request
    identities, digests = [], []
    for graph_origin, seed in ((origin, 3), (other_origin, 4)):
        graph = build(app, graph_origin, width, height)
        inputs = request_inputs(APPLICATIONS[app], width, height, seed=seed)
        partition = over(graph, blocks)
        identities.append(identity(graph, inputs, partition, naive_borders))
        digests.append(PartitionPlan(graph, partition, naive_borders).tape_digest())
    assert identities[0] == identities[1]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("app", APPS)
def test_what_compiles_other_tapes_has_another_identity(app):
    graph = build(app, "hand", 96, 64)
    inputs = request_inputs(APPLICATIONS[app], 96, 64, seed=3)
    fused = partition_for(graph, GTX680, "optimized")
    singletons = Partition.singletons(graph)
    small = build(app, "hand", 33, 7)
    requests = [
        (graph, inputs, singletons, False),
        (graph, inputs, singletons, True),
        (small, request_inputs(APPLICATIONS[app], 33, 7, seed=3),
         Partition.singletons(small), False),
        (graph, {n: a.astype("float32") for n, a in inputs.items()},
         singletons, False),
    ]
    if fused.signature() != singletons.signature():
        requests.append((graph, inputs, fused, False))
    identities = [identity(*request) for request in requests]
    assert len(set(identities)) == len(identities)


def _bumped(graph):
    """``graph`` with the first constant of the first kernel that has one
    increased by one."""
    for kernel in graph.kernels():
        if any(isinstance(node, Const) for node in walk(kernel.body)):
            break
    else:
        raise AssertionError("no constant to change")
    done = []

    def bump(node):
        if isinstance(node, Const) and not done:
            done.append(node)
            return Const(node.value + 1.0)
        return None

    changed = Kernel(
        kernel.name,
        kernel.accessors,
        kernel.output,
        transform(kernel.body, bump),
        kernel.reduction,
        kernel.granularity,
        kernel.block_shape,
        kernel.force_no_shared_memory,
    )
    return KernelGraph(
        [changed if k is kernel else k for k in graph.kernels()],
        graph.external_outputs,
    )


@pytest.mark.parametrize("origin", ORIGINS)
@pytest.mark.parametrize("app", APPS)
def test_a_changed_constant_changes_the_signature(app, origin):
    graph = build(app, origin, 96, 64)
    bumped = _bumped(graph)
    assert bumped.structural_signature() != graph.structural_signature()
    assert bumped.structure_signature() != graph.structure_signature()
    inputs = request_inputs(APPLICATIONS[app], 96, 64, seed=3)
    assert identity(
        bumped, inputs, Partition.singletons(bumped), False
    ) != identity(graph, inputs, Partition.singletons(graph), False)


def test_tape_digests_do_not_depend_on_the_hash_seed():
    script = (
        "import json\n"
        "from repro.apps import APPLICATIONS\n"
        "from repro.backend.plan import PartitionPlan\n"
        "from repro.graph.partition import Partition\n"
        "from repro.eval.runner import partition_for\n"
        "from repro.lazy.apps import lazy_trace\n"
        "from repro.model.hardware import GTX680\n"
        "digests = []\n"
        "for app in sorted(APPLICATIONS):\n"
        "    for w, h in ((96, 64), (7, 5), (33, 7)):\n"
        "        for g in (APPLICATIONS[app].build(w, h).build(),\n"
        "                  lazy_trace(app, w, h).graph()):\n"
        "            for p in (Partition.singletons(g),\n"
        "                      partition_for(g, GTX680, 'optimized')):\n"
        "                digests.append(PartitionPlan(g, p).tape_digest())\n"
        "print(json.dumps(digests))\n"
    )
    src = str(Path(repro.__file__).parents[1])
    readings = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        process = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        readings.append(json.loads(process.stdout))
    assert readings[0] == readings[1]
    assert len(readings[0]) == 2 * len(APPS) * len(GEOMETRIES) * len(ORIGINS)
