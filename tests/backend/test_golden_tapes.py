"""The tape compiler's output, pinned instruction for instruction.

``golden_tapes.json`` holds the SHA-256 of ``repr`` of the ``(op, args,
aux)`` list of every block tape of the six paper apps (hand-built and
lazy-recorded) and of the DoG and Canny extensions (hand-built; their
reductions stay on the tape, so the native golden never sees them),
each under the default fusion and under all-singleton blocks at 96x64.
The digests were recorded from the compiler that walked each kernel's
``Expr`` tree recursively; the compiler now reads the body off the
kernel's value-numbered signature and must write the same tapes.  A
persisted plan record binds its ``verified`` verdict to the tape
identity (key, structural signature, partition, ``naive_borders``) and
compiles no tape to check it, so a tape that moved silently under the
same code would make "same identity, same proof" a statement about some
other tape (``tests/serve/test_tape_identity.py`` draws the premise).

Under ``REPRO_VALIDATE=strict`` (CI runs this file so) every plan is
also verified when it is compiled, the recompile diff (``TAPE008``)
included.  Regenerate the file only for a deliberate change of the tape.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import ALL_APPS, APPLICATIONS, EXTENSIONS
from repro.backend.plan import plan_for_partition
from repro.eval.runner import partition_for
from repro.graph.partition import Partition
from repro.lazy.apps import lazy_trace
from repro.model.hardware import GTX680

GOLDEN = json.loads((Path(__file__).parent / "golden_tapes.json").read_text())
WIDTH, HEIGHT = 96, 64

VARIANTS = [
    f"{app}/{origin}"
    for app in sorted(APPLICATIONS)
    for origin in ("hand", "lazy")
] + [f"{app}/hand" for app in sorted(EXTENSIONS)]


def block_tape_digests(variant):
    """``<variant>/96x64/<partition>/<index>:<output>`` -> tape digest."""
    app, origin = variant.split("/")
    graph = (
        lazy_trace(app, WIDTH, HEIGHT).graph()
        if origin == "lazy"
        else ALL_APPS[app].build(WIDTH, HEIGHT).build()
    )
    partitions = {
        "fused": partition_for(graph, GTX680, "optimized"),
        "singletons": Partition.singletons(graph),
    }
    digests = {}
    for name, partition in partitions.items():
        plan = plan_for_partition(graph, partition)
        for index, block in enumerate(plan.plans):
            tape = [(instr.op, instr.args, instr.aux) for instr in block.tape]
            key = f"{variant}/{WIDTH}x{HEIGHT}/{name}/{index}:{block.output_name}"
            digests[key] = hashlib.sha256(repr(tape).encode()).hexdigest()
    return digests


@pytest.mark.parametrize("variant", VARIANTS)
def test_block_tapes_match_golden(variant):
    expected = {
        key: digest
        for key, digest in GOLDEN.items()
        if key.startswith(variant + "/")
    }
    assert expected
    assert block_tape_digests(variant) == expected


def test_golden_covers_every_variant():
    assert {key.rsplit("/", 3)[0] for key in GOLDEN} == set(VARIANTS)
