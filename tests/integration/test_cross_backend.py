"""Cross-backend integration: NumPy oracle vs compiled C.

Every paper application (plus the extensions) runs unfused through the
recursive oracle and fused through the native engine; outputs must agree
under the engine's pinned tolerance policy (bit-identical unless the
tape calls libm beyond ``sqrt``).  This closes the triangle:
staged == fused (NumPy) and fused (NumPy) == fused (native).
"""

import pytest

from helpers import random_image, served_natively

from repro.api import ExecutionOptions, run
from repro.apps import ALL_APPS
from repro.backend.native_exec import (
    assert_native_equiv,
    native_available,
    native_plan_for_partition,
)
from repro.eval.runner import partition_for
from repro.model.hardware import GTX680

# A cold direct native request compiles before it answers: this suite's
# subject is native output, which a tiered first answer would not be.
pytestmark = [
    pytest.mark.skipif(not native_available(), reason="no C compiler on PATH"),
    pytest.mark.usefixtures("blocking_native"),
]

#: App -> blocks the C lowering leaves to the tape (DoG ends in a
#: global reduction: served through per-block fallback, not rejected).
COMPILABLE = {"Harris": 0, "Sobel": 0, "Unsharp": 0, "ShiTomasi": 0,
              "Enhance": 0, "Night": 0, "Canny": 0, "DoG": 1}

GEOMETRY = {"Night": (14, 12, 3)}
PARAMS = {"gamma": 0.8, "threshold": 100.0, "tau": 4.0}


@pytest.mark.parametrize("app_name", COMPILABLE)
def test_compiled_fused_pipeline_matches_reference(app_name):
    width, height, channels = GEOMETRY.get(app_name, (20, 20, 1))
    graph = ALL_APPS[app_name].build(width, height).build()
    data = random_image(width, height, channels=channels, seed=7) + 1.0

    reference = run(
        graph, {"input": data}, PARAMS,
        options=ExecutionOptions(engine="recursive", fuse=False),
    )
    partition = partition_for(graph, GTX680, "optimized")
    plan = native_plan_for_partition(graph, partition)
    assert plan.fallback_block_count == COMPILABLE[app_name]
    with served_natively():
        native = run(
            graph, {"input": data}, PARAMS,
            options=ExecutionOptions(engine="native", partition=partition),
        )

    for output_name in graph.external_outputs:
        assert_native_equiv(
            reference[output_name],
            native[output_name],
            plan.tolerance,
            f"{app_name}/{output_name}",
        )
