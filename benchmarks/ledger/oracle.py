"""The independent reference every benchmarked output is checked against.

The reference never comes from the native engine or from a fused plan:
it is the *unfused* program, kernel by kernel.  Two independent
interpreters walk it — the recursive reference walk and the tape
interpreter — and must agree bit for bit at a small geometry before the
tape's output at the workload's own geometry is trusted (the recursive
walk at 1024x1024 would dominate set-up).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

Arrays = Dict[str, np.ndarray]

__all__ = ["Checker", "OracleError", "reference_outputs", "validate_oracle"]

#: Geometry of the tape-vs-recursive cross-check.
VALIDATION_GEOMETRY = (96, 64)


class OracleError(RuntimeError):
    """The two reference interpreters disagree; nothing can be checked."""


def reference_outputs(graph, inputs: Arrays, params, engine: str) -> Arrays:
    """Every image the unfused program produces (inputs left out)."""
    from repro.api import ExecutionOptions, run

    env = run(
        graph,
        inputs,
        params,
        options=ExecutionOptions(engine=engine, fuse=False),
    )
    return {name: env[name] for name in env if name not in inputs}


def validate_oracle(app: str, make_inputs, params) -> None:
    """Unfused tape == unfused recursive walk, bit for bit, at 96x64.

    ``make_inputs(graph, width, height)`` supplies the seeded arrays.
    """
    from repro.apps import APPLICATIONS

    width, height = VALIDATION_GEOMETRY
    graph = APPLICATIONS[app].build(width, height).build()
    inputs = make_inputs(graph, width, height)
    tape = reference_outputs(graph, inputs, params, "tape")
    walk = reference_outputs(graph, inputs, params, "recursive")
    if tape.keys() != walk.keys():
        raise OracleError(f"{app}: reference interpreters disagree on images")
    for name in tape:
        if not np.array_equal(tape[name], walk[name]):
            raise OracleError(
                f"{app}: unfused tape and recursive walk differ on {name!r}"
            )


class Checker:
    """Compares one class's outputs with its reference.

    ``tolerance`` is ``native_exec.tolerance_for`` of the class's plan:
    ``None`` demands bit identity, ``(rtol, atol)`` is the pinned libm
    policy (Enhance).  The first output that passes becomes the class's
    *verified* output; later outputs bit-identical to it pass on the
    cheap path, anything else is compared with the reference again — so
    a tolerance class pays ``allclose`` once, not per request.
    """

    def __init__(
        self,
        reference: Arrays,
        tolerance: Optional[Tuple[float, float]],
        required: Iterable[str],
    ) -> None:
        self.reference = reference
        self.tolerance = tolerance
        #: Images a result must contain (the graph's external outputs).
        self.required = tuple(required)
        self._verified: Arrays = {}

    def _matches(self, name: str, actual: np.ndarray) -> bool:
        expected = self.reference.get(name)
        if expected is None or expected.shape != actual.shape:
            return False
        if self.tolerance is None:
            return np.array_equal(actual, expected)
        verified = self._verified.get(name)
        if verified is not None and np.array_equal(actual, verified):
            return True
        rtol, atol = self.tolerance
        ok = bool(np.allclose(actual, expected, rtol=rtol, atol=atol))
        if ok:
            self._verified[name] = actual
        return ok

    def check(self, env: Arrays, inputs: Arrays) -> Tuple[int, int]:
        """``(outputs checked, outputs mismatched)`` for one result.

        Every produced image is checked; a required image the result
        lacks counts as one checked, mismatched output.
        """
        produced = [name for name in env if name not in inputs]
        missing = [name for name in self.required if name not in env]
        mismatched = len(missing) + sum(
            0 if self._matches(name, env[name]) else 1 for name in produced
        )
        return len(produced) + len(missing), mismatched
