"""Static analysis: pipeline linting, fusion explainability, plan verification.

Three pass families over three artifact levels:

* :mod:`repro.analysis.passes` — collect-all **pipeline lint** over
  kernels and dependence graphs (IR well-formedness, dtype/finiteness
  propagation, boundary/extent checks, dead code, cycles);
* :mod:`repro.analysis.explain` — **fusion explainability**: structured
  reasons why a partition block is illegal (the Fig. 2 dependence
  scenarios, the Eq. 2 shared-memory budget, header mismatches);
* :mod:`repro.analysis.verifier` — the **tape/plan verifier**: static
  invariants over compiled instruction tapes and partition plans,
  enforced under ``REPRO_VALIDATE=strict``;
* :mod:`repro.analysis.dataflow` — **value-range dataflow** (``VAL0xx``):
  abstract interpretation over kernel expressions and whole graphs
  propagating interval/NaN/zero facts;
* :mod:`repro.analysis.native_check` — the **native-codegen sanitizer**
  (``NAT0xx``): static in-bounds and no-alias proofs over the loop-nest
  IR of every native plan, run before first execution under strict mode.

All passes report :class:`~repro.analysis.diagnostics.Diagnostic`
records (stable code, severity, location, message, details) instead of
raising on the first problem.  ``repro lint <app>`` runs the whole
stack from the command line.

The package ``__init__`` resolves attributes lazily (PEP 562):
:mod:`repro.ir.validate` — imported during *kernel construction*, far
below this layer — needs :mod:`repro.analysis.diagnostics` without
dragging in the passes (which themselves import the IR).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    # diagnostics
    "CODES": "repro.analysis.diagnostics",
    "Diagnostic": "repro.analysis.diagnostics",
    "Severity": "repro.analysis.diagnostics",
    "describe_codes": "repro.analysis.diagnostics",
    "has_errors": "repro.analysis.diagnostics",
    "max_severity": "repro.analysis.diagnostics",
    "render_diagnostics": "repro.analysis.diagnostics",
    # pipeline lint
    "lint_graph": "repro.analysis.passes",
    "lint_kernels": "repro.analysis.passes",
    "lint_pipeline": "repro.analysis.passes",
    # fusion explainability
    "explain_block": "repro.analysis.explain",
    "explain_dependences": "repro.analysis.explain",
    "explain_headers": "repro.analysis.explain",
    "explain_structure": "repro.analysis.explain",
    "explain_resources": "repro.analysis.explain",
    # verifier
    "PlanVerificationError": "repro.analysis.verifier",
    "enforce": "repro.analysis.verifier",
    "verify_block_plan": "repro.analysis.verifier",
    "verify_partition_plan": "repro.analysis.verifier",
    "verify_tape": "repro.analysis.verifier",
    # value-range dataflow
    "VRange": "repro.analysis.dataflow",
    "analyze_graph": "repro.analysis.dataflow",
    "analyze_kernel": "repro.analysis.dataflow",
    "domain": "repro.analysis.dataflow",
    "lint_graph_values": "repro.analysis.dataflow",
    "lint_kernel_values": "repro.analysis.dataflow",
    # native-codegen sanitizer
    "verify_native_blocks": "repro.analysis.native_check",
    "verify_native_plan": "repro.analysis.native_check",
    # orchestration
    "LintReport": "repro.analysis.lint",
    "lint_app": "repro.analysis.lint",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.analysis.diagnostics import (  # noqa: F401
        CODES,
        Diagnostic,
        Severity,
        describe_codes,
        has_errors,
        max_severity,
        render_diagnostics,
    )
