"""Lint orchestration: run every analysis pass over one application.

``repro lint <app>`` lands here.  :func:`lint_app` builds the
application's pipeline at a small geometry (the passes are structural —
geometry only scales array sizes, not findings), then runs

1. the **pipeline lint** (:mod:`repro.analysis.passes`),
2. the **value-range dataflow** (:mod:`repro.analysis.dataflow`),
   seeded by the pipeline's declared domains,
3. **fusion** under the requested engine version, checking that every
   block of the final partition is legal
   (:mod:`repro.analysis.explain`) — and keeping the engine trace so
   ``--explain`` can show *why* each cut or rejection happened,
4. the **plan verifier** (:mod:`repro.analysis.verifier`) over the
   compiled instruction tapes of that partition,
5. with ``native=True`` (``repro lint --native``), the **native-codegen
   sanitizer** (:mod:`repro.analysis.native_check`) over the loop
   nests lowered for that partition.

The report's error gate covers the diagnostics only; trace events are
explanatory context (a cut is a decision, not a defect).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    has_errors,
    render_diagnostics,
)
from repro.analysis.explain import explain_block
from repro.analysis.passes import lint_pipeline
from repro.analysis.verifier import verify_partition_plan
from repro.model.benefit import BenefitConfig
from repro.model.hardware import KNOWN_GPUS, GpuSpec

#: Default lint geometry: big enough for every paper mask, small enough
#: that tape compilation and verification stay instant.
LINT_WIDTH = 64
LINT_HEIGHT = 48


@dataclass
class LintReport:
    """Everything one lint run found for one application."""

    app: str
    version: str
    diagnostics: Tuple[Diagnostic, ...] = field(default_factory=tuple)
    #: Engine trace events (``ready`` / ``cut`` / ``reject``) with their
    #: structured legality explanations — ``--explain`` output.
    trace: Tuple[Any, ...] = field(default_factory=tuple)
    #: Final partition blocks as sorted member tuples.
    blocks: Tuple[Tuple[str, ...], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was found."""
        return not has_errors(self.diagnostics)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    def render(self, explain: bool = False) -> str:
        errors = self.count(Severity.ERROR)
        warnings = self.count(Severity.WARNING)
        lines = [
            f"{self.app} [{self.version}]: "
            f"{errors} error(s), {warnings} warning(s), "
            f"{len(self.blocks)} block(s)"
        ]
        if self.diagnostics:
            lines.append(render_diagnostics(self.diagnostics))
        if explain:
            for event in self.trace:
                lines.append("  " + event.describe())
                for diagnostic in getattr(event, "diagnostics", ()):
                    lines.append("      " + diagnostic.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "version": self.version,
            "ok": self.ok,
            "errors": self.count(Severity.ERROR),
            "warnings": self.count(Severity.WARNING),
            "blocks": [list(b) for b in self.blocks],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


@dataclass(frozen=True)
class _TraceSpec:
    """Name carrier standing in for an AppSpec when linting a lazy trace."""

    name: str


def lint_app(
    app,
    width: int = LINT_WIDTH,
    height: int = LINT_HEIGHT,
    gpu: "GpuSpec | str" = "GTX680",
    config: Optional[BenefitConfig] = None,
    version: str = "optimized",
    verify_plans: bool = True,
    native: bool = False,
) -> LintReport:
    """Run the whole analysis stack over one application.

    ``app`` is an :class:`~repro.apps.AppSpec`, a registered app name,
    or a lazy-recorded :class:`~repro.lazy.trace.Trace` — traces first
    run the ``LAZY0xx`` checks (:func:`repro.lazy.lint.lint_trace`) and
    then lower through the ordinary pipeline passes (their geometry is
    fixed at recording time, so ``width``/``height`` are ignored).
    ``version`` selects the fusion engine whose final partition is
    checked and whose trace the report keeps.  ``verify_plans=False``
    skips tape compilation/verification (pipeline + fusion passes only).
    ``native=True`` additionally lowers the partition through the native
    C backend and runs the codegen sanitizer over the emitted source
    (``NAT0xx``); it needs a working C toolchain.
    """
    from repro.apps import ALL_APPS
    from repro.lazy.lint import lint_trace
    from repro.lazy.trace import Trace

    if isinstance(app, str):
        try:
            app = ALL_APPS[app]
        except KeyError:
            known = ", ".join(sorted(ALL_APPS))
            raise KeyError(f"unknown application {app!r}; known: {known}")
    if isinstance(gpu, str):
        gpu = KNOWN_GPUS[gpu]
    config = config or BenefitConfig()

    diagnostics: List[Diagnostic] = []
    provenance: Dict[str, str] = {}
    if isinstance(app, Trace):
        diagnostics.extend(lint_trace(app))
        if any(d.code == "LAZY001" for d in diagnostics):
            # Nothing lowered: there is no pipeline to lint or fuse.
            return LintReport(
                app=app.name,
                version=version,
                diagnostics=tuple(diagnostics),
            )
        pipeline = app.lower()
        provenance = app.checkpoint_provenance()
        app = _TraceSpec(app.name)
    else:
        pipeline = app.build(width, height)
    diagnostics.extend(lint_pipeline(pipeline))

    trace: Tuple[Any, ...] = ()
    blocks: Tuple[Tuple[str, ...], ...] = ()
    if not has_errors(diagnostics):
        # Fusion + plan verification need a buildable graph; with
        # structural errors present there is nothing sound to fuse.
        graph = pipeline.build()
        from repro.analysis.dataflow import lint_graph_values

        diagnostics.extend(lint_graph_values(graph))
        partition, result = _fuse(graph, gpu, version, config)
        if result is not None:
            trace = tuple(result.trace)
        blocks = partition.signature()
        for block in partition:
            diagnostics.extend(
                explain_block(graph, block.vertices, gpu, config.c_mshared)
            )
        if verify_plans:
            from repro.backend.plan import plan_for_partition

            plan = plan_for_partition(graph, partition)
            diagnostics.extend(verify_partition_plan(plan, graph=graph))
        if native:
            diagnostics.extend(_lint_native(graph, partition))
    if provenance:
        diagnostics = [_with_provenance(d, provenance) for d in diagnostics]
    return LintReport(
        app=app.name,
        version=version,
        diagnostics=tuple(diagnostics),
        trace=trace,
        blocks=blocks,
    )


def _with_provenance(
    diagnostic: Diagnostic, provenance: Dict[str, str]
) -> Diagnostic:
    """Point a diagnostic on a synthesized lazy kernel at its checkpoint.

    Auto-materialized kernels carry names the user never wrote
    (``lazy0``, ...); the location path gains the nearest downstream
    ``checkpoint()`` name so ``repro lint --lazy`` output is actionable.
    """
    checkpoint = provenance.get(diagnostic.kernel or "")
    if checkpoint is None:
        return diagnostic
    suffix = f"via checkpoint {checkpoint!r}"
    path = f"{diagnostic.path} ({suffix})" if diagnostic.path else suffix
    return replace(diagnostic, path=path)


def _lint_native(graph, partition) -> List[Diagnostic]:
    """Sanitize the native loop nests of ``partition`` (NAT diagnostics).

    The plans are built under a ``standard`` validation override so that
    strict mode's build-time enforcement cannot raise before the lint
    report collects the findings; the sanitizer then runs explicitly.
    Blocks that fell back to the tape interpreter carry no native code
    and verify vacuously.
    """
    from repro.analysis.native_check import verify_native_plan
    from repro.backend.native_exec import native_plan_for_partition
    from repro.envknobs import validate_override

    with validate_override("standard"):
        plan = native_plan_for_partition(graph, partition)
    return verify_native_plan(plan)


def _fuse(graph, gpu, version, config):
    """The fused partition plus the engine result (None for baseline)."""
    from repro.fusion import FUSERS, partition_for
    from repro.model.benefit import estimate_graph

    if version in ("optimized", "greedy"):  # the engines with a trace
        result = FUSERS[version](estimate_graph(graph, gpu, config))
        return result.partition, result
    return partition_for(graph, gpu, version, config), None
