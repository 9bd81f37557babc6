"""Automated paper-conformance report.

Runs every reproducible claim of the paper — the worked examples, the
fusion decisions, the evaluation shape — and emits an
artifact-evaluation-style checklist.  Three verdicts:

* ``PASS`` — the claim reproduces (exactly, or within the stated band);
* ``DEVIATION`` — the claim's *shape* holds but the magnitude differs
  for a documented reason (see EXPERIMENTS.md);
* ``FAIL`` — the claim does not reproduce.

The CLI exposes this as ``python -m repro verify``; the exit status is
non-zero if any check FAILs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.apps import APPLICATIONS, request_inputs
from repro.api import ExecutionOptions, run
from repro.eval.figures import figure3_trace, figure4_example
from repro.eval.runner import ResultKey, AppResult, run_matrix
from repro.eval.tables import PAPER_TABLE2, table2
from repro.fusion import optimality_gap, partition_for
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680
from repro.model.resources import shared_memory_ratio

PASS = "PASS"
DEVIATION = "DEVIATION"
FAIL = "FAIL"


@dataclass(frozen=True)
class CheckResult:
    """One verified claim."""

    claim: str
    status: str
    detail: str = ""

    def line(self) -> str:
        text = f"[{self.status:^9}] {self.claim}"
        if self.detail:
            text += f" — {self.detail}"
        return text


def _check(claim: str, condition: bool, detail: str = "") -> CheckResult:
    return CheckResult(claim, PASS if condition else FAIL, detail)


def check_figure3() -> List[CheckResult]:
    """Claims of the Fig. 3 Harris walk-through (weights, cuts, Eq. 2)."""
    result = figure3_trace()
    weighted = result.weighted
    checks = [
        _check(
            "Fig.3 edge weights are 328/328/256",
            weighted.estimate("sx", "gx").weight == 328.0
            and weighted.estimate("sy", "gy").weight == 328.0
            and weighted.estimate("sxy", "gxy").weight == 256.0,
        ),
        _check(
            "Fig.3 seven remaining edges carry epsilon",
            sum(
                1
                for e in weighted.graph.edges
                if e.weight == weighted.config.epsilon
            )
            == 7,
        ),
    ]
    blocks = {frozenset(b.vertices) for b in result.partition.blocks}
    checks.append(
        _check(
            "Fig.3 final partition is {sx,gx},{sy,gy},{sxy,gxy} + singles",
            blocks
            == {
                frozenset({"dx"}), frozenset({"dy"}), frozenset({"hc"}),
                frozenset({"sx", "gx"}), frozenset({"sy", "gy"}),
                frozenset({"sxy", "gxy"}),
            },
        )
    )
    first_cut = next(e for e in result.trace if e.action == "cut")
    checks.append(
        _check(
            "Fig.3 first global min cut has weight 2*epsilon",
            abs(first_cut.cut_weight - 2 * weighted.config.epsilon) < 1e-12,
        )
    )
    graph = weighted.graph
    checks.append(
        _check(
            "Harris whole-graph fusion fails Eq.2 with ratio 5",
            shared_memory_ratio(graph, graph.kernel_names) == 5.0,
        )
    )
    return checks


def check_figure4() -> List[CheckResult]:
    """Claims of the Fig. 4 border-fusion worked example."""
    fig4 = figure4_example()
    return [
        _check(
            "Fig.4a intermediate window is 82/98/93...",
            np.array_equal(
                fig4.intermediate_center,
                np.array([[82, 98, 93], [66, 61, 51], [43, 34, 32]]),
            ),
        ),
        _check("Fig.4a fused interior value is 992",
               fig4.interior_value == 992.0),
        _check("Fig.4c staged clamp border value is 763",
               fig4.staged_border_value == 763.0),
        _check(
            "Fig.4c index exchange reproduces the staged border",
            fig4.fused_border_value == 763.0,
        ),
        _check(
            "Fig.4b naive composition is wrong at the border",
            fig4.naive_border_value != 763.0,
        ),
    ]


def check_fusion_decisions() -> List[CheckResult]:
    """Per-application fusion decisions plus optimality of Algorithm 1."""
    checks = []

    def blocks_of(app, version):
        graph = APPLICATIONS[app].build(32, 32).build()
        partition = partition_for(graph, GTX680, version)
        return {frozenset(b.vertices) for b in partition.blocks}

    checks.append(
        _check(
            "Night: the expensive atrous pair is not fused (Sec. V-C)",
            blocks_of("Night", "optimized")
            == {frozenset({"atrous0"}), frozenset({"atrous1", "scoto"})},
        )
    )
    checks.append(
        _check(
            "Unsharp: min-cut fuses the whole shared-input diamond",
            blocks_of("Unsharp", "optimized")
            == {frozenset({"blur", "high", "amp", "sharpen"})},
        )
    )
    checks.append(
        _check(
            "Unsharp: basic (prior work) fuses nothing",
            all(len(b) == 1 for b in blocks_of("Unsharp", "basic")),
        )
    )
    checks.append(
        _check(
            "Sobel: min-cut fuses all three kernels, basic none",
            blocks_of("Sobel", "optimized")
            == {frozenset({"dx", "dy", "mag"})}
            and all(len(b) == 1 for b in blocks_of("Sobel", "basic")),
        )
    )
    checks.append(
        _check(
            "Enhancement: both engines collapse the chain",
            len(blocks_of("Enhance", "optimized")) == 1
            and len(blocks_of("Enhance", "basic")) == 1,
        )
    )
    for app in APPLICATIONS:
        graph = APPLICATIONS[app].build(32, 32).build()
        weighted = estimate_graph(graph, GTX680)
        gap = optimality_gap(weighted)
        checks.append(
            _check(
                f"{app}: Algorithm 1 matches the enumerated optimum",
                abs(gap) < 1e-9,
                f"gap={gap:g}",
            )
        )
    return checks


def check_semantics() -> List[CheckResult]:
    """Fused-vs-staged functional equivalence for every application."""
    checks = []
    params = {"gamma": 0.8, "threshold": 100.0}
    for app, spec in APPLICATIONS.items():
        width, height = (14, 12) if app == "Night" else (18, 18)
        graph = spec.build(width, height).build()
        inputs = request_inputs(spec, width, height, seed=0)
        staged = run(
            graph, inputs, params, options=ExecutionOptions(fuse=False)
        )
        partition = partition_for(graph, GTX680, "optimized")
        fused = run(
            graph, inputs, params, options=ExecutionOptions(partition=partition)
        )
        agree = all(
            np.allclose(fused[name], staged[name], rtol=1e-8, atol=1e-8)
            for name in graph.external_outputs
        )
        checks.append(
            _check(f"{app}: fused execution matches staged execution", agree)
        )
    return checks


#: Table II bands: (lo, hi) for the measured value; DEVIATION when the
#: shape holds but the magnitude leaves the paper's vicinity.
_TABLE2_BANDS: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("optimized/baseline", "Unsharp"): (2.0, 5.0),
    ("optimized/baseline", "Sobel"): (1.05, 3.5),
    ("optimized/baseline", "Harris"): (1.02, 1.5),
    ("optimized/baseline", "ShiTomasi"): (1.02, 1.5),
    ("optimized/baseline", "Enhance"): (1.3, 2.2),
    ("optimized/baseline", "Night"): (0.95, 1.10),
    ("basic/baseline", "Sobel"): (0.97, 1.03),
    ("basic/baseline", "Unsharp"): (0.97, 1.03),
}


def check_evaluation_shape(
    results: Dict[ResultKey, AppResult],
) -> List[CheckResult]:
    """Table I/II shape claims, with banded PASS/DEVIATION verdicts."""
    t2 = table2(results)
    checks = []
    optimized = t2["optimized/baseline"]
    checks.append(
        _check(
            "Table II: Unsharp is the largest geomean win",
            optimized["Unsharp"] == max(optimized.values()),
            f"measured {optimized['Unsharp']:.3f}, paper 2.522",
        )
    )
    for (label, app), (lo, hi) in _TABLE2_BANDS.items():
        value = t2[label][app]
        paper = PAPER_TABLE2[label][app]
        in_band = lo <= value <= hi
        near_paper = abs(value - paper) <= 0.15
        status = PASS if (in_band and near_paper) else (
            DEVIATION if in_band else FAIL
        )
        checks.append(
            CheckResult(
                f"Table II {label} {app}",
                status,
                f"measured {value:.3f}, paper {paper:.3f}",
            )
        )
    return checks


#: The check suites that need no evaluation matrix, in report order.
SUITES: Dict[str, Callable[[], List[CheckResult]]] = {
    "Figure 3 (Harris walk-through)": check_figure3,
    "Figure 4 (border fusion)": check_figure4,
    "Fusion decisions": check_fusion_decisions,
    "Functional equivalence": check_semantics,
}


def run_all_checks(
    results: Dict[ResultKey, AppResult] | None = None,
) -> List[Tuple[str, List[CheckResult]]]:
    """Run every suite; returns (suite name, results) pairs.  The
    evaluation-shape suite reads ``results`` — the caller's matrix, so
    its Table II cells are the ones printed beside it — or a fresh
    500-run one, which is what ``docs/artifact/`` was built from."""
    outcome = [(name, suite()) for name, suite in SUITES.items()]
    shape = check_evaluation_shape(results or run_matrix())
    return outcome + [("Evaluation shape (Tables I/II)", shape)]


def render_report(
    outcome: List[Tuple[str, List[CheckResult]]] | None = None,
) -> str:
    """The full conformance report as text."""
    outcome = outcome or run_all_checks()
    lines = ["PAPER CONFORMANCE REPORT",
             "(PASS = reproduces; DEVIATION = shape holds, magnitude "
             "differs as documented in EXPERIMENTS.md)"]
    counts = {PASS: 0, DEVIATION: 0, FAIL: 0}
    for suite_name, results in outcome:
        lines.append("")
        lines.append(suite_name)
        for result in results:
            counts[result.status] += 1
            lines.append("  " + result.line())
    lines.append("")
    lines.append(
        f"summary: {counts[PASS]} pass, {counts[DEVIATION]} deviation, "
        f"{counts[FAIL]} fail"
    )
    return "\n".join(lines)


def has_failures(
    outcome: List[Tuple[str, List[CheckResult]]],
) -> bool:
    """Whether any check in the outcome carries the FAIL verdict."""
    return any(
        result.status == FAIL for _, results in outcome for result in results
    )
