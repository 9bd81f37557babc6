"""Text rendering of the evaluation output.

Formats the reproduced tables in the paper's row/column layout, with
optional side-by-side paper values, the Fig. 6 data as per-GPU blocks
of box-plot statistics, and the Fig. 3 / Fig. 4 worked examples.  Each
report has exactly one renderer: the CLI prints what the artifact
writes.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.eval.figures import Figure4Result, figure6_data
from repro.eval.runner import AppResult, ResultKey
from repro.fusion import FusionResult
from repro.eval.tables import (
    APP_ORDER,
    GPU_ORDER,
    PAPER_TABLE1,
    PAPER_TABLE2,
    table1,
    table2,
)


_LABEL_WIDTH = 20


def _format_row(label: str, values: Iterable[float], width: int = 11) -> str:
    cells = "".join(f"{value:>{width}.3f}" for value in values)
    return f"{label:<{_LABEL_WIDTH}}{cells}"


def _header(apps: Iterable[str], width: int = 11) -> str:
    return " " * _LABEL_WIDTH + "".join(f"{app:>{width}}" for app in apps)


def render_table1(
    results: Dict[ResultKey, AppResult],
    include_paper: bool = True,
    apps: Tuple[str, ...] = APP_ORDER,
    gpus: Tuple[str, ...] = GPU_ORDER,
) -> str:
    """Table I in the paper's layout (three comparison groups)."""
    computed = table1(results, apps, gpus)
    lines = ["TABLE I: SPEEDUP COMPARISON (reproduced)"]
    for label, per_gpu in computed.items():
        lines.append("")
        lines.append(label)
        lines.append(_header(apps))
        for gpu in gpus:
            lines.append(_format_row(gpu, (per_gpu[gpu][a] for a in apps)))
            if include_paper and label in PAPER_TABLE1:
                paper = PAPER_TABLE1[label][gpu]
                lines.append(
                    _format_row(f"  (paper)", (paper[a] for a in apps))
                )
    return "\n".join(lines)


def render_table2(
    results: Dict[ResultKey, AppResult],
    include_paper: bool = True,
    apps: Tuple[str, ...] = APP_ORDER,
    gpus: Tuple[str, ...] = GPU_ORDER,
) -> str:
    """Table II: geometric means of speedups across all GPUs."""
    computed = table2(results, apps, gpus)
    lines = ["TABLE II: GEOMETRIC MEAN OF SPEEDUPS ACROSS ALL GPUS (reproduced)"]
    lines.append(_header(apps))
    for label, per_app in computed.items():
        lines.append(_format_row(label, (per_app[a] for a in apps)))
        if include_paper and label in PAPER_TABLE2:
            paper = PAPER_TABLE2[label]
            lines.append(_format_row("  (paper)", (paper[a] for a in apps)))
    if include_paper:
        lines += ["", "deviation vs paper:"]
        for label, per_app in computed.items():
            deltas = ", ".join(
                f"{a} {per_app[a] - PAPER_TABLE2[label][a]:+.3f}" for a in apps
            )
            lines.append(f"  {label}: {deltas}")
    return "\n".join(lines)


def render_figure6(
    results: Dict[ResultKey, AppResult],
    apps: Tuple[str, ...] = APP_ORDER,
    gpus: Tuple[str, ...] = GPU_ORDER,
    versions: Tuple[str, ...] = ("baseline", "basic", "optimized"),
) -> str:
    """Fig. 6's content as text: per GPU, per app, per version box stats."""
    stats = figure6_data(results)
    lines = ["FIGURE 6: EXECUTION TIMES IN MS (simulated, 500 runs)"]
    for gpu in gpus:
        lines.append("")
        lines.append(gpu)
        for app in apps:
            for version in versions:
                key = (app, gpu, version)
                if key not in stats:
                    continue
                lines.append(
                    f"  {app:<10} {version:<10} {stats[key].describe()}"
                )
    return "\n".join(lines)


def render_figure3(result: FusionResult) -> str:
    """The Fig. 3 Harris walk-through: edge weights, trace, partition."""
    lines = ["FIGURE 3: KERNEL FUSION APPLIED TO THE HARRIS CORNER DETECTOR",
             "", "edge weights (paper: 328, 328, 256, epsilon elsewhere):",
             result.weighted.describe_edges(), "", "recursive min-cut trace:"]
    lines.extend("  " + event.describe() for event in result.trace)
    lines += ["", "final partition:", result.partition.describe()]
    return "\n".join(lines)


def render_figure4(fig4: Figure4Result) -> str:
    """The Fig. 4 border-fusion worked example on the paper's matrix."""
    return "\n".join([
        "FIGURE 4: LOCAL-TO-LOCAL FUSION ON THE PAPER'S 5x5 MATRIX",
        "",
        f"intermediate window:\n{fig4.intermediate_center.astype(int)}",
        f"interior fused value (paper: 992): {fig4.interior_value:.0f}",
        f"staged clamp border  (paper: 763): {fig4.staged_border_value:.0f}",
        f"fused + index exchange           : {fig4.fused_border_value:.0f}",
        f"fused naive (Fig. 4b, incorrect) : {fig4.naive_border_value:.0f}",
    ])
