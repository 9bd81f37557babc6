"""One-command artifact builder.

Writes every reproduced table, figure, ablation, conformance report and
generated source to a directory — the equivalent of the paper's
artifact package, and the only way this repository regenerates them:

::

    python -m repro artifact --out artifact/

Everything that reads the evaluation matrix reads the *one*
:func:`~repro.eval.runner.run_matrix` result computed here, so no number
appears twice with two values.  ``docs/artifact/`` is this function's
output at 500 runs (less the host-tuned ``generated_*.c``);
``tests/eval/test_artifact.py`` keeps the two equal.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import List

from repro.apps import APPLICATIONS
from repro.backend.codegen_cuda import generate_cuda_pipeline
from repro.backend.codegen_opencl import generate_opencl_pipeline
from repro.backend.native_exec import lower_partition_source
from repro.eval.ablations import REPORTS, calibration
from repro.eval.ascii_chart import render_figure6_chart
from repro.eval.figures import figure3_trace, figure4_example, figure6_data
from repro.eval.paper_check import render_report, run_all_checks
from repro.eval.report import (
    render_figure3,
    render_figure4,
    render_figure6,
    render_table1,
    render_table2,
)
from repro.eval.runner import run_matrix
from repro.eval.serialize import dumps, matrix_to_json
from repro.eval.tables import APP_ORDER, GPU_ORDER
from repro.fusion import FUSERS
from repro.graph.viz import to_dot
from repro.model.benefit import estimate_graph
from repro.model.hardware import GTX680


def build_artifact(
    output_dir: str | Path,
    runs: int = 500,
    include_sources: bool = True,
) -> List[Path]:
    """Write the full artifact; returns the paths written."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    def write(name: str, text: str) -> None:
        path = out / name
        path.write_text(text + "\n")
        written.append(path)

    results = run_matrix(runs=runs)
    write("table1_speedups.txt", render_table1(results))
    write("table2_geomean.txt", render_table2(results))
    write("figure6_exec_times.txt", render_figure6(results))
    write(
        "figure6_ascii.txt",
        render_figure6_chart(
            figure6_data(results), apps=APP_ORDER, gpus=GPU_ORDER
        ),
    )
    write("figure3_trace.txt", render_figure3(figure3_trace()))
    write("figure4_border.txt", render_figure4(figure4_example()))
    write("results.json", dumps(matrix_to_json(results)))
    write("conformance_report.txt", render_report(run_all_checks(results)))
    for name, render in REPORTS.items():
        write(name, render())
    if importlib.util.find_spec("scipy"):
        write("calibration.txt", calibration())

    if include_sources:
        for app_name, spec in APPLICATIONS.items():
            graph = spec.pipeline().build()
            weighted = estimate_graph(graph, GTX680)
            optimized = FUSERS["optimized"](weighted).partition
            stem = app_name.lower()
            write(
                f"generated_{stem}_fused.cu",
                generate_cuda_pipeline(graph, optimized),
            )
            write(
                f"generated_{stem}_fused.cl",
                generate_opencl_pipeline(graph, optimized),
            )
            write(
                f"generated_{stem}_fused.c",
                lower_partition_source(graph, optimized),
            )
            # The weighted graph: DOT edges carry the estimated benefits.
            write(
                f"graph_{stem}.dot",
                to_dot(
                    weighted.graph,
                    optimized,
                    epsilon=weighted.config.epsilon,
                    title=app_name,
                ),
            )
    return written
