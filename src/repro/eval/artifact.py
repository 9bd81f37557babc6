"""One-command artifact builder.

Writes every reproduced table, figure, report, and generated source to
a directory — the equivalent of the paper's artifact package.  The
benchmark suite produces the same files piecemeal (with timing); this
is the "give me everything" entry point:

::

    python -m repro artifact --out artifact/
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.apps import APPLICATIONS
from repro.backend.codegen_cuda import generate_cuda_pipeline
from repro.backend.codegen_opencl import generate_opencl_pipeline
from repro.backend.native_lower import lower_partition_source
from repro.backend.roofline import render_roofline_report
from repro.eval.ascii_chart import render_figure6_chart
from repro.eval.figures import figure3_trace, figure4_example, figure6_data
from repro.eval.paper_check import render_report, run_all_checks
from repro.eval.report import render_figure6, render_table1, render_table2
from repro.eval.runner import run_matrix, partition_for
from repro.eval.serialize import dumps, matrix_to_json
from repro.eval.tables import APP_ORDER, GPU_ORDER
from repro.graph.partition import Partition, PartitionBlock
from repro.graph.viz import to_dot
from repro.model.hardware import GTX680


def _figure3_text() -> str:
    result = figure3_trace()
    lines = ["FIGURE 3: KERNEL FUSION APPLIED TO THE HARRIS CORNER DETECTOR",
             "", result.weighted.describe_edges(), ""]
    lines.extend(event.describe() for event in result.trace)
    lines += ["", result.partition.describe()]
    return "\n".join(lines)


def _figure4_text() -> str:
    fig4 = figure4_example()
    return "\n".join([
        "FIGURE 4: BORDER-CORRECT LOCAL-TO-LOCAL FUSION",
        f"intermediate window:\n{fig4.intermediate_center.astype(int)}",
        f"interior fused value (paper 992): {fig4.interior_value:.0f}",
        f"staged clamp border  (paper 763): {fig4.staged_border_value:.0f}",
        f"fused + index exchange          : {fig4.fused_border_value:.0f}",
        f"fused naive (incorrect)         : {fig4.naive_border_value:.0f}",
    ])


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
    write("figure3_trace.txt", _figure3_text())
    write("figure4_border.txt", _figure4_text())
    write("results.json", dumps(matrix_to_json(results)))
    write("conformance_report.txt", render_report(run_all_checks()))

    rooflines: Dict[str, str] = {}
    for app_name, spec in APPLICATIONS.items():
        from repro.model.benefit import estimate_graph

        graph = spec.pipeline().build()
        weighted = estimate_graph(graph, GTX680)
        baseline = Partition.singletons(graph)
        optimized = partition_for(graph, GTX680, "optimized")
        rooflines[app_name] = render_roofline_report(
            graph, baseline, optimized, GTX680
        )
        if include_sources:
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
            # Re-anchor the partition on the weighted graph so the DOT
            # edges carry the estimated benefit labels.
            weighted_partition = Partition(
                weighted.graph,
                [
                    PartitionBlock(weighted.graph, block.vertices)
                    for block in optimized.blocks
                ],
            )
            write(
                f"graph_{stem}.dot",
                to_dot(
                    weighted.graph,
                    weighted_partition,
                    epsilon=weighted.config.epsilon,
                    title=app_name,
                ),
            )
    write(
        "roofline.txt",
        "\n\n".join(rooflines[name] for name in APPLICATIONS),
    )
    return written
