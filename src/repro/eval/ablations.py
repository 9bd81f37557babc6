"""The ablation and characterization reports around the paper's tables.

Each function computes one deterministic report on the GTX680 model and
returns its text; :data:`REPORTS` names the file
:func:`repro.eval.artifact.build_artifact` writes it to.  The sweeps
themselves live in :mod:`repro.eval.sweeps`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.apps import APPLICATIONS
from repro.backend.launch import simulate_partition
from repro.backend.roofline import device_balance, render_roofline_report
from repro.eval import sweeps
from repro.eval.tables import GPU_ORDER, PAPER_TABLE1
from repro.fusion import FUSERS, optimality_gap, partition_for
from repro.model.benefit import estimate_graph
from repro.model.blocktune import tune_partition, tuned_total_ms
from repro.model.hardware import GTX680 as GPU

THRESHOLDS = (1.0, 2.0, 3.0, 5.0, 8.0)
T_GLOBALS = (400, 4_000, 40_000, 400_000, 4_000_000)
PRODUCER_OPS = (0, 2, 5, 6, 10, 40)
EPSILONS = (1e-9, 1e-6, 1e-3, 1e-1, 1.0)
SIZES = (64, 128, 256, 512, 1024, 2048)


def _paper_partitions():
    """(app, version, graph, partition) at paper geometry, unfused and
    min-cut fused, apps in name order."""
    for app_name, spec in sorted(APPLICATIONS.items()):
        graph = spec.pipeline().build()
        for version in ("baseline", "optimized"):
            yield app_name, version, graph, partition_for(graph, GPU, version)


def cmshared_sweep(app_name: str) -> str:
    """Eq. (2)'s threshold: launches, β and simulated time per cMshared."""
    lines = [f"ABLATION: cMshared SWEEP ({app_name}, {GPU.name})",
             f"{'cMshared':>9}{'launches':>10}{'beta':>10}{'sim ms':>10}"]
    rows = sweeps.threshold_sweep(APPLICATIONS[app_name], GPU, THRESHOLDS)
    for threshold, (launches, beta, ms) in rows.items():
        lines.append(f"{threshold:>9.1f}{launches:>10d}{beta:>10.1f}{ms:>10.3f}")
    return "\n".join(lines)


def t_global_sweep() -> str:
    """Eqs. (8)/(11): where expensive memory justifies recomputing
    Night's expensive producer."""
    rows = sweeps.t_global_sweep(
        APPLICATIONS["Night"], GPU, T_GLOBALS, ("atrous0", "atrous1", "scoto")
    )
    return "\n".join(
        ["ABLATION: t_global SWEEP ON NIGHT (decision flip)",
         f"{'t_g':>10}  fused atrous pair?",
         *(f"{t_global:>10}  {fused}" for t_global, fused in rows.items())]
    )


def producer_cost_sweep() -> str:
    """The dual flip: a producer too expensive to recompute per tap."""
    lines = ["ABLATION: PRODUCER COST SWEEP (point-to-local pair)",
             f"{'extra ops':>10}{'phi':>12}{'w':>12}  fuse?"]
    for ops, est in sweeps.producer_cost_sweep(GPU, PRODUCER_OPS).items():
        lines.append(f"{ops:>10}{est.phi:>12.1f}{est.raw_benefit:>12.1f}  "
                     f"{est.profitable}")
    return "\n".join(lines)


def epsilon_sweep() -> str:
    """Eq. (12): is the Harris partition the smallest ε's at every ε?"""
    rows = sweeps.epsilon_sweep(EPSILONS)
    reference = rows[EPSILONS[0]]
    return "\n".join(
        ["ABLATION: EPSILON SENSITIVITY (Harris partition signature)",
         f"{'epsilon':>10}  partition unchanged?",
         *(f"{eps:>10.0e}  {blocks == reference}" for eps, blocks in rows.items())]
    )


def engine_comparison() -> str:
    """β, launches and simulated time of every fusion engine on every
    application (Section III-C: what pairwise scans preclude)."""
    lines = [f"ABLATION: FUSION ENGINE COMPARISON ({GPU.name})",
             f"{'app':<12}{'engine':<12}{'beta':>10}{'launches':>10}"
             f"{'sim ms':>10}"]
    for app_name, spec in sorted(APPLICATIONS.items()):
        graph = spec.pipeline().build()
        weighted = estimate_graph(graph, GPU)
        for engine_name, fuser in sorted(FUSERS.items()):
            partition = fuser(weighted).partition
            ms = simulate_partition(graph, partition, GPU).total_ms
            lines.append(
                f"{app_name:<12}{engine_name:<12}{partition.benefit:>10.1f}"
                f"{len(partition):>10d}{ms:>10.3f}"
            )
    return "\n".join(lines)


def optimality() -> str:
    """Algorithm 1 against the enumerated optimum (NP-complete for
    unknown k, but all six apps are small enough to enumerate)."""
    lines = ["ABLATION: MIN-CUT HEURISTIC VS ENUMERATED OPTIMUM",
             f"{'app':<12}{'kernels':>8}{'beta(mincut)':>14}{'gap':>8}"]
    for app_name, spec in APPLICATIONS.items():
        weighted = estimate_graph(spec.build(64, 64).build(), GPU)
        lines.append(
            f"{app_name:<12}{len(weighted.graph):>8}"
            f"{FUSERS['optimized'](weighted).benefit:>14.1f}"
            f"{optimality_gap(weighted):>8.3f}"
        )
    lines += ["", "gap = beta(exhaustive optimum) - beta(Algorithm 1)"]
    return "\n".join(lines)


def size_sweeps() -> str:
    """Speedup vs image size: launch-overhead regime at tiny images,
    traffic regime at large ones, for three characteristic apps."""
    return "\n\n".join(
        sweeps.render_size_sweep(
            name, GPU.name,
            sweeps.size_sweep(APPLICATIONS[name].build, GPU, SIZES),
        )
        for name in ("Unsharp", "Harris", "Night")
    )


def blockshape() -> str:
    """Thread-block shape tuning of every launch, unfused and fused
    (fused windows are wider, so the best shape can shift)."""
    lines = [f"ABLATION: THREAD-BLOCK SHAPE TUNING ({GPU.name})"]
    for app_name, version, graph, partition in _paper_partitions():
        results = tune_partition(graph, partition, GPU)
        default = sum(r.default_ms for r in results)
        tuned = tuned_total_ms(results)
        reshaped = sum(r.best_shape != r.default_shape for r in results)
        lines += ["", f"{app_name} / {version}: default {default:.4f} ms -> "
                  f"tuned {tuned:.4f} ms ({default / tuned:.3f}x, "
                  f"{reshaped} launches re-shaped)"]
        lines.extend("  " + r.describe() for r in results)
    return "\n".join(lines)


def kernel_breakdowns() -> str:
    """Per-kernel simulated times, as the paper's artifact prints them."""
    lines = [f"PER-KERNEL EXECUTION TIMES (simulated, {GPU.name}) — the"
             " artifact's per-kernel output"]
    for app_name, version, graph, partition in _paper_partitions():
        timing = simulate_partition(graph, partition, GPU)
        lines += ["", f"{app_name} / {version} ({timing.launches} launches, "
                  f"total {timing.total_ms:.3f} ms)"]
        for kernel in timing.kernels:
            bound = "mem" if kernel.memory_bound else "comp"
            lines.append(f"  {kernel.name:<32}{kernel.time_ms:>9.4f} ms  "
                         f"[{bound}-bound, occ {kernel.occupancy:.0%}]")
    return "\n".join(lines)


def roofline() -> str:
    """Roofline placement of every launch before and after fusion
    (Section V-C: Night is compute-bound, so fusion cannot help it)."""
    sections = [f"ROOFLINE CHARACTERIZATION ({GPU.name}, balance "
                f"{device_balance(GPU):.2f} cycles/B)"]
    for spec in APPLICATIONS.values():
        graph = spec.pipeline().build()
        sections.append(render_roofline_report(
            graph, partition_for(graph, GPU, "baseline"),
            partition_for(graph, GPU, "optimized"), GPU,
        ))
    return "\n\n".join(sections)


def calibration() -> str:
    """The simulator's constants fitted to the published Table I (needs
    scipy); fusion decisions keep the paper's constants throughout."""
    from repro.model.calibration import calibrate, simulated_table1, table1_loss

    result = calibrate(max_evaluations=150)
    before, after = simulated_table1(), simulated_table1(result.knobs)
    lines = ["SIMULATOR CALIBRATION AGAINST PUBLISHED TABLE I",
             result.describe(), "",
             f"{'comparison':<20}{'gpu':<9}{'app':<11}{'paper':>8}"
             f"{'default':>9}{'fitted':>9}"]
    for label in before:
        for gpu in GPU_ORDER:
            for app, paper_value in PAPER_TABLE1[label][gpu].items():
                lines.append(
                    f"{label:<20}{gpu:<9}{app:<11}{paper_value:>8.3f}"
                    f"{before[label][gpu][app]:>9.3f}"
                    f"{after[label][gpu][app]:>9.3f}"
                )
    lines += ["", f"mean squared log-error: {table1_loss(before):.4f} "
              f"(default) -> {table1_loss(after):.4f} (fitted)"]
    return "\n".join(lines)


#: Report file name -> the function that renders it (calibration apart:
#: it is written only where scipy imports).
REPORTS: Dict[str, Callable[[], str]] = {
    "ablation_cmshared_harris.txt": lambda: cmshared_sweep("Harris"),
    "ablation_cmshared_sobel.txt": lambda: cmshared_sweep("Sobel"),
    "ablation_tg_night.txt": t_global_sweep,
    "ablation_producer_cost.txt": producer_cost_sweep,
    "ablation_epsilon.txt": epsilon_sweep,
    "ablation_engines.txt": engine_comparison,
    "ablation_optimality.txt": optimality,
    "ablation_size_sweep.txt": size_sweeps,
    "ablation_blockshape.txt": blockshape,
    "kernel_breakdowns.txt": kernel_breakdowns,
    "roofline.txt": roofline,
}
