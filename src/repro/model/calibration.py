"""Calibrating the performance simulator against published numbers.

The simulator's constants (DRAM efficiency, memory/compute overlap,
launch overhead, SFU cost) are physical estimates, not measurements of
the authors' testbed.  This module fits them: a derivative-free
optimizer (scipy's Nelder–Mead) minimizes the squared log-error between
the simulated speedup tables and the paper's published Table I, over
user-selected knobs with physical bounds.

Calibration never touches the *decision* side of the reproduction —
edge weights, legality, and partitions use the paper's own constants
(``t_g = 400``, ``c_ALU = 4``) throughout; only the milliseconds
reported by the simulator move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.apps import APPLICATIONS
from repro.eval.tables import GPU_ORDER, PAPER_TABLE1
from repro.fusion import partition_for
from repro.model.hardware import GTX680, GTX745, K20C, GpuSpec

#: Knobs the optimizer may move, with physical bounds.
KNOB_BOUNDS: Dict[str, Tuple[float, float]] = {
    "dram_efficiency": (0.3, 0.95),
    "overlap": (0.0, 1.0),
    "launch_overhead_us": (1.0, 50.0),
    "c_sfu": (4.0, 64.0),
    "border_penalty_cycles": (0.0, 200.0),
    "occupancy_saturation": (0.05, 1.0),
}

#: The comparisons used as the fitting target.
_FIT_COMPARISONS = (
    ("baseline", "optimized", "optimized/baseline"),
    ("baseline", "basic", "basic/baseline"),
)

_BASE_GPUS = (GTX745, GTX680, K20C)


def _apply_knobs(gpu: GpuSpec, knobs: Dict[str, float]) -> GpuSpec:
    return replace(gpu, **knobs)


#: Lazily-built cache of fused launch lists per application and version.
#: Pipelines and fusion decisions are knob-independent (decisions use
#: the paper's model constants), so only the per-kernel timing re-runs
#: per objective evaluation — and the fused Kernel objects are reused,
#: keeping their cached derived properties warm.
_PREPARED: Dict[str, Dict[str, list]] = {}


def _prepared() -> Dict[str, Dict[str, list]]:
    if not _PREPARED:
        from repro.fusion.fuser import fuse_partition

        for app_name, spec in APPLICATIONS.items():
            graph = spec.pipeline().build()
            _PREPARED[app_name] = {
                version: fuse_partition(
                    graph, partition_for(graph, GTX680, version)
                )
                for version in ("baseline", "basic", "optimized")
            }
    return _PREPARED


def simulated_table1(
    knobs: Dict[str, float] | None = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Noise-free Table I from the simulator under the given knobs."""
    from repro.backend.launch import simulate_kernels

    knobs = knobs or {}
    gpus = [_apply_knobs(gpu, knobs) for gpu in _BASE_GPUS]
    table: Dict[str, Dict[str, Dict[str, float]]] = {
        label: {gpu.name: {} for gpu in gpus}
        for _, _, label in _FIT_COMPARISONS
    }
    for app_name, launches in _prepared().items():
        for gpu in gpus:
            times = {
                version: simulate_kernels(kernels, gpu).total_ms
                for version, kernels in launches.items()
            }
            for slow, fast, label in _FIT_COMPARISONS:
                table[label][gpu.name][app_name] = (
                    times[slow] / times[fast]
                )
    return table


def table1_loss(table: Dict[str, Dict[str, Dict[str, float]]]) -> float:
    """Mean squared log-error against the published Table I cells."""
    errors: List[float] = []
    for _, _, label in _FIT_COMPARISONS:
        for gpu_name in GPU_ORDER:
            for app_name, paper_value in PAPER_TABLE1[label][gpu_name].items():
                measured = table[label][gpu_name][app_name]
                errors.append(
                    (math.log(measured) - math.log(paper_value)) ** 2
                )
    return sum(errors) / len(errors)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a calibration run."""

    knobs: Dict[str, float]
    loss_before: float
    loss_after: float
    evaluations: int

    @property
    def improvement(self) -> float:
        """Relative loss reduction (0..1)."""
        if self.loss_before == 0.0:
            return 0.0
        return 1.0 - self.loss_after / self.loss_before

    def describe(self) -> str:
        knob_text = ", ".join(
            f"{name}={value:.3g}" for name, value in self.knobs.items()
        )
        return (
            f"calibrated [{knob_text}] — loss {self.loss_before:.4f} -> "
            f"{self.loss_after:.4f} ({self.improvement:.0%} better, "
            f"{self.evaluations} evaluations)"
        )


def calibrate(
    knob_names: Sequence[str] = ("dram_efficiency", "overlap",
                                 "launch_overhead_us", "c_sfu"),
    max_evaluations: int = 120,
) -> CalibrationResult:
    """Fit the selected knobs to the published Table I.

    Uses scipy's Nelder–Mead with bound clipping; each objective
    evaluation simulates the full 6 x 3 x 3 matrix (noise-free).
    """
    from scipy.optimize import minimize

    for name in knob_names:
        if name not in KNOB_BOUNDS:
            raise ValueError(f"unknown calibration knob {name!r}")

    defaults = {name: getattr(GTX680, name) for name in knob_names}
    x0 = [defaults[name] for name in knob_names]
    counter = {"n": 0}

    def objective(x) -> float:
        counter["n"] += 1
        knobs = {}
        for name, value in zip(knob_names, x):
            lo, hi = KNOB_BOUNDS[name]
            knobs[name] = float(min(max(value, lo), hi))
        return table1_loss(simulated_table1(knobs))

    loss_before = table1_loss(simulated_table1({}))
    result = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"maxfev": max_evaluations, "xatol": 1e-3, "fatol": 1e-5},
    )
    fitted = {}
    for name, value in zip(knob_names, result.x):
        lo, hi = KNOB_BOUNDS[name]
        fitted[name] = float(min(max(value, lo), hi))
    loss_after = table1_loss(simulated_table1(fitted))
    if loss_after > loss_before:  # optimizer wandered off: keep defaults
        fitted, loss_after = defaults, loss_before
    return CalibrationResult(
        knobs=fitted,
        loss_before=loss_before,
        loss_after=loss_after,
        evaluations=counter["n"],
    )
