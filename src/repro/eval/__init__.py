"""Evaluation harness reproducing the paper's tables and figures.

* :mod:`repro.eval.runner` — run every (application, GPU, version)
  configuration through the fusion engines and the simulator,
* :mod:`repro.eval.stats` — medians, percentiles, box-plot statistics,
  geometric means,
* :mod:`repro.eval.tables` — Table I (speedups per GPU) and Table II
  (geometric means across GPUs), with the paper's published values for
  side-by-side comparison,
* :mod:`repro.eval.figures` — Fig. 3 (Harris fusion trace), Fig. 4
  (border-fusion worked example), Fig. 6 (execution-time
  distributions),
* :mod:`repro.eval.report` — text rendering, one renderer per report,
* :mod:`repro.eval.sweeps` / :mod:`repro.eval.ablations` — parameter
  sweeps and the ablation reports around the tables,
* :mod:`repro.eval.artifact` — the one builder that writes all of the
  above (``python -m repro artifact``; tracked under ``docs/artifact/``).
"""

from repro.eval.runner import (
    AppResult,
    ResultKey,
    VERSIONS,
    run_configuration,
    run_matrix,
)
from repro.eval.stats import BoxStats, box_stats, geometric_mean, median
from repro.eval.tables import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    speedup_table,
    table1,
    table2,
)
from repro.eval.figures import figure3_trace, figure4_example, figure6_data

__all__ = [
    "AppResult",
    "BoxStats",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "ResultKey",
    "VERSIONS",
    "box_stats",
    "figure3_trace",
    "figure4_example",
    "figure6_data",
    "geometric_mean",
    "median",
    "run_configuration",
    "run_matrix",
    "speedup_table",
    "table1",
    "table2",
]
