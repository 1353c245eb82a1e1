"""Benchmark harness: the paper's experiments and the sweeps around them.

:mod:`repro.bench.experiments` is the one table of paper experiments:
each is a declaration of its grid, its cell and its shape claims, and
``python -m repro run <name>`` sweeps it, prints the table and exits 1
naming any claim the table fails. ``scale`` trades fidelity for
wall-clock time:

- ``"smoke"`` — seconds per experiment; CI checks every shape here,
- ``"quick"`` — tens of seconds; default, reproduces every trend,
- ``"full"``  — minutes; largest clusters/longest windows.

The numbers are *simulated* throughput (virtual-time transactions per
second); see EXPERIMENTS.md for the paper-vs-measured comparison.
"""

from repro.bench.charts import ascii_chart
from repro.bench.compare import Comparison, compare_files, compare_results
from repro.bench.io import load_json, save_csv, save_json
from repro.bench.reporting import ExperimentResult, format_table

__all__ = [
    "Comparison",
    "ExperimentResult",
    "ascii_chart",
    "compare_files",
    "compare_results",
    "format_table",
    "load_json",
    "save_csv",
    "save_json",
]
