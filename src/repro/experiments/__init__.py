"""Experiment harness: one module per paper table/figure.

Each ``figN``/``tableN`` module builds the section IV recipe as a
:class:`~repro.workloads.scenarios.Scenario` (:func:`trace_recipe`),
sweeps the knob the figure studies, runs the simulated testbed, feeds
the rendered logs to SDchecker, and returns the rows/series the paper
reports.  DESIGN.md's experiment index maps every module to its figure;
EXPERIMENTS.md records paper-vs-measured numbers.
"""

from repro.workloads.scenarios import trace_recipe
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7, run_fig7a, run_fig7b, run_fig7c
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9, run_fig9a, run_fig9b
from repro.experiments.fig11 import run_fig11, run_fig11a, run_fig11b
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig13 import run_fig13
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3

__all__ = [
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig7a",
    "run_fig7b",
    "run_fig7c",
    "run_fig8",
    "run_fig9",
    "run_fig9a",
    "run_fig9b",
    "run_fig11",
    "run_fig11a",
    "run_fig11b",
    "run_fig12",
    "run_fig13",
    "run_table2",
    "run_table3",
    "trace_recipe",
]
