#!/usr/bin/env python
"""Offline workflow: run jobs, collect logs, analyze them later.

This mirrors exactly how the paper positions SDchecker ("users first
need to run a bunch of data analytics applications... after these
applications complete, SDchecker collects both Yarn's logs and
applications' logs"):

1. generate and save a submission trace (the google-trace stand-in);
2. replay it twice — clean, and under dfsIO interference — dumping each
   run's logs to a directory of plain ``.log`` files;
3. analyze both directories *offline* with SDchecker, render an ASCII
   CDF, export per-app CSVs, and diff the runs.

Everything after step 2 works on text files only — you could delete the
simulator and the analysis would still run.

Usage::

    python examples/offline_analysis.py [--workdir DIR] [--queries N]
"""

import argparse
import tempfile
from pathlib import Path

from repro.core.checker import SDChecker
from repro.experiments.harness import DfsioLoad
from repro.simul.distributions import RandomSource
from repro.workloads.google_trace import (
    google_trace_arrivals,
    save_trace_csv,
    tpch_query_mix,
)
from repro.workloads.scenarios import trace_recipe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--queries", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="sdchecker-"))
    workdir.mkdir(parents=True, exist_ok=True)

    # -- 1. build + persist the trace ------------------------------------
    rng = RandomSource(args.seed, "offline")
    arrivals = google_trace_arrivals(args.queries, 3.5, rng.child("arrivals"))
    queries = tpch_query_mix(args.queries, rng.child("mix"))
    trace_path = save_trace_csv(workdir / "trace.csv", arrivals, queries)
    print(f"saved trace: {trace_path}")

    # -- 2. replay twice, dumping logs -------------------------------------
    clean = trace_recipe(seed=args.seed, trace_file=str(trace_path))
    runs = {
        "clean": clean,
        "dfsio": clean.variant(interference=DfsioLoad(100)),
    }
    logdirs = {}
    for label, scenario in runs.items():
        result = scenario.run()
        logdirs[label] = workdir / f"logs-{label}"
        result.testbed.dump_logs(logdirs[label])
        n_files = len(list(logdirs[label].glob("*.log")))
        print(f"replayed {label!r}: {n_files} log files -> {logdirs[label]}")

    # -- 3. offline analysis from text files only ---------------------------
    checker = SDChecker()
    clean = checker.analyze(logdirs["clean"])
    noisy = checker.analyze(logdirs["dfsio"])

    print("\nclean-run total scheduling delay:")
    print(clean.sample("total_delay").ascii_cdf())

    csv_path = clean.to_csv(workdir / "clean-apps.csv")
    print(f"\nper-application metrics: {csv_path}")

    print("\nclean (A) vs dfsIO-interfered (B):")
    print(clean.compare(noisy, label_self="A", label_other="B"))
    print(
        "\nEquivalent CLI:\n"
        f"  sdchecker {logdirs['clean']} --cdf total_delay\n"
        f"  sdchecker {logdirs['clean']} --csv apps.csv\n"
        f"  sdchecker {logdirs['clean']} --compare {logdirs['dfsio']}"
    )


if __name__ == "__main__":
    main()
