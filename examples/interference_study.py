#!/usr/bin/env python
"""How co-located workloads inflate the scheduling delay (Figs 12-13).

Runs the same TPC-H query trace three times: interference-free, under
dfsIO write pressure (IO interference), and alongside Kmeans apps
(CPU interference).  Prints per-component slowdown factors, showing the
paper's headline contrast: IO interference savages the *out-application*
path (localization, launching), while CPU interference hits the
*in-application* path (driver/executor JVM warm-up).

Usage::

    python examples/interference_study.py [--queries N] [--dfsio-maps N]
                                          [--kmeans-apps N] [--seed N]
"""

import argparse

from repro.experiments.harness import DfsioLoad, KmeansLoad
from repro.workloads.scenarios import trace_recipe

COMPONENTS = (
    ("total", lambda r: r.sample("total_delay")),
    ("out-app", lambda r: r.sample("out_app_delay")),
    ("in-app", lambda r: r.sample("in_app_delay")),
    ("localization", lambda r: r.container_sample("localization", workers_only=False)),
    ("driver", lambda r: r.sample("driver_delay")),
    ("executor", lambda r: r.sample("executor_delay")),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=40)
    parser.add_argument("--dfsio-maps", type=int, default=100)
    parser.add_argument("--kmeans-apps", type=int, default=16)
    parser.add_argument("--seed", type=int, default=6)
    args = parser.parse_args()

    base = trace_recipe(args.queries, seed=args.seed, mean_interarrival_s=3.0)
    runs = {
        "baseline": base,
        f"dfsIO x{args.dfsio_maps}": base.variant(
            interference=DfsioLoad(args.dfsio_maps)
        ),
        f"Kmeans x{args.kmeans_apps}": base.variant(
            interference=KmeansLoad(args.kmeans_apps)
        ),
    }

    reports = {}
    for label, scenario in runs.items():
        print(f"running {label} ...")
        reports[label] = scenario.run().report

    baseline = reports["baseline"]
    print(f"\n{'component':14s}", end="")
    for label in runs:
        print(f"{label:>18s}", end="")
    print("\n" + "-" * (14 + 18 * len(runs)))
    for name, extract in COMPONENTS:
        print(f"{name:14s}", end="")
        for label in runs:
            sample = extract(reports[label])
            if label == "baseline":
                print(f"{sample.p95:15.2f}s  ", end="")
            else:
                factor = sample.p95 / extract(baseline).p95
                print(f"{sample.p95:10.2f}s x{factor:4.1f}", end="")
        print()

    print(
        "\nReading: IO interference inflates localization/out-application "
        "delays (Fig 12); CPU interference inflates driver/executor "
        "delays (Fig 13)."
    )


if __name__ == "__main__":
    main()
