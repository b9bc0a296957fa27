#!/usr/bin/env python
"""Localization cost study: what `spark-submit --files` really costs.

Sweeps the size of the extra files each executor must localize before
launching (the paper's Fig 8) and prints the per-container localization
delay alongside the end-to-end scheduling delay — including the
bimodality the paper calls out: the *driver* only localizes the default
package, so sub-second localizations persist at every sweep point.

Usage::

    python examples/localization_study.py [--queries N] [--seed N]
"""

import argparse

from repro.core.stats import DelaySample
from repro.params import GB
from repro.workloads.scenarios import trace_recipe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=12)
    parser.add_argument("--seed", type=int, default=8)
    args = parser.parse_args()

    print(f"{'extra files':>12s} {'executor loc (med/p95)':>24s} "
          f"{'driver loc':>11s} {'total p95':>10s}")
    for extra in (0.0, 1 * GB, 2 * GB, 4 * GB, 8 * GB):
        scenario = trace_recipe(
            args.queries,
            seed=args.seed,
            extra_localized_bytes=extra,
            mean_interarrival_s=45.0,  # spaced: measure one job at a time
        )
        report = scenario.run().report
        loc = report.container_sample("localization")
        driver_loc = DelaySample(
            [
                c.localization_delay
                for a in report.apps
                for c in a.containers
                if c.is_application_master
            ]
        )
        label = "default" if extra == 0 else f"+{extra / GB:.0f} GB"
        print(
            f"{label:>12s} {loc.p50:11.2f}s /{loc.p95:7.2f}s "
            f"{driver_loc.p50:10.2f}s {report.sample('total_delay').p95:9.2f}s"
        )

    print(
        "\nThe paper's mitigation ideas (Table III): serve localization "
        "from a dedicated storage class or a per-node caching service, "
        "so executor payloads stop competing with HDFS data traffic."
    )


if __name__ == "__main__":
    main()
