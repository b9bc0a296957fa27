#!/usr/bin/env python
"""Centralized vs distributed scheduling — and the SPARK-21562 bug.

Replays a short TPC-H query trace twice: once on the Capacity Scheduler
(centralized, guaranteed containers) and once on the Hadoop-3
distributed scheduler (opportunistic containers).  Compares the
aggregated container-allocation delays (the paper's Fig 7a) and runs
SDchecker's bug detector, which flags the containers Spark
over-requests in opportunistic mode but never uses (section V-A).

Usage::

    python examples/scheduler_comparison.py [--queries N] [--seed N]
"""

import argparse

from repro.workloads.scenarios import trace_recipe


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=40)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    base = trace_recipe(args.queries, seed=args.seed)

    print(f"Replaying {args.queries} TPC-H queries per scheduler...\n")
    results = {}
    for label, scheduler in (("centralized", "capacity"), ("distributed", "opportunistic")):
        report = base.variant(scheduler=scheduler).run().report
        results[label] = report
        alloc = report.sample("allocation_delay")
        total = report.sample("total_delay")
        print(
            f"{label:12s}: allocation med={alloc.p50 * 1000:7.1f}ms "
            f"p95={alloc.p95 * 1000:7.1f}ms | total p95={total.p95:5.1f}s | "
            f"bug findings: {len(report.bug_findings)}"
        )

    ce = results["centralized"].sample("allocation_delay")
    de = results["distributed"].sample("allocation_delay")
    print(f"\nDistributed scheduler is {ce.p50 / de.p50:.0f}x faster at the median")
    print("(the paper measured ~80x on its testbed, p95 108ms vs 3709ms)")

    findings = results["distributed"].bug_findings
    print(
        f"\nSPARK-21562 check: {len(findings)} allocated-but-unused container(s) "
        f"in opportunistic mode:"
    )
    for finding in findings[:6]:
        print(f"  {finding.app_id}: {finding.describe()}")
    if len(findings) > 6:
        print(f"  ... and {len(findings) - 6} more")
    print(
        "\nThese containers log RM-side states only (ALLOCATED/ACQUIRED/"
        "RELEASED) — exactly the incomplete workflows that led the paper's "
        "authors to report the bug."
    )


if __name__ == "__main__":
    main()
