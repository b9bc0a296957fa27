"""Command-line interface: ``python -m repro.faults {corrupt,sweep}``.

``corrupt`` writes a corrupted copy of a log directory (for by-hand
inspection or as a test fixture); ``sweep`` runs the certification
sweep over the whole catalog and exits non-zero on any contract
violation.  ``--seeds N`` sizes the sweep (``make fuzz-smoke`` runs 5).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.faults.catalog import CATALOG
from repro.faults.inject import corrupt_copy, sweep

__all__ = ["main", "build_arg_parser"]

#: Seeds per corruption in a full sweep.
FULL_SEEDS = 25


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.faults",
        description="Seeded log-corruption fault injection for SDchecker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corrupt = sub.add_parser(
        "corrupt", help="write a corrupted copy of a log directory"
    )
    corrupt.add_argument("logdir", help="clean log directory to copy")
    corrupt.add_argument("out", help="destination for the corrupted copy")
    corrupt.add_argument(
        "--corruption",
        action="append",
        choices=sorted(CATALOG),
        required=True,
        help="catalog entry to apply (repeatable, applied in order)",
    )
    corrupt.add_argument("--seed", type=int, default=0)

    sweep_parser = sub.add_parser(
        "sweep", help="certify the miner against the corruption catalog"
    )
    sweep_parser.add_argument("logdir", help="clean log directory to sweep over")
    sweep_parser.add_argument(
        "--corruption",
        action="append",
        choices=sorted(CATALOG),
        help="restrict the sweep to these catalog entries (default: all)",
    )
    sweep_parser.add_argument(
        "--seeds",
        type=int,
        default=FULL_SEEDS,
        metavar="N",
        help=f"seeds per corruption (default {FULL_SEEDS})",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="mining worker processes for the analyzed corpora",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    logdir = Path(args.logdir)
    if not logdir.is_dir():
        print(f"repro.faults: {logdir} is not a directory", file=sys.stderr)
        return 2

    if args.command == "corrupt":
        receipts = corrupt_copy(logdir, args.out, args.corruption, seed=args.seed)
        for receipt in receipts:
            for detail in receipt.details:
                print(f"{receipt.corruption}: {detail}")
            if not receipt.details:
                print(f"{receipt.corruption}: no-op at this seed")
        return 0

    results = sweep(
        logdir, seeds=range(args.seeds), names=args.corruption, jobs=args.jobs
    )
    failures = 0
    for result in results:
        print(result.describe())
        if not result.passed:
            failures += 1
    print(
        f"sweep: {len(results)} cell(s), {failures} failure(s), "
        f"{sum(1 for r in results if r.degraded)} degraded-but-accounted"
    )
    return 0 if not failures else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
