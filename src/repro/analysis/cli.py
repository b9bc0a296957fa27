"""Command-line interface: ``python -m repro.analysis [options]``.

Runs the five sdlint passes over the simulator source tree, filters
the findings through the checked-in baseline, and exits non-zero when
anything above the baseline remains — the shape CI wants::

    PYTHONPATH=src python -m repro.analysis            # human output
    PYTHONPATH=src python -m repro.analysis --json     # machine output
    PYTHONPATH=src python -m repro.analysis --write-baseline
    PYTHONPATH=src python -m repro.analysis --check-baseline  # the CI gate

The scan root is the directory *containing* the ``repro`` package
(``src/`` in a checkout); the default baseline sits next to it at
``<root>/../sdlint.baseline``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis import PASSES, default_root, run_all
from repro.analysis.baseline import (
    load_baseline,
    partition,
    render_baseline,
    write_baseline,
)

__all__ = ["PASSES", "build_arg_parser", "default_root", "main"]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdlint",
        description=(
            "Static contract checker for the SDchecker reproduction: "
            "log-catalog coverage, state-machine structure, simulator "
            "determinism, async safety, and process-boundary safety."
        ),
    )
    parser.add_argument(
        "--root",
        help="directory containing the 'repro' package (default: the "
        "installed package's parent)",
    )
    parser.add_argument(
        "--baseline",
        help="baseline file of accepted finding keys "
        "(default: <root>/../sdlint.baseline)",
    )
    parser.add_argument(
        "--pass",
        dest="passes",
        action="append",
        choices=sorted(PASSES),
        help="run only this pass (repeatable; default: all)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="exit 1 if the checked-in baseline differs from what "
        "--write-baseline would produce now, printing the keys it would "
        "add and drop; a fresh baseline accepts every finding, so this "
        "is the whole CI gate (run with all passes enabled)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    root = Path(args.root).resolve() if args.root else default_root()
    if not (root / "repro").is_dir() and not root.is_dir():
        print(f"sdlint: {root} is not a directory", file=sys.stderr)
        return 2
    pass_names = args.passes or sorted(PASSES)
    findings = run_all(root, pass_names)
    baseline_path = (
        Path(args.baseline) if args.baseline else root.parent / "sdlint.baseline"
    )

    if args.write_baseline:
        count = write_baseline(baseline_path, findings)
        print(f"sdlint: wrote {count} baseline entrie(s) to {baseline_path}")
        return 0

    if args.check_baseline:
        # A fresh baseline holds every finding, so this one check also
        # fails on any finding the baseline does not accept.
        expected = render_baseline(findings)
        actual = baseline_path.read_text() if baseline_path.is_file() else ""
        if expected != actual:
            current = {finding.key for finding in findings}
            recorded = load_baseline(baseline_path)
            print(
                f"sdlint: baseline {baseline_path} is stale; regenerate "
                f"with --write-baseline and review the diff"
            )
            for key in sorted(current - recorded):
                print(f"sdlint: adds {key}")
            for key in sorted(recorded - current):
                print(f"sdlint: drops {key}")
            return 1
        print(f"sdlint: baseline {baseline_path} is up to date")
        return 0

    active, suppressed, unused = partition(findings, load_baseline(baseline_path))

    if args.json:
        counts: Dict[str, int] = {}
        for finding in active:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        print(
            json.dumps(
                {
                    "root": str(root),
                    "passes": pass_names,
                    "findings": [f.to_json() for f in active],
                    "counts": counts,
                    "suppressed": len(suppressed),
                    "unused_baseline": unused,
                },
                indent=2,
            )
        )
    else:
        for finding in active:
            print(finding.render())
        note = f", {len(suppressed)} suppressed by baseline" if suppressed else ""
        print(f"sdlint: {len(active)} finding(s){note}")
        for key in unused:
            print(f"sdlint: note: unused baseline entry: {key}")
    return 1 if active else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
