"""``python -m repro.experiments`` — the scenario-pack CLI.

Runs named production-scale scenario presets end to end: build the
seeded testbed, simulate, mine the logs with SDchecker, and print the
report.  Errors (unknown subcommand, unknown preset) list what exists
on stderr and exit non-zero — never a traceback.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from repro.workloads.scenarios import SCENARIO_PRESETS, list_scenarios

USAGE = """\
usage: python -m repro.experiments scenario <name> [--seed N] [--dump DIR]
                                                   [--json]
       python -m repro.experiments scenario --list

Run a named production-scale scenario preset: generate its logs on the
simulated testbed, mine them with SDchecker, and print the report.

options:
  --seed N     override the preset's pinned seed
  --dump DIR   also write the generated log files under DIR
  --json       print the mined report as JSON instead of the summary
"""


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    print(f"available scenario presets: {', '.join(list_scenarios())}", file=sys.stderr)
    return 2


def _print_presets() -> int:
    width = max(len(name) for name in SCENARIO_PRESETS)
    for name, scenario in SCENARIO_PRESETS.items():
        print(f"{name:{width}s}  seed={scenario.default_seed:<3d} {scenario.description}")
    return 0


def _run_scenario(argv: List[str]) -> int:
    if "--list" in argv:
        return _print_presets()
    seed: Optional[int] = None
    dump: Optional[str] = None
    as_json = False
    name: Optional[str] = None
    it = iter(argv)
    for arg in it:
        if arg == "--seed":
            try:
                seed = int(next(it))
            except (StopIteration, ValueError):
                return _fail("error: --seed needs an integer")
        elif arg == "--dump":
            try:
                dump = next(it)
            except StopIteration:
                return _fail("error: --dump needs a directory")
        elif arg == "--json":
            as_json = True
        elif arg.startswith("-"):
            return _fail(f"error: unknown option {arg!r}")
        elif name is None:
            name = arg
        else:
            return _fail(f"error: unexpected argument {arg!r}")
    if name is None:
        return _fail("error: scenario needs a preset name (or --list)")
    if name not in SCENARIO_PRESETS:
        return _fail(f"error: unknown scenario preset {name!r}")
    scenario = SCENARIO_PRESETS[name]
    run = scenario.run(seed=seed)
    if dump is not None:
        run.testbed.dump_logs(dump)
    if as_json:
        print(json.dumps(run.report.to_dict(), indent=2, sort_keys=True))
    else:
        print(run.report.summary())
        print(
            f"  scenario: {scenario.name} seed="
            f"{scenario.default_seed if seed is None else seed} "
            f"makespan={run.makespan:.1f}s preemptions={run.preemptions} "
            f"failure_kills={run.failure_kills}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        stream = sys.stderr if not argv else sys.stdout
        print(USAGE, file=stream, end="")
        return 2 if not argv else 0
    command, rest = argv[0], argv[1:]
    if command == "scenario":
        return _run_scenario(rest)
    return _fail(f"error: unknown command {command!r} (commands: scenario)")


if __name__ == "__main__":
    sys.exit(main())
