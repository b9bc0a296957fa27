"""``python -m repro.calibrate`` — fit, predict, and what-if.

Three subcommands over the calibration engine:

* ``fit`` — search simulator parameters until the mined decomposition
  of the replay scenario matches a target corpus (or the scenario
  itself), writing a versioned fitted-model artifact;
* ``predict`` — re-simulate from a fitted model and print the
  predicted per-component decomposition;
* ``whatif`` — answer a counterfactual ("scheduler swapped", "NM
  heartbeat halved") with a per-component delta table.

Errors (unknown preset, malformed artifact, bad override) print to
stderr and exit 2 — never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.calibrate.objective import TargetDecomposition
from repro.calibrate.search import FittedModel, fit
from repro.calibrate.space import DEFAULT_SPACE, SCHEDULER_KNOB
from repro.calibrate.whatif import predict, whatif
from repro.workloads.scenarios.presets import list_scenarios

__all__ = ["main", "build_arg_parser"]


class _CliError(Exception):
    """A user-facing error: message to stderr, exit 2."""


def _jobs_arg(value: str):
    if value == "auto":
        return value
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a worker count or 'auto', got {value!r}"
        ) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {jobs}")
    return jobs


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.calibrate",
        description=(
            "Fit the simulator to mined scheduling-delay decompositions "
            "and answer counterfactual queries from the fitted model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser(
        "fit", help="search simulator parameters against a mined target"
    )
    fit_p.add_argument(
        "--scenario",
        default="diurnal-burst",
        help="replay scenario preset (see 'python -m repro.experiments "
        "scenario --list'); default: diurnal-burst",
    )
    fit_p.add_argument(
        "--target",
        metavar="LOGDIR",
        default=None,
        help="mine this log directory as the fit target (default: the "
        "scenario's own logs — a self-calibration run)",
    )
    fit_p.add_argument("--seed", type=int, default=0, help="search seed")
    fit_p.add_argument(
        "--replay-seed",
        type=int,
        default=None,
        help="simulation seed for every trial (default: the preset's)",
    )
    fit_p.add_argument(
        "--grid",
        type=int,
        default=8,
        help="seeded grid trials, 0 to skip the grid (default 8)",
    )
    fit_p.add_argument(
        "--random", type=int, default=8, help="random-search trials (default 8)"
    )
    fit_p.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="trial worker processes, or 'auto' (artifact is byte-"
        "identical either way)",
    )
    fit_p.add_argument(
        "--out",
        default="fitted-model.json",
        help="artifact path (default fitted-model.json)",
    )
    fit_p.add_argument(
        "--json", action="store_true", help="print the artifact JSON to stdout"
    )

    predict_p = sub.add_parser(
        "predict", help="re-simulate the fitted model's decomposition"
    )
    predict_p.add_argument("model", help="fitted-model artifact path")
    predict_p.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KNOB=VALUE",
        help="extra override on top of the fitted point (repeatable)",
    )
    predict_p.add_argument("--json", action="store_true")

    whatif_p = sub.add_parser(
        "whatif", help="per-component deltas for a counterfactual"
    )
    whatif_p.add_argument("model", help="fitted-model artifact path")
    whatif_p.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KNOB=VALUE",
        help="override a knob (e.g. scheduler=opportunistic); repeatable",
    )
    whatif_p.add_argument(
        "--scale",
        dest="scales",
        action="append",
        default=[],
        metavar="KNOB=FACTOR",
        help="multiply a fitted numeric knob (e.g. nm_heartbeat_s=0.5); "
        "repeatable",
    )
    whatif_p.add_argument("--json", action="store_true")
    return parser


# -- override parsing ------------------------------------------------------
def _split_kv(text: str, flag: str) -> (str, str):
    if "=" not in text:
        raise _CliError(f"{flag} expects KNOB=VALUE, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def _coerce_value(key: str, text: str, defaults: Dict[str, Any]) -> Any:
    """Parse an override value by the knob's declared type."""
    if key == SCHEDULER_KNOB:
        return text
    if key not in defaults:
        raise _CliError(
            f"unknown knob {key!r} (SimulationParams fields or "
            f"{SCHEDULER_KNOB!r})"
        )
    current = defaults[key]
    try:
        if isinstance(current, bool):
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            return float(text)
    except ValueError:
        raise _CliError(
            f"cannot parse {text!r} as {type(current).__name__} for "
            f"knob {key!r}"
        ) from None
    return text


def _parse_overrides(
    sets: List[str], scales: List[str], fitted: Dict[str, Any]
) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for item in sets:
        key, value = _split_kv(item, "--set")
        overrides[key] = _coerce_value(key, value, fitted)
    for item in scales:
        key, value = _split_kv(item, "--scale")
        if key == SCHEDULER_KNOB:
            raise _CliError("--scale cannot apply to the scheduler knob")
        if key not in fitted:
            raise _CliError(f"unknown knob {key!r} for --scale")
        base = fitted[key]
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            raise _CliError(f"--scale needs a numeric knob, {key!r} is not")
        try:
            factor = float(value)
        except ValueError:
            raise _CliError(
                f"--scale {key} needs a numeric factor, got {value!r}"
            ) from None
        scaled = base * factor
        overrides[key] = int(round(scaled)) if isinstance(base, int) else scaled
    return overrides


# -- subcommands -----------------------------------------------------------
def _load_model(path: str) -> FittedModel:
    try:
        return FittedModel.load(path)
    except ValueError as exc:
        raise _CliError(str(exc)) from None


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.scenario not in list_scenarios():
        raise _CliError(
            f"unknown scenario preset {args.scenario!r} "
            f"(have: {', '.join(list_scenarios())})"
        )
    if args.target is not None and not Path(args.target).is_dir():
        raise _CliError(f"{args.target} is not a directory")
    # Before the trials: a missing directory must not cost a whole search.
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    target: Optional[TargetDecomposition] = None
    if args.target is not None:
        from repro.core.checker import SDChecker

        report = SDChecker().analyze(args.target)
        if not len(report):
            raise _CliError(
                f"target corpus {args.target!r} mined zero applications"
            )
        target = TargetDecomposition.from_report(
            report, source=f"logdir:{args.target}"
        )
    model = fit(
        args.scenario,
        target,
        seed=args.seed,
        grid_limit=args.grid,
        random_trials=args.random,
        jobs=args.jobs,
        replay_seed=args.replay_seed,
        space=DEFAULT_SPACE,
    )
    path = model.save(args.out)
    if args.json:
        print(model.dumps(), end="")
    else:
        best = model.best
        print(
            f"fit: scenario={model.scenario} target={model.target.source} "
            f"trials={len(model.trials)} jobs={args.jobs}"
        )
        print(
            f"best: trial #{best.index} ({best.kind}) error="
            f"{best.error:.6f}" if best.error is not None else "best: none scored"
        )
        for knob, value in sorted(best.overrides.items()):
            print(f"  {knob} = {value}")
        if not best.overrides:
            print("  (baseline parameters — no overrides)")
        print(f"artifact: {path}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    overrides = _parse_overrides(args.sets, [], model.fitted_params)
    try:
        result = predict(model, overrides)
    except (ValueError, KeyError) as exc:
        raise _CliError(str(exc)) from None
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    print(
        f"predict: scenario={result['scenario']} "
        f"replay_seed={result['replay_seed']}"
    )
    header = f"{'component':20s}{'n':>6s}" + "".join(
        f"{'p' + str(q):>10s}" for q in (50, 95, 99)
    )
    print(header)
    rows = dict(result["components"])
    rows["total_delay"] = result["total_delay"]
    for component, row in rows.items():
        cells = "".join(
            f"{row['p' + str(q)]:10.3f}" if row[f"p{q}"] is not None else f"{'n/a':>10s}"
            for q in (50, 95, 99)
        )
        print(f"{component:20s}{row['n']:6d}{cells}")
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    overrides = _parse_overrides(args.sets, args.scales, model.fitted_params)
    try:
        answer = whatif(model, overrides)
    except (ValueError, KeyError) as exc:
        raise _CliError(str(exc)) from None
    if args.json:
        print(json.dumps(answer.to_dict(), indent=2, sort_keys=True))
        return 0
    pretty = ", ".join(f"{k}={v}" for k, v in sorted(answer.overrides.items()))
    print(f"whatif: scenario={answer.scenario} [{pretty}]")
    print(answer.table())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "predict":
            return _cmd_predict(args)
        return _cmd_whatif(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
