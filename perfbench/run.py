"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``scenario-scale``, ``logdir-mine``, ``live-serve``,
``calibrate-fit`` (see :mod:`perfbench.workloads`).

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  The last line of output is one JSON object whose ``metrics`` are
the end-to-end metrics named in ``BENCHMARK.json``:

* ``work_per_s`` -- the workload's throughput in its own unit: apps/s
  (scenario-scale), log lines/s (logdir-mine) and trials/s
  (calibrate-fit), each one operation's work over the median operation
  time; answered queries/s for live-serve, which is open loop, so it
  equals the offered rate until the server falls behind;
* ``latency_ms`` -- the latency of one operation: the median of a
  ``Scenario.run``, an ``analyze`` call or a ``fit``; for live-serve the
  25th percentile of a query timed from its due time.  On a shared
  virtual machine a spell of host contention stalls a vCPU for several
  milliseconds at a time and reaches a growing share of 1-ms queries,
  which moved the query median 2-3x between runs of one commit; the
  fastest quarter stays below that share.  The median and the tail
  are printed beside it;
* ``setup_s`` -- the median of five set-ups (input generation, server
  start, self-target mining);
* ``peak_rss_mb`` -- peak resident memory of this process plus its
  largest child.

Batch timings are scaled to nominal host speed by a probe timed around
each operation (:mod:`perfbench.speed`); the raw figures are printed
beside them.  Set-up times are scaled the same way, and live-serve's
query latencies by the same probe's work, timed slice by slice by the
load generator while no query is outstanding.  The lines above the JSON
print the same figures under the workload's own names (``apps_per_s``,
``query_p25_ms``...) with units and sample counts, the failure ratio,
and the run's metadata.  For live-serve they also print the query p50
and p99 with their sample counts.  Neither is bounded: host stalls
reach the slower half of the queries (see ``latency_ms``), and the
p99's run-to-run spread (50% and 35% IQR over two sets of ten seeds)
is far past the largest allowed bound, 25%; the traced run reports it
as ``live.query.p99_ms``.

With ``--trace 1`` the run measures half its time untraced and half
traced, and reports every per-layer metric of :mod:`perfbench.layers`,
each layer's self time, the time no span covers and the tracing
overhead.  Spans are written to ``.perfbench/spans-<workload>-<seed>.jsonl``.

Exit code 0 means the run completed (see ``correct`` for its checks); 2
means the program under test could not be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
clock = time.perf_counter


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("scenario-scale", "logdir-mine", "live-serve", "calibrate-fit"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file() and (
        ROOT / "benchmarks" / "corpus_large.py"
    ).is_file()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    """SHA-256 of the program's sources, so runs of one tree can be matched."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _metadata(args: argparse.Namespace, sizes: Dict[str, Any]) -> str:
    fields = {
        "cpus": os.cpu_count() or 1,
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a",
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": args.seed,
        **sizes,
    }
    return " ".join(f"{key}={_fmt(v) if isinstance(v, float) else v}" for key, v in fields.items())


def _e2e(workload: Any, phase: Any, setup_raw: float, setup_s: float, rss_mb: float) -> Dict[str, float]:
    """Print the end-to-end figures under the workload's own names; return the metrics."""
    from perfbench.stats import Summary, iqr_share, percentile

    raw, nominal = Summary.of(phase.ops), Summary.of(phase.scaled_ops())
    op = workload.op_name
    rows = [
        (workload.rate_name, phase.work_per_s(phase.ops), phase.work_per_s(phase.scaled_ops()),
         f"{workload.unit}/s",
         f"{_fmt(phase.work)} {workload.unit} in {_fmt(phase.busy_s)} s"
         + ("" if phase.open_loop else f"; {_fmt(phase.work / raw.count)} per op over the p50 op")),
        (f"{op}_p50_ms", 1000.0 * raw.p50, 1000.0 * nominal.p50, "ms",
         f"p50 of n={raw.count}, IQR {iqr_share(phase.scaled_ops()):.1%} of it"
         + ("; printed, not bounded" if workload.latency_pct != 50.0 else "")),
        ("setup_s", setup_raw, setup_s, "s", f"median of {SETUPS} set-ups"),
        ("peak_rss_mb", rss_mb, rss_mb, "MiB", "process + largest child"),
    ]
    if raw.tail_pct is not None:
        rows.insert(2, (f"{op}_{raw.tail_label}_ms", 1000.0 * raw.tail, 1000.0 * nominal.tail, "ms",
                        f"{raw.tail_label} of n={raw.count}; printed, not bounded"))
    latency_raw = percentile(phase.ops, workload.latency_pct)
    latency = percentile(phase.scaled_ops(), workload.latency_pct)
    if workload.latency_pct != 50.0:
        rows.insert(1, (f"{op}_p{workload.latency_pct:g}_ms", 1000.0 * latency_raw, 1000.0 * latency, "ms",
                        f"p{workload.latency_pct:g} of n={raw.count}"))
    rows.append(("fail_ratio", phase.failed / phase.attempted, phase.failed / phase.attempted, "ratio",
                 f"{phase.failed} failed of {phase.attempted} {workload.fail_unit}"))
    print(f"  {'metric':<18} {'value':>14} {'unit':<10} {'raw':>14}")
    for name, raw_value, value, unit, note in rows:
        print(f"  {name:<18} {_fmt(value):>14} {unit:<10} {_fmt(raw_value):>14}  ({note})")
    if phase.open_loop:
        print(f"  (latency value = raw x host speed factor {_fmt(phase.speed_factor)}, from "
              f"{phase.sizes['probe_slices']} probe slices; see perfbench/speed.py)")
    else:
        factors = phase.factors()
        print(f"  (value = raw timing x host speed factor, here {_fmt(min(factors))}.."
              f"{_fmt(max(factors))}; see perfbench/speed.py)")
    return {
        "work_per_s": phase.work_per_s(phase.scaled_ops()),
        "latency_ms": 1000.0 * latency,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def run(args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    from perfbench import layers, perlayer
    from perfbench.spans import Tracer
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import WORKLOADS, instrument

    seconds = args.seconds / 2 if args.trace else args.seconds
    workload = WORKLOADS[args.workload](args.seed, work, seconds)
    setups: List[float] = []
    probe = SpeedProbe()
    try:
        for index in range(SETUPS):
            if index:
                workload.teardown()
            probe.measure()
            start = clock()
            workload.setup()
            setups.append(clock() - start)
        probe.measure()
        readings = probe.readings
        setup_s = statistics.median(
            [t * SpeedProbe.scale(readings[i], readings[i + 1]) for i, t in enumerate(setups)]
        )
        serial = bool(args.trace) and workload.serial_when_traced
        untraced = workload.phase(serial=serial)
        rss_mb = peak_rss_mb()
        phases = [untraced]
        if args.trace:
            tracer = Tracer()
            with instrument(tracer):
                workload.prepare_traced(tracer)
                traced = workload.phase(tracer, serial=serial)
            phases.append(traced)
    finally:
        workload.teardown()

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={_fmt(args.seconds)} trace={args.trace}")
    print("meta: " + _metadata(args, untraced.sizes))
    print("end-to-end" + (" (untraced half)" if args.trace else "") + ":")
    metrics = _e2e(workload, untraced, statistics.median(setups), setup_s, rss_mb)
    units = {"work_per_s": "1/s", "latency_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
    if args.trace:
        if serial:
            print(f"  (traced run is serial: jobs=1 in both halves; end-to-end runs use "
                  f"{untraced.sizes.get('e2e_fit_jobs')} workers)")
        values = perlayer.layer_values(tracer, untraced, traced)
        perlayer.print_report(tracer, untraced, traced, values)
        tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = values
        units = {row.name: row.unit for row in layers.PER_LAYER}
    problems = list(dict.fromkeys(p for phase in phases for p in phase.problems))
    print("checks: " + ("passed" if not problems else f"{len(problems)} problem(s)"))
    for problem in problems[:20]:
        print(f"  - {problem}")
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not _program_present():
        print(f"perfbench: the program (src/repro, benchmarks/corpus_large.py) is not under {ROOT}",
              file=sys.stderr)
        return 2
    # The script's own directory would shadow stdlib modules; import the
    # benchmark as a package from the root and the program from src/.
    script_dir = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != script_dir]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Mining parallelism must resolve from the machine, not an operator override.
    os.environ.pop("REPRO_JOBS", None)
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    # Calibration trials dump logs to a temporary directory; keep it here.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
