"""Regenerate the golden corpus and its expected-analysis snapshots.

Run from the repository root after an *intentional* change to the
simulator's log output or to SDchecker's decomposition:

    PYTHONPATH=src python tests/data/regen_golden.py

It rebuilds, fully deterministically:

* ``tests/data/golden/``  — the dumped logs of one TPC-H query run on
  a 5-node testbed (fixed seeds, fixed dataset name);
* ``tests/data/golden_expected.json``  — ``AnalysisReport.to_dict()``
  of the clean corpus;
* ``tests/data/golden_expected_truncate_tail.json``  — the full export
  *including diagnostics* after the canned ``truncate-tail`` corruption
  at seed 0, pinning both the corruption bytes and the degradation
  accounting;
* ``tests/data/scenario_<preset>_expected.json``  — one mined-report
  snapshot per scenario pack in
  :data:`repro.workloads.scenarios.SCENARIO_PRESETS`, each generated
  at its preset's pinned seed;
* ``tests/data/recipe_<name>_expected.json``  — one snapshot per run
  of the paper's section IV-A recipe in :func:`recipe_scenarios`: the
  submitted apps' names, users and queues, the SHA-256 of the dumped
  logs, and the measured report.  ``tests/data/trace_replay.csv`` is
  the trace file the replay run reads;
* ``tests/data/graph_expected.json``  — the golden app's scheduling
  graph (its DOT text verbatim and its critical path) and, for every
  app of every scenario pack, the SHA-256 of its DOT text and of the
  ``repr`` of its critical path;
* ``tests/data/calibrate_diurnal_burst_fitted.json``  — one small
  calibration self-fit on the diurnal-burst preset (seed 7, 2 grid +
  2 random trials), the byte-pinned fitted-model artifact
  ``tests/test_calibrate_fit.py`` reproduces.

``tests/test_golden_corpus.py`` and ``tests/test_scenarios_golden.py``
assert the current code still reproduces these snapshots; diff any
regen before committing it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACE_CSV = HERE / "trace_replay.csv"
GRAPH_EXPECTED = HERE / "graph_expected.json"


def golden_graph(traces) -> dict:
    """The one golden app's scheduling graph, byte for byte: its id,
    its DOT text and its critical path."""
    from repro.core.graph import SchedulingGraph

    ((app_id, trace),) = traces.items()
    graph = SchedulingGraph(trace)
    return {
        "app_id": app_id,
        "critical_path": [list(edge) for edge in graph.critical_path()],
        "dot": graph.to_dot(),
    }


def graph_digests(traces) -> dict:
    """App id -> SHA-256 of its graph's DOT text and of the ``repr`` of
    its critical path (``repr`` pins every weight's float bits)."""
    from repro.core.graph import SchedulingGraph

    def sha256(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    digests = {}
    for app_id, trace in traces.items():
        graph = SchedulingGraph(trace)
        digests[app_id] = {
            "critical_path_sha256": sha256(repr(graph.critical_path())),
            "dot_sha256": sha256(graph.to_dot()),
        }
    return digests


def write_trace_csv() -> Path:
    """The three-job trace file the ``trace-replay`` recipe run reads."""
    from repro.simul.distributions import RandomSource
    from repro.workloads.google_trace import google_trace_arrivals, save_trace_csv

    arrivals = google_trace_arrivals(3, 3.0, RandomSource(6).child("a"))
    return save_trace_csv(TRACE_CSV, arrivals, [1, 6, 6])


def recipe_scenarios() -> dict:
    """Small runs of the paper's recipe, each pinned by a snapshot.

    ``dfsio-warmup`` adds dfsIO interference and a warm-up, so it pins
    the measured-app filter too; ``trace-replay`` reads its arrivals
    and queries from :data:`TRACE_CSV`.
    """
    from repro.experiments.harness import DfsioLoad
    from repro.params import GB
    from repro.workloads.scenarios import trace_recipe

    return {
        "dfsio-warmup": trace_recipe(
            3,
            seed=52,
            mean_interarrival_s=2.0,
            params={"num_nodes": 5, "dfsio_bytes_per_map": 1 * GB},
            interference=DfsioLoad(2),
            warmup_s=5.0,
        ),
        "trace-replay": trace_recipe(
            trace_file=str(TRACE_CSV), seed=9, params={"num_nodes": 5}
        ),
    }


def recipe_path(name: str) -> Path:
    return HERE / f"recipe_{name.replace('-', '_')}_expected.json"


def recipe_snapshot(run) -> dict:
    """What pins a recipe run: every submitted app's name, user and
    queue (none of them need show in a log line), a digest of the
    dumped logs, and the measured report."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as scratch:
        for path in sorted(run.testbed.dump_logs(Path(scratch) / "logs")):
            digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return {
        "applications": [[a.name, a.user, a.queue] for a in run.testbed.applications],
        "logs_sha256": digest.hexdigest(),
        "report": run.report.to_dict(),
    }


def build_corpus(logdir: Path) -> None:
    """One deterministic TPC-H query run, logs dumped to ``logdir``."""
    from repro.params import GB, SimulationParams
    from repro.spark.application import SparkApplication
    from repro.testbed import Testbed
    from repro.workloads.tpch import TPCHDataset, TPCHQueryWorkload

    bed = Testbed(params=SimulationParams(num_nodes=5), seed=11)
    dataset = TPCHDataset(2 * GB, name="golden-ds")
    app = SparkApplication(
        "golden-q1", TPCHQueryWorkload(dataset, query=1), num_executors=4
    )
    bed.submit(app)
    bed.run_until_all_finished(limit=5000)
    bed.dump_logs(logdir)


def main() -> int:
    from repro.core.checker import SDChecker
    from repro.faults import corrupt_copy

    golden = HERE / "golden"
    if golden.exists():
        shutil.rmtree(golden)
    golden.mkdir(parents=True)
    build_corpus(golden)

    report = SDChecker().analyze(golden)
    (HERE / "golden_expected.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    )

    with tempfile.TemporaryDirectory() as scratch:
        corrupted = Path(scratch) / "logs"
        corrupt_copy(golden, corrupted, ["truncate-tail"], seed=0)
        degraded = SDChecker().analyze(corrupted)
        (HERE / "golden_expected_truncate_tail.json").write_text(
            json.dumps(
                degraded.to_dict(include_diagnostics=True), indent=2, sort_keys=True
            )
            + "\n"
        )

    files = sorted(p.name for p in golden.iterdir())
    print(f"golden corpus: {len(files)} file(s)")
    print("snapshots: golden_expected.json, golden_expected_truncate_tail.json")

    from repro.workloads.scenarios import SCENARIO_PRESETS

    graphs = {"golden": golden_graph(SDChecker().group(golden)), "presets": {}}
    for name, scenario in SCENARIO_PRESETS.items():
        run = scenario.run()
        # Snapshot what the *dumped* logs mine to — timestamps on disk
        # carry log4j millisecond precision, so this pins the rendered
        # bytes, not the simulator's internal floats.
        with tempfile.TemporaryDirectory() as scratch:
            logdir = Path(scratch) / "logs"
            run.testbed.dump_logs(logdir)
            report = SDChecker().analyze(logdir)
            graphs["presets"][name] = graph_digests(SDChecker().group(logdir))
        snapshot = HERE / f"scenario_{name.replace('-', '_')}_expected.json"
        snapshot.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"snapshot: {snapshot.name} ({len(report)} app(s))")
    GRAPH_EXPECTED.write_text(json.dumps(graphs, indent=2, sort_keys=True) + "\n")
    print(f"snapshot: {GRAPH_EXPECTED.name}")

    write_trace_csv()
    for name, scenario in recipe_scenarios().items():
        snapshot = recipe_path(name)
        snapshot.write_text(
            json.dumps(recipe_snapshot(scenario.run()), indent=2, sort_keys=True) + "\n"
        )
        print(f"snapshot: {snapshot.name}")

    from repro.calibrate import fit

    # One small calibration self-fit, pinned byte-for-byte: the search
    # seed, the grid thinning, the random substream draws, every
    # trial's mined decomposition, and the winning parameter blob.
    model = fit("diurnal-burst", seed=7, grid_limit=2, random_trials=2, jobs=1)
    fitted = HERE / "calibrate_diurnal_burst_fitted.json"
    fitted.write_text(model.dumps(), encoding="utf-8")
    print(
        f"snapshot: {fitted.name} ({len(model.trials)} trial(s), "
        f"best error {model.best.error})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
