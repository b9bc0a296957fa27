# Developer entry points.  perfbench (python3 perfbench/run.py, the
# workloads in BENCHMARK.json) does the timing; every file under
# benchmarks/ is a check, and none writes a tracked file except the
# paper-claims figures, which make paper-claims regenerates and
# byte-checks.  REPRO_SCALE=paper switches the checks to the full
# section-IV trace sizes.

PYTHON ?= python

.PHONY: install test bench bench-miner bench-miner-large bench-live bench-calibrate bench-sim bench-paper paper-claims examples fuzz-smoke live-smoke live-shard-smoke scenario-smoke calibrate-smoke lint sanitize clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The paper's claims: every table/figure check at small scale, each
# asserting its shape claims, then a byte check that every regenerated
# benchmarks/results file equals the committed one.  A change that moves
# a figure row commits the new rows.
PAPER_CLAIMS = $(addprefix benchmarks/,test_fig4_overall.py test_fig5_input_size.py \
	test_fig6_executors.py test_fig7_schedulers.py test_fig8_localization.py \
	test_fig9_launching.py test_fig11_inapp.py test_fig12_io_interference.py \
	test_fig13_cpu_interference.py test_table2_throughput.py test_table3_summary.py \
	test_optimizations.py test_ablations.py)

# The paper claims plus the simulator bars and the in-memory/directory
# miner equivalence check, at small (bench) or paper (bench-paper) scale.
BENCH_CHECKS = $(PAPER_CLAIMS) benchmarks/test_simulator_performance.py \
	benchmarks/test_miner_throughput.py

bench:
	PYTHONPATH=src $(PYTHON) -m pytest $(BENCH_CHECKS)

bench-paper:
	REPRO_SCALE=paper PYTHONPATH=src $(PYTHON) -m pytest $(BENCH_CHECKS)

paper-claims:
	REPRO_SCALE=small PYTHONPATH=src $(PYTHON) -m pytest $(PAPER_CLAIMS) -q
	git diff --exit-code benchmarks/results/

# Miner equivalence (in-memory store vs directory, serial vs parallel,
# events and ledgers), with the parallel-speedup bar where CPUs allow.
bench-miner:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_miner_throughput.py -q -s

# Miner check at multi-GB scale: generates a seeded corpus straight
# to disk, and asserts serial and --jobs 4 mine the same events and
# that --jobs 4 is faster on 2+ CPUs.  Size with REPRO_LARGE_MB
# (default 2048).
bench-miner-large:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_miner_large.py -q -s

# Live mining: drained live report == batch, plus the ingest floor and
# the query-latency ceiling under concurrent clients.
bench-live:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_live_throughput.py -q -s

# End-to-end smoke of the live subsystem: the watch/serve/query CLI,
# the replay-equivalence contract, and the smoke-mode throughput bars.
live-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_live_smoke.py tests/test_live_server.py -q
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_live_throughput.py -q -s

# Sharded deployment smoke: partition/merge units, the router over
# real shard servers, a 2-process ShardedLiveService with the HTTP
# metrics endpoint, and the smoke-mode shard-scaling benchmark (which
# re-checks merged-drain == batch at benchmark scale).
live-shard-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_live_sharded.py -q
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_live_throughput.py::test_sharded_ingest_scaling -q -s

# Scenario-pack smoke: generate the smallest preset at its pinned
# seed, mine it (serial + parallel), and compare against the committed
# golden snapshot; plus the CLI error-path regressions.
scenario-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments scenario --list
	PYTHONPATH=src $(PYTHON) -m pytest "tests/test_scenarios_golden.py::TestSnapshots::test_matches_snapshot[autoscale-out]" "tests/test_scenarios_golden.py::TestSnapshots::test_parallel_mining_is_byte_identical[autoscale-out]" tests/test_scenarios_golden.py::TestCLI -q

# Calibration smoke: a tiny self-fit on diurnal-burst (the baseline
# trial must score exactly 0), the golden fitted-model byte pin, and
# the whatif/predict CLI round-trip.
calibrate-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_calibrate_cli.py tests/test_calibrate_fit.py::TestSelfFit tests/test_calibrate_fit.py::TestGoldenFit -q

# Calibration: serial and --jobs fits give byte-identical artifacts,
# the baseline self-fits to 0, and the CPU-gated parallel-speedup bar.
bench-calibrate:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_calibrate_throughput.py -q -s

# Simulator performance: kernel and fair-share throughput, and the
# scaling bar (steps/s at 8 diurnal-burst apps within 1.3x of steps/s
# at 240, both timed in one process, so runner speed cancels out).
bench-sim:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_simulator_performance.py -q -s

# Seeded corruption sweep over the golden corpus: every catalog
# corruption x seed must leave analyze() crash-free, and the
# identity-preserving ones byte-identical.  --seeds 5 is the CI size;
# drop it for the full 25 seeds.
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.faults sweep tests/data/golden --seeds 5

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/scheduler_comparison.py --queries 20
	PYTHONPATH=src $(PYTHON) examples/localization_study.py --queries 8
	PYTHONPATH=src $(PYTHON) examples/interference_study.py --queries 25
	dir=$$(mktemp -d) && PYTHONPATH=src $(PYTHON) examples/offline_analysis.py --queries 12 --workdir "$$dir/new/workdir"; status=$$?; rm -rf "$$dir"; exit $$status

# sdlint: catalog coverage, state-machine structure, determinism,
# async safety (SD4xx), and process-boundary safety (SD5xx), in one
# run.  A stale sdlint.baseline fails the build, and since a fresh one
# accepts every finding, so does any finding above it; the run prints
# the keys the baseline would add and drop (regenerate with
# --write-baseline and review).
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	PYTHONPATH=src $(PYTHON) -m repro.analysis --check-baseline

# The full suite under the runtime sanitizer: every asyncio callback
# timed (SD601), every executor submission pickle-checked and
# spot-verified for worker determinism (SD602/SD603).  Any recorded
# violation fails the session at teardown.
sanitize:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest tests/ -q

# Caches only — benchmarks/results and src/repro.egg-info are committed
# and must survive a clean.
clean:
	rm -rf .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
