"""Large-corpus miner benchmark: serial vs ``--jobs 4`` at multi-GB scale.

``make bench-miner-large`` generates a seeded corpus straight to disk
(:mod:`benchmarks.corpus_large`) and times the directory miner two ways
over the same files:

* **serial** — every chunk read with ``read_chunk`` and scanned in
  this process;
* **parallel** — ``--jobs 4``, workers returning their scan tuples
  through ``Executor.map``.

Both must mine identical events (the byte-identity contract the
hypothesis suite checks at small scale, re-checked here at the scale
where a chunk-boundary bug would actually hide), and with at least two
usable CPUs ``--jobs 4`` must beat serial.

Corpus size defaults to 2 GiB and is overridden with ``REPRO_LARGE_MB``
(e.g. ``REPRO_LARGE_MB=512 make bench-miner-large``); the
``REPRO_BENCH_SMOKE=1`` CI job pins ~8 MiB, just past
``FAST_SPLIT_THRESHOLD`` so chunk splitting and the parallel pool still
engage.  perfbench's ``logdir-mine`` workload records throughput on
this generator's corpus; this file only checks it.
"""

from __future__ import annotations

import os

from repro.core.parser import LogMiner, available_cpus

from benchmarks.corpus_large import DEFAULT_SEED, generate_large_corpus
from benchmarks.test_miner_throughput import _time_best

_SMOKE_MB = 8
_DEFAULT_LARGE_MB = 2048


def _target_mb(smoke: bool) -> int:
    if smoke:
        return _SMOKE_MB
    return int(os.environ.get("REPRO_LARGE_MB", str(_DEFAULT_LARGE_MB)))


def test_miner_large_corpus(tmp_path):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    target_mb = _target_mb(smoke)
    rounds = 3 if smoke else 2

    logdir = tmp_path / "large-corpus"
    generate_large_corpus(logdir, target_mb * 1024 * 1024, seed=DEFAULT_SEED)

    miner = LogMiner()

    # Serial first: its rounds warm the page cache, so neither run pays
    # the cold-cache penalty inside its best-of-N window.
    (serial_events, _), serial_s = _time_best(miner.mine, str(logdir), rounds=rounds)
    (parallel_events, _), parallel_s = _time_best(
        miner.mine, str(logdir), 4, rounds=rounds
    )

    # Byte-identity at scale: one misplaced chunk boundary anywhere in
    # the corpus shifts, drops, or duplicates an event.
    assert parallel_events == serial_events

    cpus = available_cpus()
    if cpus >= 2:
        assert parallel_s < serial_s, (
            f"--jobs 4 ({parallel_s:.3f}s) lost to serial "
            f"({serial_s:.3f}s) on {cpus} CPUs"
        )
