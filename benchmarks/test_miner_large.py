"""Memory-path benchmark: mmap windows vs read(2) at multi-GB scale.

``make bench-miner-large`` generates a seeded corpus straight to disk
(:mod:`benchmarks.corpus_large`) and times the fast directory miner
three ways over the same files:

* **read(2)** — ``REPRO_MMAP=0``, the chunked ``read_chunk`` path;
* **mmap** — the default ``chunk_window`` memoryview path;
* **parallel** — ``--jobs 4`` over mmap, workers shipping wire blobs.

All three must mine identical events (the byte-identity contract the
hypothesis suite checks at small scale, re-checked here at the scale
where a window-boundary bug would actually hide), and the mmap path
must never be meaningfully slower than read(2) — the regression bar
the ``REPRO_BENCH_SMOKE=1`` CI job enforces on an ~8 MiB corpus.

Corpus size defaults to 2 GiB and is overridden with ``REPRO_LARGE_MB``
(e.g. ``REPRO_LARGE_MB=512 make bench-miner-large``); the smoke job
pins ~8 MiB, just past ``FAST_SPLIT_THRESHOLD`` so chunk splitting and
the parallel pool still engage.  Every point appended to
``BENCH_miner.json`` records the corpus bytes and the CPU count, so a
slow number on a 1-CPU runner reads as what it is.
"""

from __future__ import annotations

import json
import os

from repro.core.parser import LogMiner, available_cpus

from benchmarks.corpus_large import DEFAULT_SEED, generate_large_corpus
from benchmarks.test_miner_throughput import _record_point, _time_best

#: mmap may not be *meaningfully* slower than read(2); 10% headroom
#: absorbs timer noise on small smoke corpora where both take ~100 ms.
_MMAP_SLOWDOWN_ALLOWANCE = 1.10

_SMOKE_MB = 8
_DEFAULT_LARGE_MB = 2048


def _target_mb(smoke: bool) -> int:
    if smoke:
        return _SMOKE_MB
    return int(os.environ.get("REPRO_LARGE_MB", str(_DEFAULT_LARGE_MB)))


def test_miner_large_corpus(tmp_path, monkeypatch):
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    mode = "large-smoke" if smoke else "large"
    target_mb = _target_mb(smoke)
    rounds = 3 if smoke else 2

    logdir = tmp_path / "large-corpus"
    corpus_bytes, corpus_lines = generate_large_corpus(
        logdir, target_mb * 1024 * 1024, seed=DEFAULT_SEED
    )

    miner = LogMiner()

    # read(2) first: its rounds warm the page cache, so neither path
    # pays the cold-cache penalty inside its best-of-N window.
    monkeypatch.setenv("REPRO_MMAP", "0")
    (read_events, _), read_s = _time_best(miner.mine, str(logdir), rounds=rounds)
    monkeypatch.setenv("REPRO_MMAP", "1")
    (mmap_events, _), mmap_s = _time_best(miner.mine, str(logdir), rounds=rounds)
    (parallel_events, _), parallel_s = _time_best(
        miner.mine, str(logdir), 4, rounds=rounds
    )

    # Byte-identity at scale: one misplaced window boundary anywhere in
    # the corpus shifts, drops, or duplicates an event.
    assert mmap_events == read_events
    assert parallel_events == read_events

    cpus = available_cpus()
    mmap_vs_read = mmap_s / read_s if read_s > 0 else 0.0
    point = {
        "mode": mode,
        "corpus_bytes": corpus_bytes,
        "corpus_lines": corpus_lines,
        "cpus": cpus,
        "read_lps": round(corpus_lines / read_s),
        "mmap_lps": round(corpus_lines / mmap_s),
        "parallel_lps": round(corpus_lines / parallel_s),
        "parallel_jobs": 4,
        "mmap_vs_read_ratio": round(mmap_vs_read, 3),
        "parallel_ratio": round(mmap_s / parallel_s, 2) if parallel_s > 0 else 0.0,
    }
    _record_point(point)
    print()
    print(json.dumps(point))

    assert mmap_s <= read_s * _MMAP_SLOWDOWN_ALLOWANCE, (
        f"mmap path {mmap_s:.3f}s is slower than read(2) at {read_s:.3f}s "
        f"(ratio {mmap_vs_read:.3f} > {_MMAP_SLOWDOWN_ALLOWANCE})"
    )
    if cpus >= 2:
        assert parallel_s < mmap_s, (
            f"--jobs 4 ({parallel_s:.3f}s) lost to serial mmap "
            f"({mmap_s:.3f}s) on {cpus} CPUs"
        )
