"""repro.live — incremental log tailing, mining, and serving.

The batch :class:`~repro.core.checker.SDChecker` answers "what was the
scheduling delay?" after a run finishes.  This package answers it
*while the run is happening*, without giving up the batch answer:

* :mod:`repro.live.tailer` — rotation-aware tailing of a growing log
  directory (inode-keyed cursors, complete-line ownership, truncation
  re-sync);
* :mod:`repro.live.incremental` — chunk-at-a-time mining through the
  batch fast path's scanner and accumulator, per-app provisional→final
  status, checkpoint/resume;
* :mod:`repro.live.metrics` — a dependency-free counters/gauges/
  histograms registry rendered in Prometheus text format;
* :mod:`repro.live.server` / :mod:`repro.live.client` — a JSON-lines
  query server (bounded per-connection write queues) and its blocking
  client;
* :mod:`repro.live.router` / :mod:`repro.live.sharded` — the sharded
  deployment: worker processes each tailing a slice of the
  directories, a merging router speaking the same wire protocol, and
  an HTTP endpoint exposing aggregated Prometheus metrics;
* :mod:`repro.live.cli` — ``python -m repro.live {watch,serve,query}``
  (``serve --shards N`` runs the sharded deployment).

The contract that makes the live answer trustworthy: once the
directory stops growing, a drained session's report is byte-identical
to a batch run over the same directory, for *any* schedule of chunk
arrivals — pinned by the metamorphic replay suite.  The sharded
extension: a drained deployment's merged report is byte-identical to
batch over the union of all shards' directories, for any shard
assignment.
"""

import importlib

#: Where each export lives.  They resolve on first access (PEP 562), so
#: ``python -m repro.live query`` loads the client and nothing else.
_EXPORTS = {
    "DirectoryTailer": "repro.live.tailer",
    "JsonLineServer": "repro.live.server",
    "LiveClient": "repro.live.client",
    "LiveMiner": "repro.live.incremental",
    "LiveServer": "repro.live.server",
    "LiveSession": "repro.live.incremental",
    "MetricsRegistry": "repro.live.metrics",
    "QueryError": "repro.live.client",
    "RouterServer": "repro.live.router",
    "ServerHandle": "repro.live.server",
    "ShardedLiveService": "repro.live.sharded",
    "StreamTailer": "repro.live.tailer",
    "TailChunk": "repro.live.tailer",
    "build_live_registry": "repro.live.metrics",
    "merge_metric_states": "repro.live.metrics",
    "merge_state_payloads": "repro.live.router",
    "partition_directories": "repro.live.sharded",
    "report_from_state_payload": "repro.live.router",
    "serve_in_thread": "repro.live.server",
}

__all__ = [
    "DirectoryTailer",
    "JsonLineServer",
    "LiveClient",
    "LiveMiner",
    "LiveServer",
    "LiveSession",
    "MetricsRegistry",
    "QueryError",
    "RouterServer",
    "ServerHandle",
    "ShardedLiveService",
    "StreamTailer",
    "TailChunk",
    "build_live_registry",
    "merge_metric_states",
    "merge_state_payloads",
    "partition_directories",
    "report_from_state_payload",
    "serve_in_thread",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
