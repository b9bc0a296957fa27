"""Incremental mining over a tailed log directory.

:class:`LiveMiner` feeds each newly tailed byte chunk through the batch
miner's chunk classifier (:func:`repro.core.parser._scan_chunk`) and
folds the result into the *same*
:class:`~repro.core.parser.StreamEventAccumulator` the batch chunk
merge uses.  Because the accumulator's stitching is independent of how
the stream's bytes were cut into chunks, a live session that has
consumed a directory in any number of polls holds exactly the state a
batch run over the finished directory would compute — that is the
replay-equivalence contract the hypothesis suite pins.

:class:`LiveSession` adds the serving-side bookkeeping on top:

* one session can tail **several directories** (the unit a sharded
  deployment partitions by): one :class:`~repro.live.tailer.DirectoryTailer`
  per directory feeding a single miner, with daemon names required to
  be disjoint across directories — the same precondition under which
  "batch over the union" is even well defined;
* per-application status — **provisional** while events are still
  arriving, upgraded to **final** exactly when the paper's terminal
  transition (``APP_FINISHED``, message "State change from RUNNING to
  FINISHED") is mined for the app;
* optional **eviction** (``evict_after_polls=N``): an application that
  has been final for N polls is dropped — its container streams stop
  being tailed (and their accumulators are freed), its events are
  pruned from the shared daemon streams — so resident state stays
  bounded over days of tailing a rolling workload.  Eviction is off by
  default because it deliberately forgets: the batch-identity contract
  only covers sessions that never evicted;
* a canonical :class:`~repro.core.report.AnalysisReport` rebuilt on
  demand through :func:`repro.core.checker.analyze_events` (the same
  tail the batch :class:`~repro.core.checker.SDChecker` runs), cached
  per revision together with the ``apps`` rows and the per-app
  ``decomposition`` answers built from it, so a query storm between
  two polls costs one rebuild and one export;
* online :class:`~repro.live.metrics.MetricsRegistry` instrumentation
  (ingest counters, tail lag, per-component delay histograms observed
  at app finality);
* checkpoint/resume: cursors plus accumulator state serialize to one
  JSON file, and a resumed session converges to the same final report
  as an uninterrupted one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core import messages as msg
from repro.core.checker import analyze_events
from repro.core.diagnostics import MiningDiagnostics
from repro.core.events import EventKind
from repro.core.parser import StreamEventAccumulator, _gate_kind, _scan_chunk
from repro.core.report import AnalysisReport
from repro.live.metrics import build_live_registry
from repro.live.tailer import DirectoryTailer, TailChunk

__all__ = [
    "CHECKPOINT_VERSION",
    "LiveMiner",
    "LiveSession",
    "app_rows",
    "decomposition_entries",
    "diagnostics_dict",
]

CHECKPOINT_VERSION = 1

_APP_FINISHED_VALUE = EventKind.APP_FINISHED.value

#: Per-application delay components observed into the metrics
#: histograms when the application reaches finality.
_APP_COMPONENTS = ("allocation", "driver", "executor")
_CONTAINER_COMPONENTS = ("acquisition", "localization", "launching")


# -- query answers -----------------------------------------------------------
# One builder per analytical op, shared by a session and by the sharded
# router's merged view, so both answer with the same rows and entries.

def app_rows(report: AnalysisReport, final_apps: Set[str]) -> List[dict]:
    """The ``apps`` answer: one status row per app, in report order."""
    return [
        {
            "app_id": app.app_id,
            "status": "final" if app.app_id in final_apps else "provisional",
            "containers": len(app.containers),
            "total_delay": app.total_delay,
            "job_runtime": app.job_runtime,
        }
        for app in report.apps
    ]


def decomposition_entries(
    report: AnalysisReport, final_apps: Set[str]
) -> Dict[str, dict]:
    """Every app's ``decomposition`` answer, keyed by app ID.

    One export of the whole report serves every app; an app missing
    from the index is an unknown application.
    """
    entries = {}
    for entry in report.to_dict()["applications"]:
        app_id = entry["app_id"]
        status = "final" if app_id in final_apps else "provisional"
        entries[app_id] = {"status": status, **entry}
    return entries


def diagnostics_dict(report: AnalysisReport, tailing: dict) -> dict:
    """The ``diagnostics`` answer: the report's ledger plus tailer counters.

    ``tailing`` holds ``tail_lag_bytes``, ``resyncs``, ``rotations``,
    ``drained`` and ``evicted_apps``, as every ``state`` payload does.
    """
    payload = report.diagnostics.to_dict()
    for key in ("tail_lag_bytes", "resyncs", "rotations", "drained"):
        payload[key] = tailing[key]
    if tailing["evicted_apps"]:
        payload["evicted_apps"] = tailing["evicted_apps"]
    return payload


class LiveMiner:
    """Chunk-at-a-time mining with batch-identical accumulated state."""

    def __init__(self):
        self.streams: Dict[str, StreamEventAccumulator] = {}

    def ensure_stream(self, daemon: str, segments: int) -> StreamEventAccumulator:
        """Register a stream (even an empty one — the ledger lists it)."""
        acc = self.streams.get(daemon)
        if acc is None:
            acc = self.streams[daemon] = StreamEventAccumulator(
                daemon, _gate_kind(daemon), segments=segments
            )
        elif segments > acc.segments:
            acc.segments = segments
        return acc

    def feed(
        self, daemon: str, data: bytes, segments: int = 1
    ) -> Tuple[List[tuple], Tuple[int, ...]]:
        """Mine one tailed chunk into the stream's accumulator.

        Returns ``(accepted event tuples, scan counters)``: the session
        counts them into its metrics and picks finished apps out of the
        accepted events.  Correctness lives entirely in the accumulator.
        """
        acc = self.ensure_stream(daemon, segments)
        scan = _scan_chunk(daemon, acc.gate, data)
        return acc.absorb(scan), scan[1]

    def evict_app(self, app_id: str) -> List[str]:
        """Forget one application's mined state.

        Container streams owned by the app are dropped whole (their
        accumulators are the bulk of the resident footprint), and the
        app's event tuples are pruned from the shared daemon streams
        (RM, NMs) whose logs keep growing with other tenants' traffic.
        Returns the daemons dropped entirely, so the tailer can stop
        following their files too.
        """
        dropped = [
            daemon
            for daemon in self.streams
            if msg.app_id_of_container(daemon) == app_id
        ]
        for daemon in dropped:
            del self.streams[daemon]
        for acc in self.streams.values():
            if acc.compact:
                acc.compact = [
                    event for event in acc.compact if event[2] != app_id
                ]
        return dropped

    # -- canonical views ---------------------------------------------------
    def events(self) -> list:
        """All mined events in batch order (sorted daemon, stream order)."""
        out = []
        for daemon in sorted(self.streams):
            out.extend(self.streams[daemon].events())
        return out

    def diagnostics(self) -> MiningDiagnostics:
        """A fresh ledger over every stream, in sorted daemon order."""
        diagnostics = MiningDiagnostics()
        for daemon in sorted(self.streams):
            diagnostics.streams[daemon] = self.streams[daemon].diagnostics()
        return diagnostics

    def counter_totals(self) -> Tuple[int, int, int, int]:
        """(lines, records, dropped, events) summed over all streams."""
        lines = records = dropped = events = 0
        for acc in self.streams.values():
            c = acc.counters
            lines += c[0]
            records += c[1]
            dropped += c[2] + c[3]
            events += len(acc.compact)
        return lines, records, dropped, events

    # -- checkpointing -----------------------------------------------------
    def to_state(self) -> dict:
        return {
            daemon: self.streams[daemon].to_state()
            for daemon in sorted(self.streams)
        }

    @classmethod
    def from_state(cls, state: dict) -> "LiveMiner":
        miner = cls()
        for daemon, stream_state in state.items():
            miner.streams[daemon] = StreamEventAccumulator.from_state(stream_state)
        return miner


class LiveSession:
    """One live mining-and-serving session over growing log directories."""

    def __init__(
        self,
        directory: Union[str, Path, Sequence[Union[str, Path]]],
        checkpoint_path: Optional[str | Path] = None,
        evict_after_polls: Optional[int] = None,
        checkpoint_every_polls: int = 1,
    ):
        if isinstance(directory, (str, Path)):
            directories: List[Path] = [Path(directory)]
        else:
            directories = [Path(entry) for entry in directory]
        if not directories:
            raise ValueError("LiveSession needs at least one directory")
        self.directories = directories
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        if checkpoint_every_polls < 1:
            raise ValueError("checkpoint_every_polls must be a positive poll count")
        #: Checkpoint write cadence: 1 persists after every poll (the
        #: strictest durability), N amortizes the full-state JSON write
        #: over N polls — ``drain`` and :meth:`save_checkpoint` always
        #: write immediately, so at most N-1 polls of progress are
        #: re-tailed after a crash (cursors and miner state are saved
        #: together, so a resume is consistent, just older).
        self.checkpoint_every_polls = checkpoint_every_polls
        self._polls_since_checkpoint = 0
        self.tailers: List[DirectoryTailer] = [
            DirectoryTailer(path) for path in self.directories
        ]
        self.miner = LiveMiner()
        self.metrics = build_live_registry()
        # Per-poll counter handles, bound once: name-hashing four
        # registry lookups per chunk was measurable at poll rates.
        self._lines_counter = self.metrics.counter("repro_live_ingest_lines_total")
        self._records_counter = self.metrics.counter(
            "repro_live_ingest_records_total"
        )
        self._dropped_counter = self.metrics.counter("repro_live_dropped_lines_total")
        self._events_counter = self.metrics.counter("repro_live_events_total")
        self._polls_counter = self.metrics.counter("repro_live_polls_total")
        self._lag_gauge = self.metrics.gauge("repro_live_tail_lag_bytes")
        self._streams_gauge = self.metrics.gauge("repro_live_streams")
        if evict_after_polls is not None and evict_after_polls < 1:
            raise ValueError("evict_after_polls must be a positive poll count")
        #: Polls an app may stay resident after finality; None disables
        #: eviction (the default — eviction trades the batch-identity
        #: contract for bounded memory).
        self.evict_after_polls = evict_after_polls
        #: Apps whose terminal transition has been mined.
        self._final_apps: Set[str] = set()
        #: Newly final apps whose delay components have not yet been
        #: observed into the metrics histograms.  Observation needs a
        #: built report; deferring it to the next :meth:`report` (or
        #: metrics render) means a poll that finalizes apps no longer
        #: pays a full analysis rebuild inline — the single largest
        #: cost in the live ingest profile.
        self._pending_component_apps: List[str] = []
        #: app -> poll counter value at which it became final.
        self._final_at: Dict[str, int] = {}
        #: Apps evicted by the TTL policy (never resurrected).
        self._evicted_apps: Set[str] = set()
        self._poll_count = 0
        #: Bumped whenever mining state changes; keys the report cache.
        self.revision = 0
        self._report_cache: Optional[Tuple[int, AnalysisReport]] = None
        #: Answers built from the cached report, dropped with it.  App
        #: status changes only in a poll that bumps the revision, so
        #: the report's revision keys these too.
        self._apps_rows: Optional[List[dict]] = None
        self._entries: Optional[Dict[str, dict]] = None
        self.drained = False

    # -- directory plumbing ------------------------------------------------
    @property
    def directory(self) -> Path:
        """The first (for most sessions, only) tailed directory."""
        return self.directories[0]

    @property
    def tail_lag_bytes(self) -> int:
        return sum(t.tail_lag_bytes for t in self.tailers)

    @property
    def resyncs(self) -> int:
        return sum(t.resyncs for t in self.tailers)

    @property
    def rotations(self) -> int:
        return sum(t.rotations for t in self.tailers)

    @property
    def evicted_apps(self) -> List[str]:
        return sorted(self._evicted_apps)

    def _collect(self, chunk_lists: List[List[TailChunk]]) -> List[TailChunk]:
        """Concatenate per-directory chunks, rejecting daemon collisions.

        Two directories contributing the same daemon name would
        interleave two different byte streams through one accumulator —
        and make "batch over the union" ill-defined — so it is a loud
        error, not a silent merge.
        """
        owner: Dict[str, Path] = {}
        merged: List[TailChunk] = []
        for tailer, chunks in zip(self.tailers, chunk_lists):
            for chunk in chunks:
                held = owner.get(chunk.daemon)
                if held is not None:
                    raise ValueError(
                        f"daemon {chunk.daemon!r} appears in both {held} "
                        f"and {tailer.directory}; tailed directories must "
                        "have disjoint stream names"
                    )
                owner[chunk.daemon] = tailer.directory
                merged.append(chunk)
        return merged

    # -- ingest ------------------------------------------------------------
    def poll(self) -> int:
        """Tail every directory once and mine what arrived; new events."""
        chunk_lists: List[List[TailChunk]] = []
        for tailer in self.tailers:
            chunk_lists.append(tailer.poll())
        return self._ingest(self._collect(chunk_lists))

    def drain(self) -> AnalysisReport:
        """Flush held-back tails and return the canonical final report.

        After the directories have stopped growing, this report is
        byte-identical to batch ``SDChecker`` over the union of their
        files — provided the session never evicted.
        """
        chunk_lists: List[List[TailChunk]] = []
        for tailer in self.tailers:
            chunk_lists.append(tailer.drain())
        self._ingest(self._collect(chunk_lists))
        self.drained = True
        self._checkpoint(force=True)
        return self.report()

    def _ingest(self, chunks: List[TailChunk]) -> int:
        new_events = 0
        changed = False
        lines = records = dropped = 0
        finished_apps: Set[str] = set()
        for chunk in chunks:
            if not chunk.data:
                # Even a silent stream changes the ledger the first
                # time it is seen (and whenever its segment count grows).
                known = self.miner.streams.get(chunk.daemon)
                if known is None or chunk.segments > known.segments:
                    changed = True
                self.miner.ensure_stream(chunk.daemon, chunk.segments)
                continue
            changed = True
            accepted, counters = self.miner.feed(
                chunk.daemon, chunk.data, chunk.segments
            )
            new_events += len(accepted)
            lines += counters[0]
            records += counters[1]
            dropped += counters[2] + counters[3]
            for event in accepted:
                if event[0] == _APP_FINISHED_VALUE and event[2] is not None:
                    finished_apps.add(event[2])
        if changed:
            self.revision += 1
        if lines:
            self._lines_counter.inc(lines)
        if records:
            self._records_counter.inc(records)
        if dropped:
            self._dropped_counter.inc(dropped)
        if new_events:
            self._events_counter.inc(new_events)
        self._poll_count += 1
        self._polls_counter.inc()
        self._lag_gauge.set(self.tail_lag_bytes)
        self._streams_gauge.set(len(self.miner.streams))
        self._upgrade_finished_apps(finished_apps)
        self._evict_expired()
        self._polls_since_checkpoint += 1
        self._checkpoint()
        return new_events

    def _upgrade_finished_apps(self, finished_apps: Set[str]) -> None:
        """Provisional -> final upgrades for apps whose terminal arrived.

        ``finished_apps`` is collected from this poll's *accepted*
        ``APP_FINISHED`` tuples — terminals absorbed before a
        checkpoint resume are already in ``_final_apps`` — so finality
        tracking costs O(new events), not a rescan of every stream's
        accumulated event list per poll.
        """
        newly_final = sorted(
            app_id
            for app_id in finished_apps
            if app_id not in self._final_apps
        )
        for app_id in newly_final:
            self._final_apps.add(app_id)
            self._final_at[app_id] = self._poll_count
        self.metrics.gauge("repro_live_apps_final").set(
            len(self._final_apps - self._evicted_apps)
        )
        if newly_final:
            self._pending_component_apps.extend(newly_final)

    def _evict_expired(self) -> None:
        """TTL policy: drop apps final for ``evict_after_polls`` polls.

        Keeps resident state bounded under a rolling stream of finished
        applications: each evicted app releases its container-stream
        accumulators and tail cursors, and its events leave the shared
        daemon streams.  The evicted set itself (one string per app) is
        the only thing that still grows.
        """
        if self.evict_after_polls is None:
            return
        expired = sorted(
            app_id
            for app_id, final_poll in self._final_at.items()
            if app_id not in self._evicted_apps
            and self._poll_count - final_poll >= self.evict_after_polls
        )
        if not expired:
            return
        for app_id in expired:
            dropped = self.miner.evict_app(app_id)
            for tailer in self.tailers:
                for daemon in dropped:
                    tailer.evict_stream(daemon)
            self._evicted_apps.add(app_id)
            self._final_at.pop(app_id, None)
        self.revision += 1
        self.metrics.counter("repro_live_apps_evicted_total").inc(len(expired))
        self.metrics.gauge("repro_live_streams").set(len(self.miner.streams))

    def _observe_final_components(
        self, report: AnalysisReport, app_ids: List[str]
    ) -> None:
        """Feed a newly final app's delay components into the histograms.

        Observed once per app, after its provisional->final upgrade:
        the operational view of the paper's per-component
        decomposition.  Observation is *deferred* — it queues at the
        upgrade and runs against the next report actually built (a
        query, a metrics render, the drain), so a quiet poll loop
        never rebuilds the analysis just to fill histograms.  (The
        analytical truth remains the report — events that straggle in
        from other streams after finality still update it.)
        """
        by_id = {app.app_id: app for app in report.apps}
        histogram = self.metrics.histogram("repro_live_component_delay_seconds")
        for app_id in app_ids:
            app = by_id.get(app_id)
            if app is None:
                continue
            for component in _APP_COMPONENTS:
                value = getattr(app, f"{component}_delay")
                if value is not None:
                    histogram.labels(component=component).observe(value)
            for container in app.containers:
                for component in _CONTAINER_COMPONENTS:
                    value = getattr(container, f"{component}_delay")
                    if value is not None:
                        histogram.labels(component=component).observe(value)

    # -- serving views -----------------------------------------------------
    def report(self) -> AnalysisReport:
        """The canonical analysis over everything mined so far (cached)."""
        cached = self._report_cache
        if cached is not None and cached[0] == self.revision:
            report = cached[1]
        else:
            events = self.miner.events()
            if self._evicted_apps:
                # Stragglers mined for an already-evicted app (late
                # lines in a shared daemon log) must not resurrect it
                # half-analyzed.
                events = [e for e in events if e.app_id not in self._evicted_apps]
            report = analyze_events(events, self.miner.diagnostics())
            self._report_cache = (self.revision, report)
            self._apps_rows = self._entries = None
            self.metrics.gauge("repro_live_apps").set(len(report.apps))
        if self._pending_component_apps:
            pending = sorted(set(self._pending_component_apps))
            self._pending_component_apps = []
            self._observe_final_components(report, pending)
        return report

    def metrics_text(self) -> str:
        """Prometheus text exposition, pending observations flushed."""
        if self._pending_component_apps:
            self.report()
        return self.metrics.render()

    def metrics_state(self) -> dict:
        """The registry's mergeable state, pending observations flushed."""
        if self._pending_component_apps:
            self.report()
        return self.metrics.to_state()

    def app_status(self, app_id: str) -> str:
        return "final" if app_id in self._final_apps else "provisional"

    def apps_payload(self) -> List[dict]:
        """The ``apps`` query: one status row per application, sorted.

        Built once per revision and shared by every query until the
        next change, so callers must not mutate it.
        """
        report = self.report()
        if self._apps_rows is None:
            self._apps_rows = app_rows(report, self._final_apps)
        return self._apps_rows

    def decomposition_payload(self, app_id: str) -> Optional[dict]:
        """The ``decomposition <app_id>`` query: one app's full breakdown.

        ``None`` for an unknown app.  Every app's entry is built on the
        first such query of a revision and shared until the next
        change, so callers must not mutate it.
        """
        report = self.report()
        if self._entries is None:
            self._entries = decomposition_entries(report, self._final_apps)
        return self._entries.get(app_id)

    def diagnostics_payload(self) -> dict:
        """The ``diagnostics`` query: mining ledger plus tailer counters."""
        return diagnostics_dict(self.report(), self._tailing())

    def _tailing(self) -> dict:
        """The tailer-side keys of the ``state`` payload."""
        return {
            "evicted_apps": self.evicted_apps,
            "tail_lag_bytes": self.tail_lag_bytes,
            "resyncs": self.resyncs,
            "rotations": self.rotations,
            "drained": self.drained,
        }

    def state_payload(self) -> dict:
        """The ``state`` op: everything a merging front end needs.

        The miner state is the same JSON the checkpoint persists; a
        router unions these across shards (daemon names are disjoint by
        the multi-directory precondition), rebuilds one
        :class:`LiveMiner`, and runs the same analysis tail — which is
        why the merged report is byte-identical to batch.
        """
        return {
            "miner": self.miner.to_state(),
            "final_apps": sorted(self._final_apps),
            **self._tailing(),
        }

    # -- checkpoint / resume -----------------------------------------------
    def _checkpoint(self, force: bool = False) -> None:
        if self.checkpoint_path is None:
            return
        if not force and self._polls_since_checkpoint < self.checkpoint_every_polls:
            return
        self.save_checkpoint(self.checkpoint_path)
        self._polls_since_checkpoint = 0

    def save_checkpoint(self, path: str | Path) -> Path:
        """Atomically persist cursors + mining state + app finality."""
        path = Path(path)
        state = {
            "version": CHECKPOINT_VERSION,
            # "directory"/"tailer" (singular) kept for pre-multi-dir
            # readers of single-directory checkpoints.
            "directory": str(self.directory),
            "directories": [str(p) for p in self.directories],
            "revision": self.revision,
            "drained": self.drained,
            "tailers": [t.to_state() for t in self.tailers],
            "miner": self.miner.to_state(),
            "final_apps": sorted(self._final_apps),
            "final_at": dict(sorted(self._final_at.items())),
            "evicted_apps": sorted(self._evicted_apps),
            "poll_count": self._poll_count,
        }
        if len(self.tailers) == 1:
            state["tailer"] = state["tailers"][0]
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(state), encoding="utf-8")
        tmp.replace(path)
        return path

    @classmethod
    def from_checkpoint(
        cls,
        path: str | Path,
        directory: Optional[Union[str, Path, Sequence[Union[str, Path]]]] = None,
        checkpoint_path: Optional[str | Path] = None,
        evict_after_polls: Optional[int] = None,
        checkpoint_every_polls: int = 1,
    ) -> "LiveSession":
        """Rebuild a session from a checkpoint file and keep tailing.

        Ingest counters are re-primed from the restored accumulators and
        the tail-lag gauge from the restored cursors (the backlog is
        still there after a restart; reading 0 until the next poll was a
        lie); cadence series (polls, latency histograms) restart from
        zero — the analysis state is what the contract covers.
        """
        state = json.loads(Path(path).read_text(encoding="utf-8"))
        if state.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {state.get('version')!r}"
            )
        if directory is not None:
            target = directory
        else:
            target = state.get("directories", state["directory"])
        session = cls(
            target,
            checkpoint_path=checkpoint_path,
            evict_after_polls=evict_after_polls,
            checkpoint_every_polls=checkpoint_every_polls,
        )
        tailer_states = state.get("tailers")
        if tailer_states is None:
            tailer_states = [state["tailer"]]
        if len(tailer_states) != len(session.directories):
            raise ValueError(
                f"checkpoint holds {len(tailer_states)} tailer(s) but "
                f"{len(session.directories)} directories were given"
            )
        session.tailers = [
            DirectoryTailer.from_state(tailer_state, directory=path_)
            for tailer_state, path_ in zip(tailer_states, session.directories)
        ]
        session.miner = LiveMiner.from_state(state["miner"])
        session._final_apps = set(state["final_apps"])
        session._final_at = {
            app_id: int(poll)
            for app_id, poll in state.get("final_at", {}).items()
        }
        session._evicted_apps = set(state.get("evicted_apps", ()))
        session._poll_count = int(state.get("poll_count", 0))
        session.revision = state["revision"]
        session.drained = state["drained"]
        lines, records, dropped, events = session.miner.counter_totals()
        session.metrics.counter("repro_live_ingest_lines_total").inc(lines)
        session.metrics.counter("repro_live_ingest_records_total").inc(records)
        session.metrics.counter("repro_live_dropped_lines_total").inc(dropped)
        session.metrics.counter("repro_live_events_total").inc(events)
        session.metrics.gauge("repro_live_tail_lag_bytes").set(
            session.tail_lag_bytes
        )
        session.metrics.gauge("repro_live_apps_final").set(
            len(session._final_apps - session._evicted_apps)
        )
        return session
