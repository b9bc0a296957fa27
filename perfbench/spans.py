"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` records one :class:`Span` per wrapped call: its name,
start, end, parent span and run id.  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines at the end of a run.
:meth:`Tracer.patch` swaps a public function or method for a wrapper
that records a span around each call and restores the original on exit,
so the program itself is never edited.

Span names follow the stage vocabulary spans inside the program will
use (``sim.build``, ``sim.run``, ``logs.dump``, ``mine``, ``analyze.*``,
``live.*``, ``calibrate.*``), so those can later nest under these.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "covered", "self_times", "uncovered"]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    #: Counts recorded at the same boundary (events, lines, bytes...).
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Children of one span may overlap each other (spans from two
    threads under one parent); their union is counted once.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    kids = _children(spans)
    return {
        span.span_id: span.duration
        - covered([(c.start, c.end) for c in kids.get(span.span_id, [])], span.start, span.end)
        for span in spans
    }


def uncovered(spans: Sequence[Span], root: Span) -> float:
    """Wall time of ``root`` that no descendant span covers."""
    return self_times([root, *[s for s in spans if s.parent == root.span_id]])[root.span_id]


class Tracer:
    """Collects spans from any thread; nesting is tracked per thread.

    A span opened on a thread with no open span of its own takes the
    current root (see :meth:`root`) as its parent, so work a server
    thread does while the main thread holds a root span nests under it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[Span] = None

    def current(self) -> Optional[Span]:
        """The innermost span open on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, run_id: Optional[str] = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if run_id is None:
            run_id = parent.run_id if parent is not None else ""
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, self.clock(), 0.0, parent.span_id if parent else None, run_id)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str, run_id: str) -> Iterator[Span]:
        """A run's top span; spans on other threads nest under it."""
        with self.span(name, run_id=run_id) as span:
            self._root = span
            try:
                yield span
            finally:
                self._root = None

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call.

        ``on_result(span, result, args, kwargs)`` may record counts on
        the span after it has closed, so counting costs no span time.
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def patch(
        self, owner: Any, attr: str, name: str, on_result: Optional[Callable] = None
    ) -> Iterator[None]:
        """Trace ``owner.attr`` until exit.

        ``owner`` is a module (a function it holds), a class (one of its
        methods or classmethods) or an instance (shadowing a bound method).
        """
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        if isinstance(original, classmethod):
            traced: Any = classmethod(self.wrap(name, original.__func__, on_result))
        else:
            traced = self.wrap(name, original, on_result)
        setattr(owner, attr, traced)
        try:
            yield
        finally:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def adopt(self, records: Sequence[Dict[str, Any]], root: Span) -> None:
        """Add spans another process recorded on the same monotonic clock.

        They get fresh ids.  A top-level span that starts inside ``root``
        nests under it and joins its run, with its descendants; the rest
        belong to no run.
        """
        by_id = {record["span_id"]: record for record in records}
        with self._lock:
            fresh = {old: next(self._ids) for old in sorted(by_id)}

        def top(record: Dict[str, Any]) -> Dict[str, Any]:
            while record["parent"] is not None:
                record = by_id[record["parent"]]
            return record

        for old, record in sorted(by_id.items()):
            ancestor = top(record)
            inside = root.start <= ancestor["start"] < root.end
            if record["parent"] is not None:
                parent: Optional[int] = fresh[record["parent"]]
            else:
                parent = root.span_id if inside else None
            span = Span(
                fresh[old],
                record["name"],
                record["start"],
                record["end"],
                parent,
                root.run_id if inside else "",
                dict(record["counts"]),
            )
            with self._lock:
                self.spans.append(span)

    def of_run(self, run_id: str) -> List[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")
        return path

