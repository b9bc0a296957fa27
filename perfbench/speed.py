"""Host speed probe: a fixed workload timed right before and after each operation.

On a shared virtual machine the speed of a vCPU drifts by +-20% over tens
of seconds, with the process on-CPU the whole time, so neither CPU time
nor a longer run removes it.  Each timed operation is therefore scaled
by ``NOMINAL_S / probe``, where ``probe`` is the mean of this fixed
workload's time just before and just after the operation.  The probe is
part of the benchmark, never of the program, so a change to the program
moves the scaled figure exactly as it moves the raw one, while the
host's drift cancels.  Raw timings are printed beside the scaled ones.

An open-loop run is one long operation whose latencies are far shorter
than a probe, and a vCPU also flips between two speeds about 40% apart
every 0.1-1 s, so its load generator runs the probe's work in
:data:`SLICES` slices all through the run, while it waits for a due
time with no request outstanding, and times each (:func:`work_slice`).  The mean slice time,
host stalls included as they are in the latencies, times ``SLICES`` is
that run's reading (:meth:`SpeedProbe.scale_from_slices`).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Sequence, Tuple

__all__ = ["NOMINAL_S", "SLICES", "SpeedProbe", "work_slice"]

#: The probe's time at nominal host speed.  It only sets the scale:
#: scaled timings read as seconds on a host where the probe takes this long.
NOMINAL_S = 0.004

_LINES = [
    f"2018-01-12 00:00:{i % 60:02d},{i % 1000:03d} INFO x.RMContainerImpl: "
    f"container_1515715200000_{i % 97:04d}_01_{i:06d} Container Transitioned".encode()
    for i in range(3000)
]
_BLOB = b"\n".join(_LINES) * 8


#: Slices of :func:`_work` for :func:`work_slice`; divides ``len(_LINES)``.
SLICES = 250


def _parse(lines: List[bytes]) -> int:
    seen: dict = {}
    for line in lines:
        parts = line.split(b" ", 4)
        key = parts[4][:32]
        seen[key] = seen.get(key, 0) + len(parts[3])
    return len(seen)


def _work() -> int:
    """Interpreter-bound parsing plus a bytes scan, like the program's hot paths."""
    return _BLOB.count(b"Transitioned") + _parse(_LINES)


def slice_bounds(index: int) -> Tuple[slice, slice]:
    """The lines and the blob bytes of the ``index``-th slice (mod :data:`SLICES`)."""
    index %= SLICES
    per = len(_LINES) // SLICES
    return (
        slice(index * per, (index + 1) * per),
        slice(len(_BLOB) * index // SLICES, len(_BLOB) * (index + 1) // SLICES),
    )


def work_slice(index: int) -> int:
    """The ``index``-th of :data:`SLICES` equal parts of :func:`_work`.

    The slices together parse every line and scan every byte of the blob
    once, as one :func:`_work` does.
    """
    lines, blob = slice_bounds(index)
    return _BLOB.count(b"Transitioned", blob.start, blob.stop) + _parse(_LINES[lines])


class SpeedProbe:
    """Times :func:`_work`; the median of ``repeats`` runs is one reading."""

    def __init__(self, repeats: int = 5, clock: Callable[[], float] = time.perf_counter):
        self.repeats = repeats
        self.clock = clock
        #: Every reading taken, for the run's metadata.
        self.readings: List[float] = []

    def measure(self) -> float:
        times = []
        for _ in range(self.repeats):
            start = self.clock()
            _work()
            times.append(self.clock() - start)
        reading = statistics.median(times)
        self.readings.append(reading)
        return reading

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor turning a raw timing into one at nominal speed."""
        return NOMINAL_S / ((before + after) / 2.0)

    @staticmethod
    def scale_from_slices(times: Sequence[float]) -> float:
        """The same factor from the times of :func:`work_slice` calls."""
        if not times:
            raise ValueError("no probe slices were timed")
        return NOMINAL_S / (statistics.fmean(times) * SLICES)
