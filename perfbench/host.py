"""Host speed: a fixed pure-Python kernel, timed.

The benchmark runs on shared hosts whose speed drifts by tens of
percent within seconds and over minutes, which repetition inside one
run does not average away.  So untimed probes of a fixed kernel are
taken between calls, and each stretch of work is scaled by the speed
probed on either side of it: ``t`` host seconds between probes that
took ``p0`` and ``p1`` count as ``t * PROBE_REF_S / mean(p0, p1)`` —
seconds on a host where the probe takes ``PROBE_REF_S``.  The raw host
timings are printed too.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from statistics import median
from typing import Optional

#: one probe is the median of PROBE_REPEATS kernel runs of PROBE_ITERS
PROBE_ITERS = 6_000
PROBE_REPEATS = 5
#: the probe time that defines the reference host
PROBE_REF_S = 0.001
#: by default a probe precedes a call only when this long has passed
#: since the last one
PROBE_EVERY_S = 0.1
CALIB_ITERS = 300_000
CALIB_REPEATS = 5


def kernel(iters: int) -> float:
    """Seconds to run a fixed mix of integer arithmetic and dict stores,
    the interpreter's and simulator's diet."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(iters):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return time.perf_counter() - t0


def calibrate() -> float:
    """``host.calib_s``: the median of five longer kernel runs, so
    figures from different hosts can be compared."""
    return median([kernel(CALIB_ITERS) for _ in range(CALIB_REPEATS)])


class HostSpeed:
    """An untraced span recorder that probes the host between calls.

    Passed to ``run_pass`` in place of the null recorder: before a span
    opens, once ``every_s`` has passed since the last probe, it probes
    the host.  The host seconds between two probes form a segment, and a
    segment is scaled by the mean of the probes on either side of it.
    ``probe_s`` is the time spent probing, which the pass leaves out of
    its wall time.
    """

    enabled = False

    def __init__(self, every_s: float = PROBE_EVERY_S) -> None:
        self.every_s = every_s
        #: probe seconds, in order; segment ``i`` lies between probes
        #: ``i`` and ``i + 1``
        self.samples: list[float] = []
        #: host seconds of each finished segment
        self.segments: list[float] = []
        self.probe_s = 0.0
        self._segment_start: Optional[float] = None

    @property
    def segment(self) -> int:
        """Index of the segment now running."""
        return len(self.samples) - 1

    def probe(self) -> None:
        t0 = time.perf_counter()
        if self._segment_start is not None:
            self.segments.append(t0 - self._segment_start)
        self.samples.append(median([kernel(PROBE_ITERS)
                                    for _ in range(PROBE_REPEATS)]))
        self._segment_start = time.perf_counter()
        self.probe_s += self._segment_start - t0

    def span(self, name: str, job: Optional[str] = None):
        if (self._segment_start is None
                or time.perf_counter() - self._segment_start >= self.every_s):
            self.probe()
        return nullcontext({})

    def scale_of(self, segment: int) -> float:
        """Factor from host to reference seconds for a finished segment."""
        return 2 * PROBE_REF_S / (self.samples[segment] + self.samples[segment + 1])

    def close(self) -> float:
        """Finish the running segment with a probe; return the reference
        seconds of all segments."""
        self.probe()
        return sum(secs * self.scale_of(i) for i, secs in enumerate(self.segments))
