"""Speed probes: timings in reference seconds, steady on a host of varying speed.

On a shared virtual machine the same work can run up to twice as slowly
from one second to the next, because other tenants load the same cores.
A `SpeedProbe` measures that speed where and when the work runs: while it
is active, SIGALRM runs a fixed reference loop (`reference_unit`, plain
Fraction arithmetic that does not touch dbseeds) every `PROBE_EVERY_S`
seconds, in the same thread, between two bytecodes of whatever is running.

`ref_seconds(t0, t1)` turns the wall interval [t0, t1] of a task into
reference seconds: its wall time, less the probes that ran inside it,
times `REF_NOMINAL_S` over the mean probe time around it.  A reference
second is the time the work would take at the speed at which one probe
takes `REF_NOMINAL_S`.  A change to dbseeds that halves its work halves the
reference time; a change in the host's speed does not move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PROBE_EVERY_S = 0.025   # interval of the probe timer
REF_NOMINAL_S = 0.0005  # one probe at reference speed
WINDOW_S = 0.1          # probes this close to a task count towards its speed


def reference_unit() -> Fraction:
    """Fixed Fraction arithmetic, the kind of work dbseeds spends its time on."""
    s = Fraction(0)
    for i in range(1, 100):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    return s


class SpeedProbe:
    """Probes the interpreter's speed from SIGALRM while it is active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._busy = False

    def probe(self, *_signal_args) -> None:
        if self._busy:   # a late alarm inside a probe: skip it, so probes never nest
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_unit()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def ref_seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of [t0, t1], probes inside it left out.

        The speed is the mean of the probes that start within WINDOW_S of
        the interval, and always of the last probe before it and the first
        after it.  Call it after the probe is no longer active.
        """
        starts, ends = self.starts, self.ends
        before = bisect.bisect_right(starts, t0) - 1        # last probe starting before t0
        after = bisect.bisect_left(starts, t1)              # first probe starting at or after t1
        lo = min(before, bisect.bisect_left(starts, t0 - WINDOW_S))
        hi = max(after + 1, bisect.bisect_right(starts, t1 + WINDOW_S))
        durations = [e - s for s, e in zip(starts[lo:hi], ends[lo:hi])]
        inside = sum(e - s for s, e in zip(starts[before + 1:after], ends[before + 1:after]))
        wall = t1 - t0 - inside
        return wall, wall * REF_NOMINAL_S / statistics.fmean(durations)
