"""Machine-speed meter for normalising timed sections.

On a shared machine the same unit of work takes anywhere from 0.8 s to
1.6 s depending on what else runs on the host, and the speed moves by
about 20% from one half-second to the next.  References timed before and
after a unit miss what happens during it, so the meter samples the speed
inside the timed section instead: every INTERVAL_S a SIGALRM handler runs
a fixed micro reference (about 2 ms of the subset-DP loop the counting
kernel runs; no matchdiff code) and records how long it took.  The worker
then reports

    normalised = (wall - meter time) * MICRO_NOMINAL_S / mean(micro time)

that is, the section's time on a machine that runs the micro reference in
MICRO_NOMINAL_S.  On repeated cold derivations this cut the unit-to-unit
variation from 12.6% (raw) and 9.4% (references timed before and after
each step) to 1.5%.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04
MICRO_NOMINAL_S = 0.002


def micro_reference() -> int:
    """A fixed subset-DP pass over 2^9 right-vertex sets."""
    a = [0] * 512
    a[0] = 1
    for v in range(9):
        row = (v, (v + 2) % 9, (v + 5) % 9)
        for s in range(511, -1, -1):
            acc = 0
            for u in row:
                bit = 1 << u
                if s & bit:
                    acc += a[s ^ bit]
            if acc:
                a[s] += acc
    return a[-1]


def _time_micro() -> float:
    t0 = time.perf_counter()
    micro_reference()
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples the micro reference every INTERVAL_S between start() and
    stop().  One meter per process: it owns the SIGALRM handler."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame:
                      self.samples.append(_time_micro()))

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self, wall: float) -> float:
        """Stop sampling and return `wall` normalised: meter time taken
        out, rescaled to a machine with the nominal micro time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples = self.samples or [_time_micro()]
        spent = sum(self.samples)
        return (wall - spent) * MICRO_NOMINAL_S * len(samples) / sum(samples)
