"""The host's speed, measured in step with the work whose times it scales.

The benchmark runs on shared virtual CPUs.  Other tenants slow them down by
up to half in spells of seconds, and the whole host drifts by a fifth over
tens of minutes, so a wall time says as much about the hour as about
groupra.  Every time the benchmark reports is therefore rescaled by probes:
a timer signal every ``PROBE_EVERY_S`` runs a fixed piece of pure-Python
work (a loop of small function calls and integer operations) in the main
thread, between two bytecodes of whatever runs there, and times it.  Of the
kernels tried, this one slowed in proportion to groupra's parsing, frame
checks and composition when the host slowed; one of dict, set and
big-integer operations slowed more, and over-corrected.  An interval's work
time is its wall time less the probes that ran inside it, and it is
rescaled to a reference machine, one on which the probe takes
``REFERENCE_PROBE_S``, by the median probe around it:

    scaled = (wall - probes inside) * REFERENCE_PROBE_S / median(probes near)

where the rate is taken afresh for each stretch of work between two probes.

The probe does not touch groupra, so a change to the program moves the
scaled times as it moves the wall times at a fixed host speed.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter as clock

# The probe's time on the reference machine: about its median on a 2-vCPU
# KVM guest with Python 3.11 when the host is not slowed, so scaled times
# read close to the wall times of such a guest.
REFERENCE_PROBE_S = 0.0003
PROBE_EVERY_S = 0.02
# Probes within this distance of a stretch of work give its rate; at least
# two on each side of it are used where the run has them.
NEAR_S = 0.1
_KERNEL_STEPS = 2500


def _step(a: int, b: int) -> int:
    return (a ^ b) & 0xFFFF


def _kernel() -> None:
    acc = 0
    for i in range(_KERNEL_STEPS):
        acc = _step(acc, i) + (i >> 3)


class Speedometer:
    """Probes taken while it is entered, and the reference clock they give.

    After it is left, ``scale`` turns an interval into seconds on the
    reference machine: each stretch of work between two probes counts its
    length times ``REFERENCE_PROBE_S`` over the median probe near it, and
    the probes themselves count nothing.  Scaled times therefore add up: the
    spans inside a span never scale to more than it does.
    """

    def __init__(self) -> None:
        self.start = array("d")
        self.took = array("d")

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if exc[0] is None:
            self._settle()

    def _probe(self, signum, frame) -> None:
        t0 = clock()
        _kernel()
        t1 = clock()
        self.start.append(t0)
        self.took.append(t1 - t0)

    def _settle(self) -> None:
        """The rate of each stretch of work after a probe, and the reference
        time at its start."""
        n = len(self.start)
        if n < 2:
            raise RuntimeError("the run was too short for two speed probes")
        starts, took = self.start, self.took
        self.after = array("d", (s + t for s, t in zip(starts, took)))
        self.rate = array("d")
        self.at = array("d", [0.0])
        for i in range(n):
            lo = min(bisect_left(starts, self.after[i] - NEAR_S), max(i - 2, 0))
            hi = max(bisect_left(starts, self.after[i] + NEAR_S), min(i + 3, n))
            self.rate.append(REFERENCE_PROBE_S / statistics.median(took[lo:hi]))
            if i + 1 < n:
                self.at.append(self.at[i] + (starts[i + 1] - self.after[i]) * self.rate[i])

    def _reference(self, t: float) -> float:
        i = max(bisect_right(self.after, t) - 1, 0)
        if i + 1 < len(self.start):
            t = min(t, self.start[i + 1])
        return self.at[i] + (t - self.after[i]) * self.rate[i]

    def scale(self, start: float, end: float) -> float:
        """Seconds on the reference machine for the work done between
        ``start`` and ``end`` (two readings of ``perf_counter``)."""
        return self._reference(end) - self._reference(start)
