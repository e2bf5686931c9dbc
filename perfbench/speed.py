"""Normalising timings to a nominal machine speed.

The machines this benchmark runs on are shared, and the speed of one core
changes by up to 1.8x within seconds as other tenants load the host; no
hardware counters are exposed to count work instead.  So while a run
measures, a timer signal runs a fixed pure-Python probe every PROBE_EVERY
seconds, also in the middle of a job.  The time the probes take is taken
out of each job's latency, and the rest is scaled by NOMINAL_PROBE_S / P,
where P is the median duration of the probes taken during the job and
within PROBE_EVERY on either side of it.  A normalised timing reads in
seconds on a machine where the probe takes exactly NOMINAL_PROBE_S.  It
changes when the program does more or less work, and much less when the
host speeds up or slows down.  The probe does not touch the program under
test.  Raw timings are reported alongside.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

PROBE_EVERY = 0.15
#: the probe's duration at the nominal speed, about its median on the 2.1 GHz
#: Xeon virtual machine the benchmark was developed on
NOMINAL_PROBE_S = 0.003
_PRODUCTS = 40


def probe(clock=time.perf_counter):
    """One run of the probe, the kinds of work qschur spends its time on:
    sparse products of dicts keyed by exponent tuples, and Gauss-Jordan
    elimination over Fraction.  Returns its duration."""
    t0 = clock()
    a = {(i, i % 3, (i * 7) % 4): i - 3 for i in range(6)}
    b = {(i % 5, i % 2, i % 3): 2 * i + 1 for i in range(5)}
    for _ in range(_PRODUCTS):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                nc = out.get(key, 0) + c1 * c2
                if nc:
                    out[key] = nc
                else:
                    out.pop(key, None)
    rows = [[Fraction((i * j + 3) % 17 - 8, (i + j) % 11 + 1) for j in range(12)]
            for i in range(6)]
    for p in range(6):
        inv = 1 / (rows[p][p] or 1)
        rows[p] = [x * inv for x in rows[p]]
        for q in range(6):
            if q != p and rows[q][p]:
                f = rows[q][p]
                rows[q] = [x - f * y for x, y in zip(rows[q], rows[p])]
    return clock() - t0


class Probes:
    """Probe durations with their start times.  Inside `with probes:` the
    probe runs from a SIGALRM timer every PROBE_EVERY seconds."""

    def __init__(self, clock=time.perf_counter, run=probe):
        self.clock = clock
        self._run = run
        self.starts = []
        self.durations = []
        self._cum = [0.0]       # cumulative probe time, for busy()

    def record(self, *_signal_args):
        t = self.clock()
        d = self._run(self.clock)
        self.starts.append(t)
        self.durations.append(d)
        self._cum.append(self._cum[-1] + d)

    def __enter__(self):
        self.record()
        self._previous = signal.signal(signal.SIGALRM, self.record)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, t0, t1):
        """Time spent in probes that started within [t0, t1)."""
        return (self._cum[bisect_left(self.starts, t1)]
                - self._cum[bisect_left(self.starts, t0)])

    def factor(self, t0, t1):
        """NOMINAL_PROBE_S / P for work done between t0 and t1, P being the
        median of the probes that started within PROBE_EVERY of it (the
        nearest ones when there is none)."""
        lo = bisect_left(self.starts, t0 - PROBE_EVERY)
        hi = bisect_left(self.starts, t1 + PROBE_EVERY)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.starts), lo + 1)
        return NOMINAL_PROBE_S / statistics.median(self.durations[lo:hi])

    def normalise(self, t0, t1):
        """(raw, normalised) time of the work done between t0 and t1, with
        the probes taken out."""
        raw = (t1 - t0) - self.busy(t0, t1)
        return raw, raw * self.factor(t0, t1)
