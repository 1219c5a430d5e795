"""Calibrated timing on a machine whose speed drifts.

On a shared host the same pure-Python loop can run 1.6x slower for seconds
to minutes at a time, on every core at once, while the process keeps its
CPU (no steal time).  Wall time of a fixed amount of work then says more
about the neighbours than about the program.  This clock corrects for it:

* every ``PERIOD_S`` a timer signal runs a fixed pure-Python probe and
  records how long it took;
* an interval's calibrated time is its wall time, minus the probe time
  spent inside it, times the mean of (REFERENCE_S / probe duration) **
  elasticity over the samples taken during it.

So a calibrated second is the work the machine does in one second while
the probe takes ``REFERENCE_S``.  The probe is pure Python (no numpy) so
that starting the clock imports nothing the library would import.

The elasticity is how strongly the measured work's speed follows the
probe's.  It is measured, not chosen: over one-second windows on the host
where the benchmark was defined, the log time of a fixed radial ODE solve
moved ``ELASTICITY_ODE`` times, and of a fixed c-function loop
``ELASTICITY_CFUNCTION`` times, as much as the log time of the probe
(correlations 0.98 and 0.90).  Each workload uses the one of its
bottleneck.  ``elasticity.py`` repeats that measurement.  A later 300 s
rerun on the same host read 1.04 and 0.95 (correlations 0.95 and 0.97):
the elasticity itself moves with what the neighbours do, so calibration
removes most of the host's drift but not all of it, and a gain must also
show in the raw wall times (see README.md).
"""

from __future__ import annotations

import bisect
import cmath
import math
import signal
import time

PERIOD_S = 0.02
REFERENCE_S = 2.0e-4
ELASTICITY_ODE = 1.30
ELASTICITY_CFUNCTION = 1.06
MIN_SAMPLES = 3


def probe():
    """A fixed mix of float, complex and call overhead: about 0.2 ms."""
    z, s = 0.3 + 0.1j, 0.0
    for k in range(600):
        z = z * 0.999 + cmath.exp(-1e-3 * k * z) * 1e-3
        s += math.tanh(1e-3 * k) / (1.0 + abs(z))
    return z, s


class CalibratedClock:
    """Samples the probe from SIGALRM between ``start`` and ``stop``."""

    def __init__(self, elasticity):
        self.elasticity = elasticity
        self.times = []     # probe start times (perf_counter)
        self.durations = []
        self.spent = 0.0    # total probe time so far
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe()
        d = time.perf_counter() - t0
        self.times.append(t0)
        self.durations.append(d)
        self.spent += d

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def mark(self):
        """A point in time that ``seconds`` can measure from or to."""
        return time.perf_counter(), self.spent

    def seconds(self, begin, end):
        """Calibrated seconds between two marks."""
        (t0, s0), (t1, s1) = begin, end
        net = (t1 - t0) - (s1 - s0)
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            # short interval: the samples nearest to it in time
            lo = max(0, lo - MIN_SAMPLES // 2 - 1)
            hi = min(len(self.times), lo + MIN_SAMPLES + 1)
        window = self.durations[lo:hi]
        scale = sum((REFERENCE_S / d) ** self.elasticity for d in window)
        return net * scale / len(window)

    def wall(self, begin, end):
        """Wall seconds between two marks, probe time included."""
        return end[0] - begin[0]
