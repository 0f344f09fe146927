"""Host-speed correction for timed regions.

The benchmark's host runs eigenuq at speeds up to about 1.8x apart,
switching every few hundred milliseconds to seconds, for reasons outside
the guest (process CPU time equals wall time; steal time stays under
1%). How much of a run falls into the slow level changes from minute to
minute, so raw wall times of the same code spread by a quarter between
runs.

``SpeedProbe`` samples the host's speed while a region runs: a
wall-clock interval timer interrupts the region every ``PERIOD_S`` and
the signal handler times a fixed probe kernel. A region's *reference
seconds* are its wall seconds outside the probe, each interval weighted
by the speed the probe saw in it::

    ref_s = busy_s * mean(probe_ref / probe_i)

where ``probe_ref`` is a fixed constant: the kernel's time at the fast
level of the host the benchmark was written on (Intel Xeon, family 6
model 143, Python 3.11). Reference seconds are what the region would
take at that speed. ``probe_ref`` only sets the scale: it is a constant
and not a percentile of the run's own samples, because the host can sit
in its slow level for a whole run. The kernels are benchmark code, so a
change to eigenuq does not change them.

Run as a script, this module times one fresh import of ``eigenuq.cli``
(the set-up every eigenuq command pays) under the interpreter-only
kernel and prints the region as JSON.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

PERIOD_S = 0.01


def interp_kernel():
    """0.18 ms of interpreter work on the fast level; needs no import,
    so it can probe the import of numpy itself."""
    d = {}
    s = 0.0
    for i in range(800):
        d[i & 63] = d.get(i & 63, 0) + i
        s += (i * 0.5) ** 0.5
    return s + d[0]


interp_kernel.ref_s = 0.18e-3


def make_array_kernel():
    """0.2 ms of small-array numpy calls and interpreter work on the
    fast level, the mix of the channel solver's loop. Of the kernels
    tried, it tracks the host's slow level most closely for eigenuq
    commands."""
    import numpy as np

    x0 = np.linspace(0.1, 1.0, 192)

    def array_kernel():
        x = x0.copy()
        s = 0.0
        for i in range(40):
            x = np.sqrt(x * x + 1e-3) * 0.999
            s += float(x[i])
        d = {}
        for i in range(600):
            d[i & 63] = d.get(i & 63, 0) + i
        return s + d[0]

    array_kernel.ref_s = 0.2e-3
    return array_kernel


class SpeedProbe:
    """Times its kernel every PERIOD_S of wall time while a region runs."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []  # probe seconds, all regions of the run
        self.spent_s = 0.0

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t
        self.samples.append(dt)
        self.spent_s += dt

    def clock(self):
        """perf_counter() less the time spent in the probe, for timers
        that run inside a probed region (the tracer's spans)."""
        return time.perf_counter() - self.spent_s

    def time(self, fn):
        """Run fn(); return (its result, its wall seconds outside the
        probe, the probe samples taken while it ran)."""
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t
            signal.signal(signal.SIGALRM, previous)
        samples = self.samples[first:]
        busy = max(wall - sum(samples), 0.0)
        if not samples:  # shorter than one period: probe right after
            self._on_alarm(None, None)
            samples = self.samples[first:]
        return result, busy, samples


def reference_seconds(busy, samples, kernel):
    """Seconds of a region outside the probe, at the reference speed."""
    return busy * statistics.fmean(kernel.ref_s / s for s in samples)


if __name__ == "__main__":
    probe = SpeedProbe(interp_kernel)
    _, busy, samples = probe.time(lambda: __import__("eigenuq.cli"))
    print(json.dumps({"busy_s": busy, "samples": samples}))
