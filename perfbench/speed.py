"""Op times corrected for the speed of a shared host.

The cores a run gets are shared with other machines' work. On a 2-vCPU
Xeon VM a fixed piece of work took between 1.0x and 1.65x its fastest
time, in phases of one to tens of seconds, and pure Python, a numpy
stream and a sparse mat-vec slowed down together. Raw wall times of one
op within one run then spread by 20-50% (quartiles over median).

``SpeedProbe`` runs a short fixed probe, made of those three kinds of
work, right before and right after each timed op and, from a SIGALRM
handler, every ``PERIOD`` seconds while the op runs. The host's speed at a
probe is ``NOMINAL_S`` over the probe's time.

btlrank's ops slowed down more than the probe: fitted over the samples of
each op, the log of an op's time grew 1.3 to 1.8 times as fast as the log
of the probe's (``ALPHA``). So the op's corrected time is its wall time,
minus the time the probes took inside it, times the mean of the probes'
speeds raised to ``ALPHA``: an estimate of the op's time on this host at
the speed where the probe takes ``NOMINAL_S``. A mean over speeds, not
over probe times, follows the host through a phase change within the op,
and a probe that was descheduled counts no more than any other. The probe
uses only numpy and scipy, so a change to btlrank moves the corrected
time exactly as it moves the wall time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp

PERIOD = 0.02  # seconds between probes while an op runs
NOMINAL_S = 4e-4  # probe time at the host's fastest speed, rounded
ALPHA = 1.5  # how much more than the probe the ops slow down, in log terms


class SpeedProbe:
    def __init__(self, period=PERIOD):
        self.period = period
        gen = np.random.default_rng(0)
        self._a = gen.random(50_000)
        self._b = gen.random(50_000)
        self._out = np.empty_like(self._a)
        self._m = sp.random(10_000, 10_000, density=5e-4, format="csr", random_state=gen)
        self._x = np.ones(10_000)
        self.probes: list[tuple[float, float]] = []  # (start, seconds) of every probe
        self.walls: list[tuple[float, float]] = []  # (wall, corrected) of every timed call
        self._previous = None

    def _probe(self):
        start = perf_counter()
        s = 0
        for i in range(3000):
            s += i * i
        np.multiply(self._a, self._b, out=self._out)
        self._m @ self._x
        self.probes.append((start, perf_counter() - start))

    def _tick(self, signum, frame):
        self._probe()

    def __enter__(self):
        """Probe every ``period`` seconds until exit; with period 0, ``time``
        probes only right before and right after the call."""
        if self.period:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn):
        """Call ``fn()``; return its corrected time in seconds and its result."""
        self._probe()
        before = len(self.probes) - 1
        start = perf_counter()
        result = fn()
        end = perf_counter()
        self._probe()
        around = self.probes[before:]
        inside = sum(t for s, t in around if start <= s and s + t <= end)
        speed = statistics.fmean((NOMINAL_S / t) ** ALPHA for _, t in around)
        corrected = (end - start - inside) * speed
        self.walls.append((end - start, corrected))
        return corrected, result
