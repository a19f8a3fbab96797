"""Host-speed calibration.

The benchmark host has slow phases lasting from seconds to minutes, in
which the same code runs up to 70% slower; CPU time grows with wall time,
so the core itself is slower, not descheduled. A fixed probe kernel run
just before a measured unit slows down with it. Over two minutes of
alternating probes and units on the reference host, the spread of 10-second
medians (relative standard deviation) fell from 6.3% to 3.4% for a train
step, from 10.5% to 3.5% for a regressor gradient check and from 8.8% to
1.0% for a piloted episode when each unit's time was divided by the probe's.
Every time the benchmark reports is therefore scaled to a host on which the
probe takes ``REFERENCE_PROBE_S``. The probe is benchmark code, so the scale
does not depend on the program under test.
"""

from __future__ import annotations

import json
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_PROBE_S = 2.0e-3
PROBE_INTERVAL_S = 0.05

_A = np.full((10, 32), 0.5)
_W = np.full((32, 32), 0.01)
_RECORDS = [{"objects": [[0.5, 120.25, -3.5, [0.1] * 16, [0.2] * 12] for _ in range(8)], "gt": [1.5, 2.5]}] * 4


def probe_once() -> float:
    """Seconds for one fixed mix of interpreter arithmetic, small numpy
    calls, JSON round trips and small-object allocation: the kinds of work
    the program's layers do."""
    t0 = perf_counter()
    acc = 0
    for i in range(10_000):
        acc += (i * i) % 7
    a = _A
    for _ in range(150):
        a = np.tanh(a @ _W)
    for record in _RECORDS:
        json.loads(json.dumps(record))
    items = []
    for i in range(1500):
        items.append((i, float(i), [i]))
    return perf_counter() - t0


def host_probe(repeats: int = 20) -> dict:
    """Median and range of a block of probes, stored with each run."""
    times = [probe_once() for _ in range(repeats)]
    return {"probe_median_s": statistics.median(times), "probe_min_s": min(times), "probe_max_s": max(times)}


class HostClock:
    """Scales measured seconds to the reference host speed.

    As a context manager with ``interrupts=True`` the clock probes the host
    every ``PROBE_INTERVAL_S`` from a SIGALRM handler, also inside long
    units: a unit is scaled by the median of the probes taken while it ran
    (or, for a unit shorter than the interval, of the last three), and the
    probes' own time is subtracted from it. Without interrupts (the traced
    run, whose spans should not contain probes) the clock probes between
    units only.
    """

    def __init__(self, interrupts: bool = False):
        self.interrupts = interrupts
        self.probes: list[float] = []
        self.probe_busy_s = 0.0  # wall time spent probing so far
        self._last_at = float("-inf")
        self._in_probe = False
        self._previous_handler = None

    def __enter__(self) -> "HostClock":
        self.refresh(force=True)
        if self.interrupts:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.interrupts:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, signum, frame) -> None:
        if not self._in_probe:
            self.refresh(force=True)

    def refresh(self, force: bool = False) -> None:
        if self._in_probe or not (force or perf_counter() - self._last_at >= PROBE_INTERVAL_S):
            return
        self._in_probe = True
        t0 = perf_counter()
        self.probes.append(probe_once())
        self._last_at = perf_counter()
        self.probe_busy_s += self._last_at - t0
        self._in_probe = False

    def factor(self, first_probe: int | None = None) -> float:
        """Reference over measured probe time, from the probes since
        ``first_probe`` or, if there are none, the last three."""
        if not self.interrupts:
            self.refresh()
        recent = self.probes[first_probe:] if first_probe is not None else []
        return REFERENCE_PROBE_S / statistics.median(recent or self.probes[-3:])

    def time(self, fn, *args, **kwargs):
        """Call ``fn``; returns (result, scaled seconds without probe time)."""
        if not self.interrupts:
            self.refresh()
        first, busy = len(self.probes), self.probe_busy_s
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        elapsed = perf_counter() - t0 - (self.probe_busy_s - busy)
        if not self.interrupts and elapsed > PROBE_INTERVAL_S:
            self.refresh(force=True)  # a long unit is scaled by probes on both sides
            return out, elapsed * REFERENCE_PROBE_S / statistics.median(self.probes[first - 1 :])
        return out, elapsed * self.factor(first)

    def summary(self) -> dict:
        if not self.probes:
            return {"probes": 0}
        median = statistics.median(self.probes)
        return {"probes": len(self.probes), "probe_median_s": median, "scale": REFERENCE_PROBE_S / median}
