"""Host time scaled to a reference speed.

The hosts this benchmark runs on change speed by up to 2x over seconds
to tens of seconds, mostly through contention for the shared last-level
cache: a co-tenant's traffic slows memory-bound code such as this
simulator's dict-heavy index and graph walks.  Raw wall time is
therefore not comparable between runs.  A run samples the host's speed
all along: between timed samples, at least every :data:`EVERY_S` of
timed work, it times a probe that chases a chain through a dict of
400,000 string keys (about 50 MiB, so each step waits on the cache or
memory much as the simulator's lookups do).  The run's times are
reported scaled by ``REFERENCE_S / median probe time``: what they would
be on a host where the probe takes :data:`REFERENCE_S`.  The median over
the whole run is used because single probes jitter by tens of percent
from one to the next.

Measured on one host over 110 s of Blast ingest: per-iteration ingest
rates spread (interquartile range over median) by 21 % raw; 20 % scaled
by random reads over a 32 MiB array; 8 % scaled by this probe.

The probe belongs to the benchmark, so a change to the program under
test leaves it alone.  Its dict adds a constant to the process's
resident memory, and so to ``peak_rss_mb``.
"""

from __future__ import annotations

import functools
import gc
import random
import time
from typing import List

from perfbench.stats import median

#: Keys of the probe's dict.
PROBE_KEYS = 400_000
#: Steps per probe (about 7-13 ms on the hosts seen).
PROBE_STEPS = 20000
#: Probe time at the reference speed.
REFERENCE_S = 0.008
#: Timed work between two probes, at most.
EVERY_S = 0.2


class _Probe:
    def __init__(self) -> None:
        keys = [f"k{i}" for i in range(PROBE_KEYS)]
        random.Random(0).shuffle(keys)
        self.start = keys[0]
        self.next = dict(zip(keys, keys[1:] + keys[:1]))

    def __call__(self) -> float:
        """Host seconds the probe takes right now.  The cyclic garbage
        collector is off meanwhile: a collection landing in the probe
        would be read as a slow host."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            chain = self.next
            key = self.start
            start = time.perf_counter()
            for _ in range(PROBE_STEPS):
                key = chain[key]
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


@functools.lru_cache(maxsize=1)
def _shared_probe() -> _Probe:
    """One probe per process: its dict is never written, and a second
    copy would only add to resident memory."""
    return _Probe()


class Calibrator:
    """The calibrations of one run."""

    def __init__(self) -> None:
        self.calibrations: List[float] = []
        self._since = 0.0
        self._probe = _shared_probe()

    def calibrate(self) -> None:
        self.calibrations.append(self._probe())
        self._since = 0.0

    def timed(self, raw_s: float) -> None:
        """Note ``raw_s`` of timed work; calibrate if enough has passed."""
        self._since += raw_s
        if self._since >= EVERY_S or not self.calibrations:
            self.calibrate()

    def calibrating_s(self) -> float:
        """Host seconds spent calibrating so far."""
        return sum(self.calibrations)

    def slowdown(self) -> float:
        """How much slower than the reference speed the run went."""
        return median(self.calibrations) / REFERENCE_S
