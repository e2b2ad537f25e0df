"""Timing at a fixed host speed.

The benchmark runs on shared hosts whose speed changes under it: a fixed
computation, run back to back in one process, takes either its fastest
time or about 1.5 times that, switching every few seconds and sometimes
staying slow for a minute.  A wall time then says as much about the
neighbours as about koethe.  So every timed stretch is bracketed by a
short calibration probe (fixed numpy and interpreter work that never calls
koethe), and is reported as

    wall time of the stretch * REF_S / mean of the probe times at its ends,

the time the stretch would take on a host where the probe takes REF_S.
A stretch that runs while the host is slow reads as it would when fast, and
a change to koethe moves the stretch but not the probe.  Stretches are kept
short (one decision, or one column-norm profile of a long decision) so the
host stays in one state for most of each.
"""

from __future__ import annotations

import time

import numpy as np

#: probe time of the reference host: about the probe's uncontended time on
#: the 2-core Xeon host the benchmark was written on
REF_S = 1e-3

_rng = np.random.default_rng(20231213)
_U = np.log(_rng.uniform(0.01, 1.0, 1024))
_PAD = np.concatenate([[-50.0], np.log(_rng.uniform(0.01, 1.0, 1024)), [-50.0]])
_COLS = np.arange(1, 1025)


def _probe_work() -> None:
    # the column-norm kernel's mix: gathered blocks, max, exp, sum ...
    for i0 in range(0, 64, 16):
        i_idx = np.arange(i0, i0 + 16)
        j = np.clip(_COLS[None, :] + i_idx[:, None], 0, 1025)
        terms = _U[i_idx][:, None] + _PAD[j]
        peak = terms.max(axis=0)
        np.exp(terms - peak).sum()
    # ... and the interpreter work around it
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def probe() -> float:
    """Wall time of one calibration probe, in seconds."""
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class SpeedClock:
    """Splits a pass into stretches at `mark()` calls and sums them both as
    wall time and at the reference host speed.  Probe time is in neither.

    `core_share` is the part of a stretch's time that follows the probe's
    speed; the rest is taken to be independent of it.  The probe is core
    bound, and so is most koethe work; the column-norm kernel at n = 4096
    streams blocks too large for the core's caches and slows less.

    With `calibrate=False` no probe runs and both sums are wall time; the
    traced run uses that, so probes do not land in any layer's self time.
    """

    def __init__(self, calibrate: bool = True, core_share: float = 1.0):
        self.calibrate = calibrate
        self.core_share = core_share
        self.wall_s = 0.0
        self.norm_s = 0.0
        self._pending = 0.0
        self._start: float | None = None
        self._probe_s = REF_S

    def mark(self) -> None:
        """End the running stretch (if any) and start the next."""
        end = time.perf_counter()
        probe_s = probe() if self.calibrate else REF_S
        if self._start is not None:
            wall = end - self._start
            speed = REF_S / ((self._probe_s + probe_s) / 2)
            norm = wall * (self.core_share * speed + 1.0 - self.core_share)
            self.wall_s += wall
            self.norm_s += norm
            self._pending += norm
        self._probe_s = probe_s
        self._start = time.perf_counter()

    def lap(self) -> float:
        """Mark, and return the reference-speed time since the last lap."""
        self.mark()
        out, self._pending = self._pending, 0.0
        return out
