"""Host-speed calibration: a fixed probe timed between the ops.

The reference host (2 vCPUs under Firecracker) shares its physical cores with
other tenants.  Its speed drifts by 15-50% over minutes, and no steal time
shows in /proc/stat, so wall time alone cannot tell a slower program from a
slower host.  A fixed probe, a pure-Python integer loop plus a numpy sort, is
timed every ``PROBE_EVERY_S`` during the timed phase.  Each op's wall time is
scaled by ``PROBE_REF_S`` over the probe time around it, so the benchmark's
times read as seconds on a host where the probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

PROBE_REF_S = 0.004  # the probe's time on the reference host in a quiet period
PROBE_EVERY_S = 0.5
SMOOTH = 5  # probes per rolling median; one probe sample varies by ~10%


class Probe:
    def __init__(self):
        self._data = np.random.default_rng(0).random(100_000)
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0
        self._due = 0.0

    def once(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        np.sort(self._data)
        end = perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.spent += end - start
        self._due = end + PROBE_EVERY_S
        return end - start

    def when_due(self):
        if perf_counter() >= self._due:
            self.once()

    def typical(self) -> float:
        """Median probe time over the first SMOOTH samples."""
        return statistics.median(p for _, p in self.samples[:SMOOTH])

    def factors(self, midpoints) -> list[float]:
        """PROBE_REF_S over the smoothed probe time at each midpoint."""
        times = [t for t, _ in self.samples]
        raw = [p for _, p in self.samples]
        half = SMOOTH // 2
        smooth = [statistics.median(raw[max(0, k - half):k + half + 1])
                  for k in range(len(raw))]
        out = []
        for m in midpoints:
            k = bisect.bisect_right(times, m)
            if k == 0:
                p = smooth[0]
            elif k == len(times):
                p = smooth[-1]
            else:
                w = (m - times[k - 1]) / (times[k] - times[k - 1])
                p = smooth[k - 1] * (1.0 - w) + smooth[k] * w
            out.append(PROBE_REF_S / p)
        return out
