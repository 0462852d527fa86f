"""Statistics monitors for simulation entities.

Two kinds of observation are needed throughout the simulator:

* plain value series (response times, chosen degrees of parallelism) ->
  :class:`ValueMonitor`;
* piecewise-constant signals over simulated time (queue lengths, buffer
  occupancy, utilisation) -> :class:`TimeWeightedMonitor`.

Both support ``reset()`` so measurements can exclude the warm-up phase.

The monitors are read on every control-node report tick, so the expensive
queries are incremental: extrema are maintained as running values at record
time and percentile queries reuse one cached sorted copy of the samples
(invalidated by the next ``record``) instead of re-sorting per call.
"""

from __future__ import annotations

import math
from typing import List, Optional

__all__ = ["ValueMonitor", "TimeWeightedMonitor", "percentile_sorted"]

_INF = float("inf")


def percentile_sorted(data: List[float], q: float) -> float:
    """q-th percentile (0..100) of pre-sorted ``data``, linear interpolation.

    Shared by :meth:`ValueMonitor.percentile` and the windowed timeline
    collector; returns 0.0 for an empty sequence.
    """
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1 - frac) + data[high] * frac


class ValueMonitor:
    """Streaming statistics over observed values.

    Keeps the raw samples (needed for percentiles in the experiment reports)
    together with running sums and extrema for O(1) mean/variance/min/max
    queries; percentile queries sort at most once per recorded sample.
    """

    __slots__ = ("name", "samples", "_sum", "_sum_sq", "_min", "_max", "_sorted")

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min = _INF
        self._max = -_INF
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        """Add one observation."""
        self.samples.append(value)
        self._sum += value
        self._sum_sq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._sorted = None

    def reset(self) -> None:
        """Discard all observations (used at the end of warm-up)."""
        self.samples.clear()
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min = _INF
        self._max = -_INF
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return self._sum / len(self.samples) if self.samples else 0.0

    @property
    def variance(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mean = self.mean
        return max(0.0, (self._sum_sq - n * mean * mean) / (n - 1))

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest recorded value (0.0 when empty); running, O(1)."""
        return self._min if self.samples else 0.0

    @property
    def maximum(self) -> float:
        """Largest recorded value (0.0 when empty); running, O(1)."""
        return self._max if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) using linear interpolation."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        data = self._sorted
        if data is None:
            data = self._sorted = sorted(self.samples)
        return percentile_sorted(data, q)

    def confidence_interval(self, level: float = 0.95) -> float:
        """Half-width of the normal-approximation confidence interval."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        z = {0.90: 1.645, 0.95: 1.96, 0.99: 2.576}.get(level, 1.96)
        return z * self.stddev / math.sqrt(n)


class TimeWeightedMonitor:
    """Time-weighted average of a piecewise-constant signal."""

    __slots__ = ("env", "name", "_value", "_last_time", "_area", "_start_time")

    def __init__(self, env, initial: float = 0.0, name: str = ""):
        self.env = env
        self.name = name
        self._value = float(initial)
        self._last_time = env.now
        self._area = 0.0
        self._start_time = env.now

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    def update(self, new_value: float) -> None:
        """Change the signal to ``new_value`` at the current time."""
        now = self.env._now
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = float(new_value)

    def add(self, delta: float) -> None:
        """Increment the signal by ``delta``."""
        self.update(self._value + delta)

    def reset(self) -> None:
        """Restart averaging from the current time (keeps the current value)."""
        self._area = 0.0
        self._last_time = self.env.now
        self._start_time = self.env.now

    def time_average(self, until: Optional[float] = None) -> float:
        """Time-weighted mean of the signal since the last reset."""
        now = self.env.now if until is None else until
        elapsed = now - self._start_time
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / elapsed

    def integral(self) -> float:
        """Accumulated signal-time area since the last reset.

        Differencing two integrals gives the exact time-weighted mean over a
        window without resetting the monitor (the windowed timeline collector
        must not disturb the run-level averages).
        """
        return self._area + self._value * (self.env.now - self._last_time)
