"""Arrival processes: stationary and non-stationary inter-arrival sampling.

The paper's experiments drive every workload class with a stationary Poisson
stream, but the *dynamic* in "dynamic load balancing" only matters when the
offered load fluctuates.  This module abstracts the arrival process of a
:class:`~repro.workload.generator.WorkloadClass` so any class can carry a
time-varying rate profile:

* :class:`PoissonArrivals` -- homogeneous Poisson (the paper's default);
* :class:`DeterministicArrivals` -- fixed inter-arrival times;
* :class:`OnOffArrivals` -- a 2-state Markov-modulated Poisson process
  (bursty on/off load with exponential sojourn times);
* :class:`SinusoidalArrivals` -- diurnal-style sinusoidal rate modulation;
* :class:`StepArrivals` -- a piecewise-constant load surge/spike.

Non-homogeneous Poisson processes (sine, step) are sampled by Lewis-Shedler
thinning against the peak rate, so every process draws from a single
``random.Random`` stream in a deterministic order: the same seed always
reproduces the same arrival times, bit for bit, whether sampled live by the
workload generator or pre-materialised into a trace.

Processes are built from primitive parameters via
:func:`make_arrival_process`, which is what lets a
:class:`~repro.runner.spec.PointSpec` carry an arrival profile as picklable,
cache-hashable ``(kind, params)`` data across process boundaries.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "OnOffArrivals",
    "SinusoidalArrivals",
    "StepArrivals",
    "make_arrival_process",
]

#: Arrival kinds understood by :func:`make_arrival_process` (and therefore by
#: the scenario engine's ``--arrival`` axis).  ``"trace"`` is resolved by the
#: runner (generate + replay) rather than by the factory.
ARRIVAL_KINDS = ("poisson", "deterministic", "mmpp", "sine", "step", "trace")


class ArrivalProcess:
    """Samples the time from ``now`` until the next arrival.

    Implementations may keep modulating state (e.g. the on/off phase of an
    MMPP); :meth:`reset` restarts the process from time zero so one instance
    can drive several independent sampling passes (live generation and trace
    materialisation must see identical streams).
    """

    def interarrival(self, now: float, rng: random.Random) -> float:
        """Time until the next arrival after ``now`` (``inf`` = never)."""
        raise NotImplementedError

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at simulated time ``t``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Restart any modulating state (default: stateless, no-op)."""


@dataclass
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals (exponential inter-arrival times)."""

    arrival_rate: float

    def interarrival(self, now: float, rng: random.Random) -> float:
        if self.arrival_rate <= 0:
            return float("inf")
        return rng.expovariate(self.arrival_rate)

    def rate(self, t: float) -> float:
        return max(0.0, self.arrival_rate)


@dataclass
class DeterministicArrivals(ArrivalProcess):
    """Fixed inter-arrival times (one arrival every ``1/rate`` seconds)."""

    arrival_rate: float

    def interarrival(self, now: float, rng: random.Random) -> float:
        if self.arrival_rate <= 0:
            return float("inf")
        return 1.0 / self.arrival_rate

    def rate(self, t: float) -> float:
        return max(0.0, self.arrival_rate)


class _ThinnedProcess(ArrivalProcess):
    """Non-homogeneous Poisson sampling by Lewis-Shedler thinning.

    Subclasses provide :meth:`rate` (the time-varying intensity) and
    :attr:`peak_rate` (an upper bound on it); candidates are drawn from a
    homogeneous process at the peak rate and accepted with probability
    ``rate(t) / peak_rate``.  The rng draw order (one expovariate + one
    uniform per candidate) is fixed, which keeps sampling deterministic.
    """

    @property
    def peak_rate(self) -> float:
        raise NotImplementedError

    def interarrival(self, now: float, rng: random.Random) -> float:
        peak = self.peak_rate
        if peak <= 0:
            return float("inf")
        t = now
        while True:
            t += rng.expovariate(peak)
            if rng.random() * peak <= self.rate(t):
                return t - now


@dataclass
class SinusoidalArrivals(_ThinnedProcess):
    """Diurnal-style load: ``rate(t) = base * (1 + amplitude * sin(...))``.

    ``amplitude`` is relative (0..1 keeps the rate non-negative); ``period``
    is the cycle length in simulated seconds and ``phase`` shifts the cycle
    (in radians).
    """

    arrival_rate: float
    amplitude: float = 0.5
    period: float = 60.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")

    def rate(self, t: float) -> float:
        value = self.arrival_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period + self.phase)
        )
        return max(0.0, value)

    @property
    def peak_rate(self) -> float:
        return max(0.0, self.arrival_rate * (1.0 + self.amplitude))


@dataclass
class StepArrivals(_ThinnedProcess):
    """Load surge: the base rate is multiplied by ``surge_factor`` during
    ``[surge_start, surge_end)`` and unchanged outside the surge window."""

    arrival_rate: float
    surge_factor: float = 3.0
    surge_start: float = 20.0
    surge_end: float = 40.0

    def __post_init__(self) -> None:
        if self.surge_factor < 0:
            raise ValueError(f"surge_factor must be >= 0, got {self.surge_factor}")
        if self.surge_end < self.surge_start:
            raise ValueError(
                f"surge_end ({self.surge_end}) must be >= surge_start ({self.surge_start})"
            )

    def rate(self, t: float) -> float:
        base = max(0.0, self.arrival_rate)
        if self.surge_start <= t < self.surge_end:
            return base * self.surge_factor
        return base

    @property
    def peak_rate(self) -> float:
        return max(0.0, self.arrival_rate) * max(1.0, self.surge_factor)


@dataclass
class OnOffArrivals(ArrivalProcess):
    """2-state MMPP: Poisson arrivals whose rate is modulated by an on/off
    Markov chain with exponentially distributed sojourn times.

    The chain starts in the *off* (low-rate) state; ``on_rate``/``off_rate``
    are the arrival rates inside each state and ``mean_on``/``mean_off`` the
    mean sojourn times.  State switches are driven by the same rng as the
    arrival draws, in a fixed order, so the whole modulated stream is
    reproducible from the seed alone.
    """

    on_rate: float
    off_rate: float
    mean_on: float = 5.0
    mean_off: float = 15.0

    def __post_init__(self) -> None:
        if self.mean_on <= 0 or self.mean_off <= 0:
            raise ValueError("mean_on and mean_off must be positive")
        if self.on_rate < 0 or self.off_rate < 0:
            raise ValueError("on_rate and off_rate must be >= 0")
        self.reset()

    def reset(self) -> None:
        self._on = False
        self._switch_at: Optional[float] = None  # drawn lazily from the rng

    def _current_rate(self) -> float:
        return self.on_rate if self._on else self.off_rate

    def interarrival(self, now: float, rng: random.Random) -> float:
        if self.on_rate <= 0 and self.off_rate <= 0:
            return float("inf")  # no state ever produces arrivals
        t = now
        while True:
            if self._switch_at is None:
                sojourn = rng.expovariate(1.0 / (self.mean_on if self._on else self.mean_off))
                self._switch_at = t + sojourn
            rate = self._current_rate()
            if rate <= 0:
                candidate = float("inf")
            else:
                candidate = t + rng.expovariate(rate)
            if candidate < self._switch_at:
                return candidate - now
            # No arrival before the next state switch: advance the chain.
            t = self._switch_at
            self._on = not self._on
            self._switch_at = None

    def rate(self, t: float) -> float:
        # The modulating state is stochastic; report the current state's rate.
        return self._current_rate()


def _params_dict(params: Optional[Mapping[str, float] | Sequence[Tuple[str, float]]]) -> Dict[str, float]:
    if params is None:
        return {}
    if isinstance(params, Mapping):
        return {str(k): float(v) for k, v in params.items()}
    return {str(k): float(v) for k, v in params}


def make_arrival_process(
    kind: str,
    arrival_rate: float,
    params: Optional[Mapping[str, float] | Sequence[Tuple[str, float]]] = None,
) -> ArrivalProcess:
    """Build an arrival process of ``kind`` with mean rate ``arrival_rate``.

    ``params`` are the kind's shape parameters (unknown keys raise, so typos
    on the CLI fail fast):

    * ``mmpp``: ``burst_factor`` (on-rate = factor x mean rate, default 4),
      ``on_fraction`` (fraction of time in the on state, default 0.25) and
      ``cycle`` (mean on+off cycle length in seconds, default 20); the off
      rate is derived so the long-run mean equals ``arrival_rate``.
    * ``sine``: ``amplitude`` (relative, default 0.5), ``period`` (default
      60 s), ``phase`` (radians, default 0).
    * ``step``: ``surge_factor`` (default 3), ``surge_start`` (default 20 s),
      ``surge_end`` (default 40 s).
    * ``poisson`` / ``deterministic``: no parameters.
    """
    options = _params_dict(params)

    def take(name: str, default: float) -> float:
        return float(options.pop(name, default))

    kind = str(kind)
    if kind == "poisson":
        process: ArrivalProcess = PoissonArrivals(arrival_rate)
    elif kind == "deterministic":
        process = DeterministicArrivals(arrival_rate)
    elif kind == "mmpp":
        burst_factor = take("burst_factor", 4.0)
        on_fraction = take("on_fraction", 0.25)
        cycle = take("cycle", 20.0)
        if not 0.0 < on_fraction < 1.0:
            raise ValueError(f"on_fraction must be in (0, 1), got {on_fraction}")
        if burst_factor * on_fraction > 1.0:
            raise ValueError(
                "burst_factor*on_fraction must be <= 1 to keep the off rate "
                f"non-negative, got {burst_factor * on_fraction:g}"
            )
        on_rate = arrival_rate * burst_factor
        off_rate = arrival_rate * (1.0 - burst_factor * on_fraction) / (1.0 - on_fraction)
        process = OnOffArrivals(
            on_rate=on_rate,
            off_rate=off_rate,
            mean_on=on_fraction * cycle,
            mean_off=(1.0 - on_fraction) * cycle,
        )
    elif kind == "sine":
        process = SinusoidalArrivals(
            arrival_rate,
            amplitude=take("amplitude", 0.5),
            period=take("period", 60.0),
            phase=take("phase", 0.0),
        )
    elif kind == "step":
        process = StepArrivals(
            arrival_rate,
            surge_factor=take("surge_factor", 3.0),
            surge_start=take("surge_start", 20.0),
            surge_end=take("surge_end", 40.0),
        )
    elif kind == "trace":
        raise ValueError(
            "trace arrivals are materialised by the runner (generate_trace + "
            "TraceReplayer)"
        )
    else:
        known = ", ".join(k for k in ARRIVAL_KINDS if k != "trace")
        raise ValueError(f"unknown arrival kind {kind!r}; expected one of: {known}")
    if options:
        raise ValueError(
            f"unknown parameter(s) for arrival kind {kind!r}: {sorted(options)}"
        )
    return process
