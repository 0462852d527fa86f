"""Result records produced by simulation runs.

:class:`SimulationResult` is the unit of data that crosses process
boundaries (the parallel runner ships results back from worker processes)
and lands in the on-disk result cache as JSON, so it round-trips losslessly
through :meth:`~SimulationResult.to_dict` and
:meth:`~SimulationResult.from_dict`.  The human-facing rounded view used by
reports and CSV export lives in :meth:`~SimulationResult.report_dict`.

Replicated sweeps produce several results per (series, x) point;
:func:`aggregate_results` folds them into an :class:`AggregatedResult`
carrying the field-wise mean plus sample standard deviation and 95 %
confidence half-width per metric (Student t critical values, so small
replicate counts get honest intervals).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.metrics.timeline import Timeline, aggregate_timelines

__all__ = [
    "SimulationResult",
    "AggregatedResult",
    "aggregate_results",
    "mean_std_ci95",
    "t_critical_95",
]


@dataclass
class SimulationResult:
    """Summary of one simulation run (one point of one experiment curve)."""

    strategy: str
    num_pe: int
    mode: str  # "single-user" or "multi-user"
    simulated_seconds: float
    joins_completed: int
    join_response_time: float  # mean, seconds
    join_response_time_p95: float
    join_response_time_ci: float  # 95 % confidence half-width
    average_degree: float
    average_overflow_pages: float
    average_memory_wait: float
    cpu_utilization: float
    disk_utilization: float
    memory_utilization: float
    oltp_completed: int = 0
    oltp_response_time: float = 0.0
    join_throughput: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)
    #: Windowed time series of the run (timeline-kind points only).  Rides
    #: through to_dict/from_dict/the cache losslessly; ``None`` for runs
    #: without a timeline collector.
    timeline: Optional[Timeline] = None

    @property
    def join_response_time_ms(self) -> float:
        """Mean join response time in milliseconds (the paper's unit)."""
        return self.join_response_time * 1e3

    def to_dict(self) -> Dict[str, Any]:
        """Lossless, JSON-compatible dictionary of all fields (incl. extras)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output.

        Unknown keys are ignored so that cache entries written by newer
        versions (with additional fields) still load.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        timeline = kwargs.get("timeline")
        if timeline is not None and not isinstance(timeline, Timeline):
            kwargs["timeline"] = Timeline.from_dict(timeline)
        result = cls(**kwargs)
        result.extras = dict(result.extras)
        return result

    def report_dict(self) -> Dict[str, object]:
        """Flat rounded dictionary representation (for reports and CSV export)."""
        data = {
            "strategy": self.strategy,
            "num_pe": self.num_pe,
            "mode": self.mode,
            "simulated_seconds": round(self.simulated_seconds, 3),
            "joins_completed": self.joins_completed,
            "join_rt_ms": round(self.join_response_time_ms, 1),
            "join_rt_p95_ms": round(self.join_response_time_p95 * 1e3, 1),
            "join_rt_ci_ms": round(self.join_response_time_ci * 1e3, 1),
            "avg_degree": round(self.average_degree, 1),
            "avg_overflow_pages": round(self.average_overflow_pages, 1),
            "avg_memory_wait_ms": round(self.average_memory_wait * 1e3, 1),
            "cpu_util": round(self.cpu_utilization, 3),
            "disk_util": round(self.disk_utilization, 3),
            "mem_util": round(self.memory_utilization, 3),
            "join_throughput_qps": round(self.join_throughput, 3),
            "oltp_completed": self.oltp_completed,
            "oltp_rt_ms": round(self.oltp_response_time * 1e3, 1),
        }
        data.update({key: round(value, 4) for key, value in self.extras.items()})
        return data

    def row(self) -> str:
        """One formatted report line."""
        return (
            f"{self.strategy:<18} n={self.num_pe:<3d} {self.mode:<11} "
            f"rt={self.join_response_time_ms:8.1f} ms  "
            f"p={self.average_degree:5.1f}  ovfl={self.average_overflow_pages:7.1f}  "
            f"cpu={self.cpu_utilization:5.2f} disk={self.disk_utilization:5.2f} "
            f"mem={self.memory_utilization:5.2f}"
        )


#: Two-sided 95 % Student t critical values by degrees of freedom.
_T95_TABLE = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}

#: Result fields whose values identify a point rather than measure it; they
#: must agree across replicates and are copied verbatim into the mean.
_IDENTITY_FIELDS = ("strategy", "num_pe", "mode")


def t_critical_95(df: int) -> float:
    """Two-sided 95 % Student t critical value for ``df`` degrees of freedom.

    Exact table values for df <= 30; beyond that, the value for the largest
    tabulated df not exceeding ``df``.  Flooring is conservative: the
    returned critical value is always >= the true one, so intervals never
    understate the 95 % level.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if df in _T95_TABLE:
        return _T95_TABLE[df]
    return _T95_TABLE[max(key for key in _T95_TABLE if key <= df)]


def mean_std_ci95(values: Sequence[float]) -> Tuple[float, float, float]:
    """Mean, sample standard deviation and 95 % CI half-width of ``values``.

    A single value has zero spread by definition (std = ci = 0).  Summation
    uses :func:`math.fsum`, so the result depends only on the order of
    ``values`` -- replicate results arrive in expansion order regardless of
    worker count, which keeps aggregates bit-identical across ``--workers``
    settings.
    """
    values = [float(v) for v in values]
    n = len(values)
    if n == 0:
        raise ValueError("cannot aggregate an empty sequence of values")
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0, 0.0
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(variance)
    return mean, std, t_critical_95(n - 1) * std / math.sqrt(n)


@dataclass
class AggregatedResult:
    """Mean / spread of ``n`` replicate :class:`SimulationResult` records.

    ``mean`` is a field-wise mean result (count fields may therefore be
    fractional); ``stddev`` and ``ci95`` map metric field names (and
    ``extras.<key>`` entries) to the sample standard deviation and the 95 %
    confidence half-width across replicates.
    """

    n: int
    mean: SimulationResult
    stddev: Dict[str, float] = field(default_factory=dict)
    ci95: Dict[str, float] = field(default_factory=dict)


def aggregate_results(results: Iterable[SimulationResult]) -> AggregatedResult:
    """Fold replicate results for one point into an :class:`AggregatedResult`."""
    results = list(results)
    if not results:
        raise ValueError("cannot aggregate zero results")
    first = results[0]
    for name in _IDENTITY_FIELDS:
        distinct = {getattr(result, name) for result in results}
        if len(distinct) > 1:
            raise ValueError(
                f"cannot aggregate results with differing {name}: "
                f"{sorted(map(str, distinct))}"
            )
    stddev: Dict[str, float] = {}
    ci95: Dict[str, float] = {}
    mean_kwargs: Dict[str, float] = {}
    for spec in fields(SimulationResult):
        if spec.name in _IDENTITY_FIELDS or spec.name in ("extras", "timeline"):
            continue
        mean, std, ci = mean_std_ci95([getattr(result, spec.name) for result in results])
        mean_kwargs[spec.name] = mean
        stddev[spec.name] = std
        ci95[spec.name] = ci
    # Aggregate only extras present in *every* replicate, so every reported
    # statistic (and the consumer-visible ``n``) covers the same sample; a
    # key missing from some replicates (e.g. a cache entry written by an
    # older version) is dropped rather than silently presenting a
    # partial-sample mean as if it covered all n replicates.
    extra_keys = [
        key
        for key in results[0].extras
        if all(key in result.extras for result in results)
    ]
    mean_extras: Dict[str, float] = {}
    for key in extra_keys:
        mean, std, ci = mean_std_ci95([result.extras[key] for result in results])
        mean_extras[key] = mean
        stddev[f"extras.{key}"] = std
        ci95[f"extras.{key}"] = ci
    mean_result = SimulationResult(
        strategy=first.strategy,
        num_pe=first.num_pe,
        mode=first.mode,
        extras=mean_extras,
        # Window-wise mean when every replicate shares the same window grid;
        # None otherwise (the spread dictionaries stay scalar either way).
        timeline=aggregate_timelines([result.timeline for result in results]),
        **mean_kwargs,
    )
    return AggregatedResult(n=len(results), mean=mean_result, stddev=stddev, ci95=ci95)
