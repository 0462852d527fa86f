"""Common infrastructure for reproducing the paper's experiments.

Every figure of the evaluation section is expressed as a *sweep*: a set of
(strategy, x-value) points, each of which is one simulation run summarised by
a :class:`~repro.simulation.results.SimulationResult`.  The helpers here run
such points, collect them into an :class:`ExperimentResult` and format the
textual tables that stand in for the paper's plots.

Run length defaults are deliberately modest so that the full benchmark suite
finishes in minutes; they can be scaled with the ``REPRO_BENCH_JOINS`` and
``REPRO_BENCH_TIME_LIMIT`` environment variables or the ``measured_joins`` /
``max_simulated_time`` arguments.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.simulation.results import AggregatedResult, SimulationResult, aggregate_results

__all__ = [
    "ExperimentPoint",
    "ExperimentResult",
    "AggregatedPoint",
    "AggregatedExperimentResult",
    "default_measured_joins",
    "default_time_limit",
    "run_scenario",
    "format_table",
]

#: Tolerance for treating two x coordinates as the same table row.  x values
#: computed from float axes (e.g. ``selectivity * 100.0``) can differ in the
#: last ulp between expansion paths; exact equality would split one row in
#: two.
X_REL_TOL = 1e-9
X_ABS_TOL = 1e-12


def _same_x(left: float, right: float) -> bool:
    return math.isclose(left, right, rel_tol=X_REL_TOL, abs_tol=X_ABS_TOL)

#: System sizes used throughout the paper's multi-user experiments.
PAPER_SYSTEM_SIZES = (10, 20, 40, 60, 80)


def default_measured_joins(fallback: int = 40) -> int:
    """Number of measured join completions per point (env-overridable).

    Unreadable ``REPRO_BENCH_JOINS`` values fall back to ``fallback``; the
    result is always clamped to at least 5 so a negative or tiny value (from
    either source) cannot produce a meaningless measurement phase.
    """
    try:
        value = int(os.environ.get("REPRO_BENCH_JOINS", fallback))
    except ValueError:
        value = fallback
    return max(5, value)


def default_time_limit(fallback: float = 120.0) -> float:
    """Simulated-time cap per point in seconds (env-overridable).

    Unreadable or non-positive ``REPRO_BENCH_TIME_LIMIT`` values fall back
    to ``fallback``, which callers must keep positive.
    """
    if fallback <= 0:
        raise ValueError(f"fallback time limit must be positive, got {fallback}")
    try:
        value = float(os.environ.get("REPRO_BENCH_TIME_LIMIT", fallback))
    except ValueError:
        value = float(fallback)
    return value if value > 0 else float(fallback)


@dataclass
class ExperimentPoint:
    """One simulated point of one curve of one figure."""

    figure: str
    series: str
    x: float
    result: SimulationResult
    replicate: int = 0

    @property
    def response_time_ms(self) -> float:
        return self.result.join_response_time_ms


@dataclass
class ExperimentResult:
    """All points of one reproduced figure.

    Replicated sweeps contribute several points per (series, x) coordinate,
    distinguished by ``replicate``; :meth:`aggregate` folds them into an
    :class:`AggregatedExperimentResult` with mean / stddev / 95 % CI per
    coordinate.
    """

    figure: str
    title: str
    x_label: str
    points: List[ExperimentPoint] = field(default_factory=list)

    def add(self, point: ExperimentPoint) -> None:
        self.points.append(point)

    def series_names(self) -> List[str]:
        names: List[str] = []
        for point in self.points:
            if point.series not in names:
                names.append(point.series)
        return names

    def x_values(self) -> List[float]:
        values: List[float] = []
        for point in self.points:
            if not any(_same_x(point.x, value) for value in values):
                values.append(point.x)
        return sorted(values)

    def series(self, name: str) -> List[ExperimentPoint]:
        return sorted((p for p in self.points if p.series == name), key=lambda p: p.x)

    def value(self, series: str, x: float) -> Optional[ExperimentPoint]:
        """First point of ``series`` at ``x`` (replicate 0 for replicated runs)."""
        for point in self.points:
            if point.series == series and _same_x(point.x, x):
                return point
        return None

    def values(self, series: str, x: float) -> List[ExperimentPoint]:
        """Every point (all replicates) of ``series`` at ``x``."""
        return [p for p in self.points if p.series == series and _same_x(p.x, x)]

    @property
    def has_replicates(self) -> bool:
        return any(getattr(point, "replicate", 0) for point in self.points)

    def aggregate(self) -> "AggregatedExperimentResult":
        """Fold replicates into one aggregated point per (series, x).

        Points are grouped with the same x tolerance as the table renderer
        and folded in insertion order, so the aggregate is independent of
        worker count (the runner preserves expansion order) and identical
        whether or not results crossed a process boundary.
        """
        groups: List[List[object]] = []  # [series, x, [results]]
        for point in self.points:
            for group in groups:
                if group[0] == point.series and _same_x(point.x, group[1]):
                    group[2].append(point.result)
                    break
            else:
                groups.append([point.series, point.x, [point.result]])
        aggregated = AggregatedExperimentResult(
            figure=self.figure, title=self.title, x_label=self.x_label
        )
        for series, x, results in groups:
            aggregated.add(
                AggregatedPoint(
                    figure=self.figure,
                    series=series,
                    x=x,
                    aggregate=aggregate_results(results),
                )
            )
        return aggregated

    def table(self, metric: Callable[[ExperimentPoint], float] | None = None,
              unit: str = "ms") -> str:
        """Text table: one row per x value, one column per series."""
        metric = metric or (lambda point: point.response_time_ms)
        return format_table(self, metric, unit)

    def to_rows(self) -> List[Dict[str, object]]:
        """Flat row dictionaries (series, x, replicate and the result dict)."""
        rows = []
        for point in self.points:
            row: Dict[str, object] = {
                "figure": self.figure,
                "series": point.series,
                "x": point.x,
                "row_type": "replicate",
                "replicate": getattr(point, "replicate", 0),
            }
            row.update(point.result.report_dict())
            rows.append(row)
        return rows


@dataclass
class AggregatedPoint:
    """Mean / spread of all replicates of one (series, x) coordinate.

    Quacks like an :class:`ExperimentPoint` (``series``, ``x``, ``result``,
    ``response_time_ms``) so the table renderer and the per-figure extra
    tables work unchanged on aggregated results; ``result`` is the
    field-wise mean :class:`SimulationResult`.
    """

    figure: str
    series: str
    x: float
    aggregate: AggregatedResult

    @property
    def n(self) -> int:
        return self.aggregate.n

    @property
    def result(self) -> SimulationResult:
        return self.aggregate.mean

    @property
    def response_time_ms(self) -> float:
        return self.result.join_response_time_ms

    @property
    def response_time_ci_ms(self) -> float:
        """95 % confidence half-width of the mean response time, in ms."""
        return self.aggregate.ci95.get("join_response_time", 0.0) * 1e3

    @property
    def response_time_std_ms(self) -> float:
        return self.aggregate.stddev.get("join_response_time", 0.0) * 1e3


@dataclass
class AggregatedExperimentResult(ExperimentResult):
    """One aggregated point per (series, x) of a replicated figure."""

    points: List[AggregatedPoint] = field(default_factory=list)

    def table(self, metric: Callable[[AggregatedPoint], float] | None = None,
              unit: str = "ms",
              ci_metric: Callable[[AggregatedPoint], float] | None = None) -> str:
        """Text table with ``mean ± ci`` cells.

        The default metric renders the mean response time with its 95 % CI
        half-width; a custom ``metric`` without a matching ``ci_metric``
        renders plain mean cells.
        """
        if metric is None:
            metric = lambda point: point.response_time_ms  # noqa: E731
            if ci_metric is None:
                ci_metric = lambda point: point.response_time_ci_ms  # noqa: E731
        return format_table(self, metric, unit, ci_metric=ci_metric)

    def to_rows(self) -> List[Dict[str, object]]:
        """Aggregate rows: mean result plus spread of the headline metric."""
        rows = []
        for point in self.points:
            row: Dict[str, object] = {
                "figure": self.figure,
                "series": point.series,
                "x": point.x,
                "row_type": "aggregate",
                "n": point.n,
            }
            row.update(point.result.report_dict())
            # Count fields pass through report_dict unrounded; their
            # replicate means are fractional, so cap the spurious precision.
            row["joins_completed"] = round(point.result.joins_completed, 3)
            row["oltp_completed"] = round(point.result.oltp_completed, 3)
            row["join_rt_std_ms"] = round(point.response_time_std_ms, 3)
            row["join_rt_ci95_ms"] = round(point.response_time_ci_ms, 3)
            rows.append(row)
        return rows


def format_table(result: ExperimentResult, metric, unit: str, ci_metric=None) -> str:
    """Render an :class:`ExperimentResult` as an aligned text table.

    With ``ci_metric`` every populated cell reads ``mean ± ci`` (95 %
    confidence half-width); without it cells are plain metric values.
    """
    series_names = result.series_names()
    x_values = result.x_values()
    cell_rows: List[List[str]] = []
    for x in x_values:
        cells = []
        for name in series_names:
            point = result.value(name, x)
            if point is None:
                cells.append("")
            elif ci_metric is not None:
                cells.append(f"{metric(point):.1f} ± {ci_metric(point):.1f}")
            else:
                cells.append(f"{metric(point):.1f}")
        cell_rows.append(cells)
    widths = [12] + [len(name) + 2 for name in series_names]
    widths += [len(cell) for cells in cell_rows for cell in cells]
    width = max(widths)
    header = f"{result.title}\n{result.x_label:>10} | " + " | ".join(
        f"{name:>{width}}" for name in series_names
    )
    lines = [header, "-" * len(header.splitlines()[-1])]
    for x, cells in zip(x_values, cell_rows):
        x_text = f"{x:g}"
        lines.append(f"{x_text:>10} | " + " | ".join(f"{cell:>{width}}" for cell in cells))
    footer = f"(values in {unit})"
    if ci_metric is not None:
        footer = f"(values in {unit}; mean ± 95% CI across replicates)"
    lines.append(footer)
    return "\n".join(lines)


def _resolve_runner(runner=None):
    """A runner from ``None`` (serial, uncached), a config, or a runner."""
    from repro.runner import RunnerConfig

    if runner is None:
        return RunnerConfig(no_cache=True).make_runner()
    if isinstance(runner, RunnerConfig):
        return runner.make_runner()
    return runner  # an already-built runner (anything with .run)


def run_scenario(
    name: str,
    runner=None,
    replicates: int = 1,
    **build_kwargs,
):
    """Run a registered scenario end to end: the generic entry point.

    Looks ``name`` up in the scenario registry, builds its spec with
    ``build_kwargs`` (the builder's own axes: ``system_sizes``,
    ``strategies``, ``max_simulated_time``, ...), applies ``replicates``
    and runs it through ``runner`` -- ``None`` for a serial, uncached run, a
    :class:`~repro.runner.RunnerConfig` describing any driver, or a
    pre-built runner.
    """
    from repro.runner import build_scenario

    spec = build_scenario(name, **build_kwargs)
    if replicates > 1:
        spec = spec.with_replicates(replicates)
    return _resolve_runner(runner).run(spec)
