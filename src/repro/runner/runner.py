"""Point execution and the multi-process parallel runner.

:func:`execute_point` turns one :class:`~repro.runner.spec.PointSpec` into a
:class:`~repro.simulation.results.SimulationResult` dictionary.  It is a
module-level function taking and returning only picklable primitives, so the
:class:`ParallelRunner` can ship it to ``ProcessPoolExecutor`` workers under
any start method (fork or spawn).

Determinism: a point fully determines its simulation (configuration, seed,
strategy and run limits), so serial and parallel execution produce
bit-identical results -- the serial fallback deliberately round-trips
through the same ``to_dict``/``from_dict`` path as the process pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, replace
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.faults.plan import decode_failures
from repro.runner.cache import ResultCache
from repro.runner.spec import DEFAULT_NUM_QUERIES, PointSpec, ScenarioSpec
from repro.simulation.results import SimulationResult

__all__ = [
    "ParallelRunner",
    "PointExecutionError",
    "execute_point",
    "execute_point_checked",
    "build_config",
    "apply_config_overrides",
]


class PointExecutionError(RuntimeError):
    """A point's simulation raised; names the failing :class:`PointSpec`.

    A bare exception escaping a worker process otherwise gives no clue which
    of the (possibly hundreds of) points failed; the original exception is
    preserved as ``__cause__`` and on the ``cause`` attribute.
    """

    def __init__(self, point: PointSpec, cause: BaseException):
        self.point = point
        self.cause = cause
        super().__init__(
            f"point {point.figure}/{point.series!r} (x={point.x:g}, kind={point.kind}, "
            f"scenario={point.scenario}, num_pe={point.num_pe}, "
            f"strategy={point.strategy!r}, degree={point.degree}, seed={point.seed}, "
            f"replicate={point.replicate}) failed: {cause!r}"
        )


def _replace_path(obj, path: str, value):
    """Return ``obj`` with the dotted dataclass-field ``path`` replaced."""
    import dataclasses

    names = path.split(".")
    parents = []
    for name in names:
        if not dataclasses.is_dataclass(obj) or name not in {
            f.name for f in dataclasses.fields(obj)
        }:
            raise AttributeError(f"config has no field {name!r} (override path {path!r})")
        parents.append(obj)
        obj = getattr(obj, name)
    if dataclasses.is_dataclass(obj) and not dataclasses.is_dataclass(value):
        raise AttributeError(
            f"config field {path!r} is a section, not a scalar; "
            f"override one of its fields instead (e.g. {path}.<field>)"
        )
    for parent, name in zip(reversed(parents), reversed(names)):
        value = replace(parent, **{name: value})
    return value


def apply_config_overrides(config, overrides: Sequence[Sequence[object]]):
    """Apply dotted-path overrides, e.g. ``("buffer.buffer_pages", 5)``."""
    for path, value in overrides:
        config = _replace_path(config, str(path), value)
    return config


def build_config(point: PointSpec):
    """Build the :class:`SystemConfig` for one point from its scenario axes."""
    from repro.experiments import scenarios

    if point.scenario == "homogeneous":
        config = scenarios.homogeneous_config(
            point.num_pe,
            scan_selectivity=point.selectivity if point.selectivity is not None else 0.01,
            arrival_rate_per_pe=point.rate if point.rate is not None else 0.25,
            seed=point.seed,
        )
    elif point.scenario == "memory-bound":
        kwargs = {"seed": point.seed}
        if point.rate is not None:
            kwargs["arrival_rate_per_pe"] = point.rate
        config = scenarios.memory_bound_config(point.num_pe, **kwargs)
        if point.selectivity is not None:
            config = _replace_path(config, "join_query.scan_selectivity", point.selectivity)
    elif point.scenario == "join-complexity":
        config = scenarios.join_complexity_config(
            point.selectivity if point.selectivity is not None else 0.01,
            num_pe=point.num_pe,
            arrival_rate_per_pe=point.rate,
            seed=point.seed,
        )
    elif point.scenario == "mixed":
        kwargs = {"seed": point.seed, "oltp_placement": point.oltp_placement or "A"}
        if point.rate is not None:
            kwargs["join_rate_per_pe"] = point.rate
        config = scenarios.mixed_workload_config(point.num_pe, **kwargs)
        if point.selectivity is not None:
            config = _replace_path(config, "join_query.scan_selectivity", point.selectivity)
    else:
        raise ValueError(f"unknown scenario builder {point.scenario!r}")
    config = _apply_hardware_axes(config, point)
    return apply_config_overrides(config, point.config_overrides)


def _apply_hardware_axes(config, point: PointSpec):
    """Materialise the point's encoded node-class / topology axes.

    Uniform points carry ``None`` (the expansion canonicalises explicit
    defaults away), so this is a no-op -- the config object is returned
    untouched -- on every historical scenario.
    """
    from repro.config.parameters import NodeClass, TopologyConfig

    updates = {}
    if point.node_classes is not None:
        updates["node_classes"] = tuple(
            NodeClass(**dict(node_class)) for node_class in point.node_classes
        )
    if point.topology is not None:
        updates["topology"] = TopologyConfig(**dict(point.topology))
    if point.replication is not None:
        updates["replication"] = point.replication
    return config.with_overrides(**updates) if updates else config


def _analytic_result(config, degree: int, estimate_seconds: float) -> SimulationResult:
    """Wrap an analytic cost-model estimate in a SimulationResult record."""
    return SimulationResult(
        strategy=f"analytic p={degree}",
        num_pe=config.num_pe,
        mode="analytic",
        simulated_seconds=0.0,
        joins_completed=0,
        join_response_time=estimate_seconds,
        join_response_time_p95=estimate_seconds,
        join_response_time_ci=0.0,
        average_degree=float(degree),
        average_overflow_pages=0.0,
        average_memory_wait=0.0,
        cpu_utilization=0.0,
        disk_utilization=0.0,
        memory_utilization=0.0,
    )


def build_workload(point: PointSpec, config) -> "WorkloadSpec":
    """Build the point's workload spec, applying its arrival profile.

    ``arrival_kind="trace"`` keeps the underlying (Poisson) sampling here --
    the runner materialises the trace separately and replays it.
    """
    from repro.workload.generator import WorkloadSpec

    spec = WorkloadSpec.for_config(config)
    if point.arrival_kind is not None and point.arrival_kind != "trace":
        spec = spec.with_arrival_profile(point.arrival_kind, point.arrival_params)
    return spec


def run_point_spec(point: PointSpec) -> SimulationResult:
    """Execute one point in-process and return the raw result object."""
    from repro.experiments.base import default_measured_joins, default_time_limit
    from repro.runner.spec import DEFAULT_TIMELINE_WINDOW
    from repro.scheduling.cost_model import CostModel
    from repro.scheduling.degree import FixedDegree
    from repro.scheduling.placement import RandomPlacement
    from repro.scheduling.strategy import IsolatedStrategy
    from repro.simulation.driver import SimulationDriver
    from repro.workload.query import JoinQuery
    from repro.workload.traces import generate_trace, parse_trace

    config = build_config(point)
    faults = decode_failures(point.failures)  # () for a fault-free point
    if point.kind == "multi":
        measured = (
            point.measured_joins if point.measured_joins is not None else default_measured_joins()
        )
        warmup = point.warmup_joins if point.warmup_joins is not None else max(5, measured // 5)
        limit = (
            point.max_simulated_time
            if point.max_simulated_time is not None
            else default_time_limit()
        )
        driver = SimulationDriver(config, strategy=point.strategy, faults=faults)
        return driver.run_multi_user(
            spec=build_workload(point, config) if point.arrival_kind is not None else None,
            warmup_joins=warmup,
            measured_joins=measured,
            max_simulated_time=limit,
        )
    if point.kind == "timeline":
        duration = (
            point.max_simulated_time
            if point.max_simulated_time is not None
            else default_time_limit()
        )
        window = (
            point.timeline_window
            if point.timeline_window is not None
            else DEFAULT_TIMELINE_WINDOW
        )
        driver = SimulationDriver(config, strategy=point.strategy, faults=faults)
        spec = build_workload(point, config)
        # Trace arrivals: replay a captured log (``file`` parameter), or
        # materialise the spec's own arrival streams up front -- with the
        # per-class seeding aligned between generation and live sampling,
        # the latter reproduces exactly the arrivals a live run would have
        # drawn.
        trace = None
        if point.arrival_kind == "trace":
            import hashlib
            from pathlib import Path

            params = dict(point.arrival_params)
            trace_file = params.pop("file", None)
            expected_digest = params.pop("file_sha256", None)
            if params:
                raise ValueError(
                    "unknown parameter(s) for arrival kind 'trace': "
                    f"{sorted(params)} (only 'file' is supported)"
                )
            if trace_file is None:
                if expected_digest is not None:
                    raise ValueError("file_sha256 given without a trace file")
                trace = generate_trace(spec, duration)
            else:
                # The digest pins the file *content* into the point (and
                # therefore into the cache key / distributed task id): an
                # edited trace can neither hit a stale cache entry nor
                # diverge silently across worker hosts.  One read serves
                # both the digest check and the parse.
                path = Path(trace_file)
                raw = path.read_bytes()
                if expected_digest is not None:
                    actual = hashlib.sha256(raw).hexdigest()
                    if actual != str(expected_digest):
                        raise ValueError(
                            f"trace file {trace_file} does not match the "
                            f"content digest it was dispatched with "
                            f"(sha256 {actual[:12]}... != "
                            f"{str(expected_digest)[:12]}...)"
                        )
                trace = parse_trace(
                    raw.decode("utf-8"),
                    source=str(path),
                    fmt="json" if path.suffix.lower() == ".json" else None,
                )
        return driver.run_timed(
            duration, timeline_window=window, spec=spec, trace=trace
        )
    if point.kind == "single":
        driver = SimulationDriver(config, strategy=point.strategy, faults=faults)
        return driver.run_single_user(
            num_queries=(
                point.num_queries
                if point.num_queries is not None
                else DEFAULT_NUM_QUERIES["single"]
            )
        )
    if point.kind == "fixed-degree":
        strategy = IsolatedStrategy(
            FixedDegree(point.degree, name=f"fixed({point.degree})"),
            RandomPlacement(seed=config.seed),
        )
        driver = SimulationDriver(config, strategy=strategy, faults=faults)
        return driver.run_single_user(
            num_queries=(
                point.num_queries
                if point.num_queries is not None
                else DEFAULT_NUM_QUERIES["fixed-degree"]
            )
        )
    if point.kind == "analytic":
        if faults:
            raise ValueError(
                "an analytic point takes no fault plan: nothing is simulated, "
                "so no fault would be injected"
            )
        cost_model = CostModel(config)
        query = JoinQuery(scan_selectivity=config.join_query.scan_selectivity)
        estimate = cost_model.estimate_response_time(query, point.degree)
        return _analytic_result(config, point.degree, estimate)
    raise ValueError(f"unknown point kind {point.kind!r}")


def execute_point(payload: Union[PointSpec, Mapping[str, object]]) -> Dict[str, object]:
    """Worker entry point: run one point and return a picklable result dict."""
    point = payload if isinstance(payload, PointSpec) else PointSpec(**dict(payload))
    return run_point_spec(point).to_dict()


def execute_point_checked(point: PointSpec) -> Dict[str, object]:
    """Run one point, wrapping any failure in :class:`PointExecutionError`.

    Shared by the serial path of :meth:`ParallelRunner.run_points` and the
    distributed queue worker (:mod:`repro.runner.worker`), so every driver
    reports a failing point the same way.  The result round-trips through
    ``to_dict`` exactly like the process-pool path, keeping serial, pooled
    and distributed execution bit-identical.
    """
    try:
        return execute_point(asdict(point))
    except Exception as exc:
        raise PointExecutionError(point, exc) from exc


class ParallelRunner:
    """Fans independent scenario points out over a process pool.

    ``workers=1`` runs everything serially in-process (no pool);
    ``workers=None`` or ``0`` uses one worker per CPU core.  An optional
    :class:`ResultCache` short-circuits points that were already simulated
    with an identical (config, strategy, workload, limits) key.
    """

    def __init__(self, workers: Optional[int] = 1, cache: Optional[ResultCache] = None):
        if workers in (None, 0):
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1 (or None/0 for one per core)")
        self.workers = workers
        self.cache = cache

    def run(self, spec: ScenarioSpec) -> "ExperimentResult":
        """Run every point of a scenario and collect an ExperimentResult."""
        from repro.experiments.base import ExperimentPoint, ExperimentResult

        points = spec.points()
        results = self.run_points(points)
        experiment = ExperimentResult(figure=spec.name, title=spec.title, x_label=spec.x_label)
        for point, result in zip(points, results):
            experiment.add(
                ExperimentPoint(
                    figure=point.figure,
                    series=point.series,
                    x=point.x,
                    result=result,
                    replicate=point.replicate,
                )
            )
        return experiment

    def run_points(self, points: Sequence[PointSpec]) -> List[SimulationResult]:
        """Run points (cache-aware), preserving input order in the output."""
        results: Dict[int, SimulationResult] = {}
        pending: List[int] = []
        for index, point in enumerate(points):
            cached = self.cache.get(point) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)

        def complete(index: int, data: Mapping[str, object]) -> None:
            # Cache each point as soon as it finishes so a failing or
            # interrupted sibling cannot discard already-computed work.
            result = SimulationResult.from_dict(data)
            results[index] = result
            if self.cache is not None:
                self.cache.put(points[index], result)

        if pending:
            if self.workers <= 1 or len(pending) == 1:
                for index in pending:
                    complete(index, execute_point_checked(points[index]))
            else:
                max_workers = min(self.workers, len(pending))
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    futures = {
                        pool.submit(execute_point, asdict(points[index])): index
                        for index in pending
                    }
                    for future in as_completed(futures):
                        index = futures[future]
                        try:
                            data = future.result()
                        except Exception as exc:
                            # Stop queued siblings; running ones cannot be
                            # cancelled and the pool shutdown waits for them
                            # anyway, so harvest their results into the
                            # cache instead of discarding the work.  Then
                            # name the failing point instead of surfacing a
                            # bare worker traceback.
                            for sibling in futures:
                                sibling.cancel()
                            for sibling, sibling_index in futures.items():
                                if (
                                    sibling is future
                                    or sibling_index in results
                                    or sibling.cancelled()
                                ):
                                    continue
                                try:
                                    complete(sibling_index, sibling.result())
                                except Exception:
                                    pass  # another failing sibling: first error wins
                            raise PointExecutionError(points[index], exc) from exc
                        complete(index, data)

        return [results[index] for index in range(len(points))]
