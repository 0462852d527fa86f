"""Simulation driver: runs workloads against a :class:`ParallelSystem`.

Two modes of operation mirror the paper's experiments:

* **multi-user mode** -- an open arrival stream per workload class
  (inter-query/inter-transaction parallelism); the driver discards a warm-up
  prefix and measures until a target number of join queries has completed or
  a simulated-time limit is reached.
* **single-user mode** -- exactly one join query in the system at a time
  (closed loop), which is the baseline the paper plots alongside the
  multi-user curves.
* **timed mode** -- an open arrival stream (optionally non-stationary or
  replayed from a trace) run for a fixed simulated duration with a windowed
  :class:`~repro.metrics.timeline.TimelineCollector`, so the result carries
  a time-resolved view of throughput, response times and per-PE load
  imbalance (the measurement mode the dynamic-workload scenarios use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.config.parameters import SystemConfig
from repro.metrics.timeline import TimelineCollector
from repro.scheduling.strategy import LoadBalancingStrategy
from repro.simulation.results import SimulationResult
from repro.simulation.system import ParallelSystem
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.query import JoinQuery
from repro.workload.traces import Trace, TraceReplayer

__all__ = ["SimulationDriver"]


@dataclass
class _RunLimits:
    warmup_joins: int
    measured_joins: int
    max_simulated_time: float
    step: float = 0.5


class SimulationDriver:
    """Builds a system for a configuration/strategy pair and runs workloads."""

    def __init__(
        self,
        config: SystemConfig,
        strategy: Union[str, LoadBalancingStrategy] = "OPT-IO-CPU",
        faults=(),
    ):
        self.config = config
        self.system = ParallelSystem(config, strategy, faults=faults)
        self.env = self.system.env

    # -- multi-user ----------------------------------------------------------------
    def run_multi_user(
        self,
        spec: Optional[WorkloadSpec] = None,
        warmup_joins: int = 20,
        measured_joins: int = 100,
        max_simulated_time: float = 600.0,
    ) -> SimulationResult:
        """Run an open multi-user workload and summarise the measurement phase."""
        if spec is None:
            spec = WorkloadSpec.for_config(self.config)
        generator = WorkloadGenerator(self.env, spec, self.system.submit)
        self.system.workload_generator = generator
        self.system.start()
        generator.start()

        limits = _RunLimits(
            warmup_joins=warmup_joins,
            measured_joins=measured_joins,
            max_simulated_time=max_simulated_time,
        )
        self._advance_until(lambda: self.system.metrics.joins_completed >= limits.warmup_joins, limits)
        self.system.metrics.start_measurement(self.system.pes)
        self._advance_until(
            lambda: self.system.metrics.joins_completed >= limits.measured_joins, limits
        )
        return self._summarise(mode="multi-user")

    def _advance_until(self, predicate, limits: _RunLimits) -> None:
        while not predicate() and self.env.now < limits.max_simulated_time:
            self.env.run(until=min(self.env.now + limits.step, limits.max_simulated_time))

    # -- timed (timeline) ----------------------------------------------------------
    def run_timed(
        self,
        duration: float,
        timeline_window: float = 1.0,
        spec: Optional[WorkloadSpec] = None,
        trace: Optional[Trace] = None,
    ) -> SimulationResult:
        """Run an open workload for exactly ``duration`` simulated seconds.

        Unlike :meth:`run_multi_user` there is no warm-up and no completion
        target: measurement starts at time zero and every ``timeline_window``
        seconds a :class:`~repro.metrics.timeline.TimelineCollector` closes a
        window, so the returned result carries the full time series of the
        run (``result.timeline``).  With ``trace`` set, arrivals are replayed
        from the trace instead of being sampled live (the spec still
        provides the transaction factories).
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if spec is None:
            spec = WorkloadSpec.for_config(self.config)
        self.system.start()
        if trace is not None:
            TraceReplayer(self.env, spec, trace, self.system.submit).start()
        else:
            generator = WorkloadGenerator(self.env, spec, self.system.submit)
            self.system.workload_generator = generator
            generator.start()
        self.system.metrics.start_measurement(self.system.pes)
        collector = TimelineCollector(
            self.env, self.system.pes, timeline_window, self.system.faults
        )
        self.system.metrics.timeline = collector
        collector.start()
        self.env.run(until=duration)
        collector.finalize()
        result = self._summarise(mode="timed")
        result.timeline = collector.to_timeline()
        return result

    # -- single-user ----------------------------------------------------------------------
    def run_single_user(self, num_queries: int = 10) -> SimulationResult:
        """Run ``num_queries`` join queries back to back (one at a time).

        The closed loop runs each join directly, past the fault runtime's
        gates and registry, so a single-user run takes no fault plan.
        """
        if self.system.faults.events:
            raise ValueError(
                "a single-user run takes no fault plan: its joins bypass the "
                "fault runtime, so no fault would be injected"
            )
        self.system.start()
        self.system.metrics.start_measurement(self.system.pes)
        join_cfg = self.config.join_query

        def closed_loop():
            for _ in range(num_queries):
                query = JoinQuery(
                    inner_relation=self.config.relation_a.name,
                    outer_relation=self.config.relation_b.name,
                    scan_selectivity=join_cfg.scan_selectivity,
                    result_fraction_of_inner=join_cfg.result_fraction_of_inner,
                    fudge_factor=join_cfg.fudge_factor,
                    arrival_time=self.env.now,
                )
                self.system._join_router.route(query)
                yield self.env.process(self.system._run_join(query))

        process = self.env.process(closed_loop())
        # The control node and deadlock detector generate events forever, so
        # advance time in slices until the closed loop has finished.
        while process.is_alive:
            self.env.run(until=self.env.now + 1.0)
        return self._summarise(mode="single-user")

    # -- summary -------------------------------------------------------------------------------
    def _summarise(self, mode: str) -> SimulationResult:
        metrics = self.system.metrics
        pes = self.system.pes
        duration = max(metrics.measurement_duration, 1e-9)
        return SimulationResult(
            strategy=self.system.strategy.name,
            num_pe=self.config.num_pe,
            mode=mode,
            simulated_seconds=metrics.measurement_duration,
            joins_completed=metrics.joins_completed,
            join_response_time=metrics.join_response_times.mean,
            join_response_time_p95=metrics.join_response_times.percentile(95),
            join_response_time_ci=metrics.join_response_times.confidence_interval(),
            average_degree=metrics.join_degrees.mean,
            average_overflow_pages=metrics.join_overflow_pages.mean,
            average_memory_wait=metrics.join_memory_waits.mean,
            cpu_utilization=metrics.average_cpu_utilization(pes),
            disk_utilization=metrics.average_disk_utilization(pes),
            memory_utilization=metrics.average_memory_utilization(pes),
            oltp_completed=metrics.oltp_completed,
            oltp_response_time=metrics.oltp_response_times.mean,
            join_throughput=metrics.joins_completed / duration,
        )
