"""Metrics collection for simulation runs.

The collector accumulates per-class response times and join-specific
statistics (chosen degree of parallelism, temporary I/O, memory queueing) and
turns resource accounting snapshots into utilisation figures measured over
the post-warm-up interval only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.metrics.timeline import TimelineCollector
from repro.sim import Environment, ValueMonitor

__all__ = ["UtilizationSnapshot", "MetricsCollector"]


@dataclass
class UtilizationSnapshot:
    """Resource accounting state of the whole system at one instant."""

    time: float
    cpu_busy: List[float]
    disk_busy: List[float]
    disk_count: int


class MetricsCollector:
    """Accumulates workload and resource metrics for one simulation run."""

    def __init__(self, env: Environment):
        self.env = env
        self.join_response_times = ValueMonitor("join_rt")
        self.oltp_response_times = ValueMonitor("oltp_rt")
        self.join_degrees = ValueMonitor("join_degree")
        self.join_overflow_pages = ValueMonitor("join_overflow")
        self.join_memory_waits = ValueMonitor("join_memory_wait")
        self.joins_completed = 0
        self.oltp_completed = 0
        self.measurement_start = 0.0
        self._baseline: Optional[UtilizationSnapshot] = None
        #: Optional windowed observer (see :mod:`repro.metrics.timeline`);
        #: when attached, completions are forwarded to the current window.
        self.timeline: Optional[TimelineCollector] = None

    # -- workload observations -------------------------------------------------
    def record_join(self, response_time: float, degree: int, overflow_pages: int,
                    memory_wait: float) -> None:
        self.joins_completed += 1
        self.join_response_times.record(response_time)
        self.join_degrees.record(float(degree))
        self.join_overflow_pages.record(float(overflow_pages))
        self.join_memory_waits.record(memory_wait)
        if self.timeline is not None:
            self.timeline.observe_join(response_time)

    def record_oltp(self, response_time: float) -> None:
        self.oltp_completed += 1
        self.oltp_response_times.record(response_time)
        if self.timeline is not None:
            self.timeline.observe_oltp(response_time)

    # -- warm-up handling ----------------------------------------------------------
    def snapshot(self, pes) -> UtilizationSnapshot:
        """Capture the current busy-time accounting of all PEs."""
        return UtilizationSnapshot(
            time=self.env.now,
            cpu_busy=[pe.cpu.resource.busy_time() for pe in pes],
            disk_busy=[pe.disks.snapshot()[1] for pe in pes],
            disk_count=len(pes[0].disks.disks) if pes else 1,
        )

    def start_measurement(self, pes) -> None:
        """Reset the workload monitors and re-baseline utilisation accounting."""
        self.join_response_times.reset()
        self.oltp_response_times.reset()
        self.join_degrees.reset()
        self.join_overflow_pages.reset()
        self.join_memory_waits.reset()
        self.joins_completed = 0
        self.oltp_completed = 0
        self.measurement_start = self.env.now
        self._baseline = self.snapshot(pes)
        for pe in pes:
            pe.buffer.reset_statistics()

    # -- utilisation summaries --------------------------------------------------------
    def average_cpu_utilization(self, pes) -> float:
        """Average CPU utilisation over the measurement interval."""
        current = self.snapshot(pes)
        baseline = self._baseline or UtilizationSnapshot(0.0, [0.0] * len(pes), [0.0] * len(pes), 1)
        elapsed = current.time - baseline.time
        if elapsed <= 0 or not pes:
            return 0.0
        busy = sum(c - b for c, b in zip(current.cpu_busy, baseline.cpu_busy))
        return min(1.0, busy / (elapsed * len(pes)))

    def average_disk_utilization(self, pes) -> float:
        """Average disk utilisation over the measurement interval."""
        current = self.snapshot(pes)
        baseline = self._baseline or UtilizationSnapshot(0.0, [0.0] * len(pes), [0.0] * len(pes), 1)
        elapsed = current.time - baseline.time
        if elapsed <= 0 or not pes:
            return 0.0
        busy = sum(c - b for c, b in zip(current.disk_busy, baseline.disk_busy))
        return min(1.0, busy / (elapsed * len(pes) * max(1, current.disk_count)))

    def average_memory_utilization(self, pes) -> float:
        """Average buffer occupancy over the measurement interval."""
        if not pes:
            return 0.0
        return sum(pe.buffer.average_utilization() for pe in pes) / len(pes)

    @property
    def measurement_duration(self) -> float:
        return self.env.now - self.measurement_start
