"""Windowed timeline metrics: time-resolved view of one simulation run.

End-of-run aggregates cannot show *when* a strategy saturates or how fast a
dynamic policy re-balances after a load surge.  The
:class:`TimelineCollector` bins the measurement phase into fixed windows and
records, per window:

* join/OLTP completions, join throughput and response-time statistics
  (mean / p95 / max of the joins *completing* in the window);
* per-PE CPU utilisation folded into mean, max and imbalance (max - mean);
* disk utilisation and buffer (memory) occupancy with the same imbalance
  fold.

The collector is a pure observer: it samples busy-time/occupancy integrals
at window boundaries and never mutates simulation state, so enabling it
cannot change a run's outcome.  The result is a :class:`Timeline` -- a
serialisable time series that rides on
:class:`~repro.simulation.results.SimulationResult` across process
boundaries and through the on-disk result cache.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.sim import Environment
from repro.sim.monitor import percentile_sorted

__all__ = ["TimelineWindow", "Timeline", "TimelineCollector", "aggregate_timelines", "live_windows"]


@dataclass(frozen=True)
class TimelineWindow:
    """Metrics of one ``[start, end)`` slice of a run."""

    start: float
    end: float
    joins_completed: int = 0
    join_throughput: float = 0.0  # completions per second in this window
    join_rt_mean: float = 0.0  # seconds; 0 when no join completed
    join_rt_p95: float = 0.0
    join_rt_max: float = 0.0
    oltp_completed: int = 0
    oltp_rt_mean: float = 0.0
    cpu_util: float = 0.0  # mean over PEs
    cpu_util_max: float = 0.0  # most loaded PE
    cpu_imbalance: float = 0.0  # max - mean
    disk_util: float = 0.0
    disk_util_max: float = 0.0
    disk_imbalance: float = 0.0
    mem_util: float = 0.0  # time-weighted buffer occupancy, mean over PEs
    mem_util_max: float = 0.0
    mem_imbalance: float = 0.0
    #: Per-node-class utilisation on heterogeneous systems: one
    #: ``(class_name, cpu_util, disk_util, mem_util)`` tuple per class, in PE
    #: order.  Empty on uniform systems (single class), keeping their
    #: serialised timelines unchanged.
    class_util: tuple = ()
    #: Fault-injection observability (PR 8): fraction of the expected
    #: processor pool that was alive over the window (time-integral of
    #: alive-and-joined PEs over joined PEs; 1.0 in fault-free runs), and a
    #: stable ``kind:peN`` label join of the injected anomaly windows
    #: overlapping this window (empty when clean).
    availability: float = 1.0
    anomaly: str = ""
    #: Replication observability (PR 10): fraction of the *database* (tuple
    #: weighted) with at least one alive copy over the window.  Under
    #: replication a crash costs no effective availability while the backup
    #: copies survive; in the single-copy system this tracks the crashed
    #: PEs' data share.  1.0 in fault-free runs.
    effective_availability: float = 1.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """The windowed time series of one run (lossless JSON round-trip)."""

    window: float  # nominal window length in simulated seconds
    windows: List[TimelineWindow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self):
        return iter(self.windows)

    def series(self, metric: str) -> List[float]:
        """The values of one window field, in time order."""
        return [getattr(window, metric) for window in self.windows]

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Timeline":
        known = {f.name for f in fields(TimelineWindow)}
        windows = []
        for entry in data.get("windows", ()):
            kwargs = {k: v for k, v in entry.items() if k in known}
            # JSON turns the per-class tuples into nested lists; re-tuple so
            # round-tripped timelines compare equal to the originals.
            kwargs["class_util"] = tuple(
                (str(name), float(cpu), float(disk), float(mem))
                for name, cpu, disk, mem in kwargs.get("class_util") or ()
            )
            windows.append(TimelineWindow(**kwargs))
        return cls(window=float(data["window"]), windows=windows)


def _fold(per_pe: Sequence[float]) -> tuple[float, float, float]:
    """(mean, max, max - mean) of a per-PE utilisation vector."""
    if not per_pe:
        return 0.0, 0.0, 0.0
    mean = math.fsum(per_pe) / len(per_pe)
    peak = max(per_pe)
    return mean, peak, peak - mean


class _ResourceSnapshot:
    """Busy-time / occupancy integrals of every PE at one instant."""

    def __init__(self, env: Environment, pes) -> None:
        self.time = env.now
        self.cpu_busy = [pe.cpu.resource.busy_time() for pe in pes]
        self.disk = [pe.disks.snapshot() for pe in pes]  # (time, busy) pairs
        self.mem_area = [pe.buffer.occupancy.integral() for pe in pes]


#: A list that collectors created in this context also append each closed
#: window to.  A queue worker sets a fresh one per run, and its heartbeat
#: thread reports the windows closed so far; they are frozen, so reading them
#: from that thread touches no simulation state.
live_windows: ContextVar[Optional[List[TimelineWindow]]] = ContextVar("live_windows", default=None)


class TimelineCollector:
    """Accumulates windowed metrics during a run.

    The driver forwards join/OLTP completions via :meth:`observe_join` /
    :meth:`observe_oltp` (through the run's
    :class:`~repro.metrics.collector.MetricsCollector`); a background
    process closes a window every ``window`` simulated seconds.  Call
    :meth:`finalize` when the run ends to close the last (possibly partial)
    window, then :meth:`to_timeline` for the serialisable record.
    """

    def __init__(self, env: Environment, pes, window: float, faults):
        if window <= 0:
            raise ValueError(f"timeline window must be positive, got {window}")
        self.env = env
        self.pes = list(pes)
        self.window = float(window)
        # The run's fault runtime: closed windows carry its per-window
        # availability and anomaly labels (1.0 and "" on a clean run).
        self._faults = faults
        # Per-PE capacities are invariant across windows; compute them once
        # instead of per window close (windows can be short and PEs many).
        self._cpu_capacities = [pe.cpu.resource.capacity for pe in self.pes]
        self._buffer_pages = [pe.buffer.total_pages for pe in self.pes]
        # Node-class groups (heterogeneous systems only): class name -> PE
        # indices, in PE order.  With a single class the per-class series is
        # redundant and stays off, keeping uniform timelines unchanged.
        groups: Dict[str, List[int]] = {}
        for index, pe in enumerate(self.pes):
            groups.setdefault(getattr(pe, "node_class", "default"), []).append(index)
        self._class_groups = list(groups.items()) if len(groups) > 1 else []
        self.windows: List[TimelineWindow] = []
        self._live = live_windows.get()
        self._join_rts: List[float] = []
        self._oltp_rts: List[float] = []
        self._window_start = env.now
        self._baseline = _ResourceSnapshot(env, self.pes)
        self._finalized = False
        self._process = None

    def start(self) -> None:
        """Start the window-boundary sampling process."""
        if self._process is None:
            self._window_start = self.env.now
            self._baseline = _ResourceSnapshot(self.env, self.pes)
            self._process = self.env.process(self._tick())

    def _tick(self):
        while True:
            yield self.env.timeout(self.window)
            self._close_window()

    # -- workload observations ------------------------------------------------
    def observe_join(self, response_time: float) -> None:
        self._join_rts.append(response_time)

    def observe_oltp(self, response_time: float) -> None:
        self._oltp_rts.append(response_time)

    # -- window bookkeeping ---------------------------------------------------
    def _close_window(self) -> None:
        start = self._window_start
        end = self.env.now
        elapsed = end - start
        if elapsed <= 0:
            return
        current = _ResourceSnapshot(self.env, self.pes)
        baseline = self._baseline
        cpu = [
            min(1.0, (c - b) / (elapsed * capacity))
            for c, b, capacity in zip(
                current.cpu_busy, baseline.cpu_busy, self._cpu_capacities
            )
        ]
        disk = [
            pe.disks.utilization_since(then, now)
            for pe, then, now in zip(self.pes, baseline.disk, current.disk)
        ]
        mem = [
            min(1.0, (c - b) / (elapsed * pages))
            for c, b, pages in zip(
                current.mem_area, baseline.mem_area, self._buffer_pages
            )
        ]
        cpu_mean, cpu_max, cpu_imb = _fold(cpu)
        disk_mean, disk_max, disk_imb = _fold(disk)
        mem_mean, mem_max, mem_imb = _fold(mem)
        class_util = tuple(
            (
                name,
                math.fsum(cpu[i] for i in indices) / len(indices),
                math.fsum(disk[i] for i in indices) / len(indices),
                math.fsum(mem[i] for i in indices) / len(indices),
            )
            for name, indices in self._class_groups
        )
        availability, anomaly = self._faults.window_stats(start, end)
        effective_availability = self._faults.data_availability(start, end)
        rts = sorted(self._join_rts)
        self.windows.append(
            TimelineWindow(
                start=start,
                end=end,
                joins_completed=len(rts),
                join_throughput=len(rts) / elapsed,
                join_rt_mean=math.fsum(rts) / len(rts) if rts else 0.0,
                join_rt_p95=percentile_sorted(rts, 95.0),
                join_rt_max=rts[-1] if rts else 0.0,
                oltp_completed=len(self._oltp_rts),
                oltp_rt_mean=(
                    math.fsum(self._oltp_rts) / len(self._oltp_rts) if self._oltp_rts else 0.0
                ),
                cpu_util=cpu_mean,
                cpu_util_max=cpu_max,
                cpu_imbalance=cpu_imb,
                disk_util=disk_mean,
                disk_util_max=disk_max,
                disk_imbalance=disk_imb,
                mem_util=mem_mean,
                mem_util_max=mem_max,
                mem_imbalance=mem_imb,
                class_util=class_util,
                availability=availability,
                anomaly=anomaly,
                effective_availability=effective_availability,
            )
        )
        if self._live is not None:
            self._live.append(self.windows[-1])
        self._join_rts = []
        self._oltp_rts = []
        self._window_start = end
        self._baseline = current

    def finalize(self) -> None:
        """Close the in-progress window (no-op when it is empty)."""
        if self._finalized:
            return
        self._finalized = True
        self._close_window()

    def to_timeline(self) -> Timeline:
        return Timeline(window=self.window, windows=list(self.windows))


def aggregate_timelines(timelines: Sequence[Optional[Timeline]]) -> Optional[Timeline]:
    """Window-wise mean of replicate timelines.

    Returns ``None`` unless every replicate carries a timeline with identical
    window boundaries (perturbed or trace replicates may legitimately
    differ); count fields become fractional means, mirroring
    :func:`repro.simulation.results.aggregate_results`.
    """
    materialised = list(timelines)
    if not materialised or any(t is None for t in materialised):
        return None
    first = materialised[0]
    for other in materialised[1:]:
        if other.window != first.window or len(other) != len(first):
            return None
        for a, b in zip(first.windows, other.windows):
            if a.start != b.start or a.end != b.end:
                return None
    metric_names = [
        f.name
        for f in fields(TimelineWindow)
        if f.name not in ("start", "end", "class_util", "anomaly")
    ]
    windows = []
    for index, window in enumerate(first.windows):
        means = {
            name: math.fsum(getattr(t.windows[index], name) for t in materialised)
            / len(materialised)
            for name in metric_names
        }
        # The anomaly label is categorical: carried when every replicate saw
        # the same injected windows (the common case -- the plan is part of
        # the point spec), dropped otherwise.
        anomalies = {t.windows[index].anomaly for t in materialised}
        windows.append(
            TimelineWindow(
                start=window.start,
                end=window.end,
                class_util=_aggregate_class_util(
                    [t.windows[index].class_util for t in materialised]
                ),
                anomaly=anomalies.pop() if len(anomalies) == 1 else "",
                **means,
            )
        )
    return Timeline(window=first.window, windows=windows)


def _aggregate_class_util(per_replicate: Sequence[tuple]) -> tuple:
    """Class-wise mean of the per-class utilisation tuples of one window.

    Replicates of one point share the hardware layout, so the class name
    sequences match; if they ever do not (hand-mixed timelines), the
    per-class series is dropped rather than averaged across unlike classes.
    """
    first = per_replicate[0]
    names = [entry[0] for entry in first]
    for other in per_replicate[1:]:
        if [entry[0] for entry in other] != names:
            return ()
    count = len(per_replicate)
    return tuple(
        (
            name,
            math.fsum(t[index][1] for t in per_replicate) / count,
            math.fsum(t[index][2] for t in per_replicate) / count,
            math.fsum(t[index][3] for t in per_replicate) / count,
        )
        for index, name in enumerate(names)
    )
