"""The designated control node for dynamic load balancing.

Dynamic policies base their decisions on the current CPU utilisation and
memory availability.  A designated control node is periodically informed by
the processors about their current utilisation; during the execution of a
query, information on the current CPU and memory utilisation is requested
from the control node (paper §3).

Two details from the paper matter for correctness of the policies:

* the information is only as fresh as the last report (staleness is a real
  effect the adaptive corrections below compensate for);
* when join processors are selected, the control node's copy of their CPU
  utilisation (LUC) and available memory (LUM) is *adapted immediately* so
  that closely spaced queries do not all pick the same nodes (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.config.parameters import ControlConfig
from repro.sim import Environment

__all__ = ["NodeStatus", "ControlNode"]


@dataclass
class NodeStatus:
    """The control node's (possibly stale, possibly adapted) view of one PE."""

    pe_id: int
    cpu_utilization: float = 0.0
    free_memory_pages: int = 0
    disk_utilization: float = 0.0
    # Relative CPU speed of the PE (node-class mips factor, 1.0 = default
    # hardware).  Lets the rankings below compare *absolute* headroom across
    # heterogeneous nodes instead of raw utilisation percentages.
    cpu_capacity: float = 1.0
    # Failure awareness (PR 8): dead / not-yet-joined PEs are excluded from
    # the rankings; degraded stragglers are down-weighted by their current
    # speed factor.  Maintained by the fault injector; always (True, 1.0)
    # in fault-free runs.
    available: bool = True
    speed_factor: float = 1.0


class ControlNode:
    """Collects periodic utilisation reports and serves load information."""

    def __init__(self, env: Environment, pes: Sequence, config: ControlConfig):
        self.env = env
        self.pes = list(pes)
        self.config = config
        self._status: Dict[int, NodeStatus] = {
            pe.pe_id: NodeStatus(
                pe_id=pe.pe_id,
                cpu_utilization=0.0,
                free_memory_pages=pe.buffer.free_pages,
                disk_utilization=0.0,
                cpu_capacity=pe.cpu_factor,
            )
            for pe in self.pes
        }
        self._running = False

    # -- reporting -----------------------------------------------------------
    def start(self) -> None:
        """Start the periodic reporting process."""
        if self._running:
            return
        self._running = True
        self.env.process(self._report_loop())

    def _report_loop(self):
        while True:
            yield self.env.timeout(self.config.report_interval)
            self.collect_reports()

    def collect_reports(self) -> None:
        """Poll every PE once (also callable directly, e.g. from tests)."""
        for pe in self.pes:
            pe.close_report_window()
            status = self._status[pe.pe_id]
            status.cpu_utilization = pe.recent_cpu_utilization
            status.free_memory_pages = pe.buffer.free_pages
            status.disk_utilization = pe.recent_disk_utilization

    # -- queries by the load balancing strategies ---------------------------------
    def status_of(self, pe_id: int) -> NodeStatus:
        return self._status[pe_id]

    def _ranked_statuses(self) -> List[NodeStatus]:
        """Statuses the strategies may consider: the available PEs."""
        return [status for status in self._status.values() if status.available]

    def average_cpu_utilization(self) -> float:
        """Capacity-weighted CPU utilisation of the available processors
        (for 3.2): the fraction of their aggregate MIPS currently busy, with
        degraded stragglers contributing their reduced capacity.  When every
        weight is 1.0 this is the plain mean utilisation."""
        busy = 0.0
        capacity = 0.0
        for status in self._ranked_statuses():
            effective = status.cpu_capacity * status.speed_factor
            busy += status.cpu_utilization * effective
            capacity += effective
        return busy / capacity if capacity else 0.0

    def avail_memory(self) -> List[NodeStatus]:
        """The AVAIL-MEMORY array: available nodes sorted by free memory,
        descending.

        ``avail_memory()[0]`` is the processor with the most free memory, as
        in the paper's data structure AVAIL-MEMORY[1..n].
        """
        return sorted(
            self._ranked_statuses(),
            key=lambda status: (-status.free_memory_pages, status.pe_id),
        )

    def nodes_by_cpu(self) -> List[NodeStatus]:
        """Available nodes sorted for LUC: most absolute idle MIPS first, PE
        index breaking ties.  A fast node at 50 % has more headroom than a
        slow node at 40 %, and a degraded straggler is down-weighted by its
        current speed factor.  Headrooms equal in floating point tie even if
        the raw utilisations differ."""
        return sorted(
            self._ranked_statuses(),
            key=lambda status: (
                -(1.0 - status.cpu_utilization)
                * status.cpu_capacity
                * status.speed_factor,
                status.pe_id,
            ),
        )

    # -- adaptive corrections -------------------------------------------------------
    def note_join_assignment(
        self, pe_ids: Sequence[int], pages_per_processor: int = 0
    ) -> None:
        """Adapt the control data after assigning a join to ``pe_ids``.

        The CPU utilisation of the selected processors is artificially
        increased and their available memory reduced by the expected working
        space, so that the *next* query (arriving before the next report)
        does not select exactly the same nodes (§3.2).
        """
        for pe_id in pe_ids:
            status = self._status.get(pe_id)
            if status is None:
                continue
            status.cpu_utilization = min(
                1.0, status.cpu_utilization + self.config.adaptive_cpu_increment
            )
            if pages_per_processor > 0:
                status.free_memory_pages = max(
                    0, status.free_memory_pages - pages_per_processor
                )
