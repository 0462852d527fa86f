"""Policies for determining the degree of join parallelism (paper §3.1).

Two static schemes fix the number of join processors at "compile time";
the dynamic scheme adapts it to the current CPU utilisation reported by the
control node (formula 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.scheduling.control_node import ControlNode
from repro.scheduling.cost_model import CostModel
from repro.workload.query import JoinQuery

__all__ = [
    "DegreePolicy",
    "FixedDegree",
    "StaticSuOptDegree",
    "StaticNoIODegree",
    "DynamicCpuDegree",
]


class DegreePolicy(Protocol):
    """Interface: choose the number of join processors for a query."""

    name: str

    def degree(
        self, query: JoinQuery, cost_model: CostModel, control: ControlNode
    ) -> int:  # pragma: no cover - protocol
        ...


@dataclass
class FixedDegree:
    """A constant degree of parallelism (useful for sweeps and Fig. 1)."""

    value: int
    name: str = "fixed"

    def degree(self, query, cost_model, control) -> int:
        return max(1, min(cost_model.config.num_pe, self.value))


@dataclass
class StaticSuOptDegree:
    """Use the single-user optimum psu-opt regardless of the system state."""

    name: str = "psu_opt"

    def degree(self, query, cost_model, control) -> int:
        return min(cost_model.config.num_pe, cost_model.psu_opt(query))


@dataclass
class StaticNoIODegree:
    """Use psu-noIO: just enough processors to avoid temporary file I/O
    in single-user mode (formula 3.1)."""

    name: str = "psu_noIO"

    def degree(self, query, cost_model, control) -> int:
        return cost_model.psu_no_io(query)


@dataclass
class DynamicCpuDegree:
    """Formula (3.2): reduce psu-opt according to the current CPU utilisation."""

    name: str = "pmu_cpu"

    def degree(self, query, cost_model, control) -> int:
        return cost_model.pmu_cpu(query, control.average_cpu_utilization())
