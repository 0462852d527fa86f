"""Policies for selecting the join processors (paper §3.2).

Three selection strategies are supported, combinable with any policy for the
degree of join parallelism:

* RANDOM -- state-oblivious uniform choice;
* LUC    -- Least Utilized CPUs;
* LUM    -- Least Utilized Memory (most free buffer pages).

LUC and LUM apply the adaptive correction at the control node so that queries
arriving between two reports do not pile onto the same processors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Protocol, Sequence

from repro.scheduling.control_node import ControlNode

__all__ = [
    "PlacementPolicy",
    "RandomPlacement",
    "LeastUtilizedCpuPlacement",
    "LeastUtilizedMemoryPlacement",
]


class PlacementPolicy(Protocol):
    """Interface: choose ``degree`` processors out of the eligible set."""

    name: str

    def select(
        self,
        degree: int,
        eligible: Sequence[int],
        control: ControlNode,
        pages_per_processor: int = 0,
    ) -> List[int]:  # pragma: no cover - protocol
        ...


def _clamp_degree(degree: int, eligible: Sequence[int]) -> int:
    return max(1, min(degree, len(eligible)))


@dataclass
class RandomPlacement:
    """Select the join processors uniformly at random (static policy)."""

    seed: int = 0
    name: str = "RANDOM"
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def select(self, degree, eligible, control, pages_per_processor=0) -> List[int]:
        degree = _clamp_degree(degree, eligible)
        return sorted(self._rng.sample(list(eligible), degree))


@dataclass
class LeastUtilizedCpuPlacement:
    """LUC: select the processors with the lowest reported CPU utilisation."""

    name: str = "LUC"

    def select(self, degree, eligible, control, pages_per_processor=0) -> List[int]:
        degree = _clamp_degree(degree, eligible)
        eligible_set = set(eligible)
        ranked = [
            status.pe_id
            for status in control.nodes_by_cpu()
            if status.pe_id in eligible_set
        ]
        chosen = ranked[:degree]
        control.note_join_assignment(chosen, pages_per_processor)
        return sorted(chosen)


@dataclass
class LeastUtilizedMemoryPlacement:
    """LUM: select the processors with the most available main memory."""

    name: str = "LUM"

    def select(self, degree, eligible, control, pages_per_processor=0) -> List[int]:
        degree = _clamp_degree(degree, eligible)
        eligible_set = set(eligible)
        ranked = [
            status.pe_id
            for status in control.avail_memory()
            if status.pe_id in eligible_set
        ]
        chosen = ranked[:degree]
        control.note_join_assignment(chosen, pages_per_processor)
        return sorted(chosen)
