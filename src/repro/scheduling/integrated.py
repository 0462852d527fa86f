"""Integrated load balancing strategies (paper §3.3).

All three strategies use the control node's AVAIL-MEMORY array to determine
the number of join processors *and* to select them (LUM order) in a single
step; they differ in how they break ties between I/O-avoiding selections and
in whether the CPU utilisation is taken into account:

* MIN-IO        -- the minimal number of processors avoiding temporary file
                   I/O (or minimising it when avoidance is impossible);
* MIN-IO-SUOPT  -- among the I/O-avoiding choices, the one closest to
                   psu-opt (avoids unnecessarily restricting parallelism);
* OPT-IO-CPU    -- like the previous ones but never exceeding pmu-cpu, the
                   CPU-utilisation-reduced degree of formula (3.2).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.scheduling.control_node import NodeStatus
from repro.scheduling.strategy import JoinPlan, LoadBalancingStrategy, SchedulingContext
from repro.workload.query import JoinQuery

__all__ = ["MinIOStrategy", "MinIOSuOptStrategy", "OptIOCpuStrategy"]


def _avail_memory(context: SchedulingContext) -> List[NodeStatus]:
    """AVAIL-MEMORY restricted to the eligible processors."""
    eligible = set(context.eligible_processors)
    return [status for status in context.control.avail_memory() if status.pe_id in eligible]


def _overflow_pages(avail: Sequence[NodeStatus], k: int, needed_pages: int) -> int:
    """Total overflow (pages that do not fit in memory) when using the first
    ``k`` entries of AVAIL-MEMORY for a hash table of ``needed_pages`` pages."""
    share = needed_pages / k
    overflow = 0.0
    for status in avail[:k]:
        overflow += max(0.0, share - status.free_memory_pages)
    return math.ceil(overflow)


def _io_avoiding_degrees(
    avail: Sequence[NodeStatus], needed_pages: int, max_degree: Optional[int] = None
) -> List[int]:
    """All degrees k for which AVAIL-MEMORY[k].free * k > needed_pages (3.3)."""
    limit = len(avail) if max_degree is None else min(len(avail), max_degree)
    degrees = []
    for k in range(1, limit + 1):
        if avail[k - 1].free_memory_pages * k > needed_pages:
            degrees.append(k)
    return degrees


def _min_overflow_degree(
    avail: Sequence[NodeStatus],
    needed_pages: int,
    max_degree: Optional[int] = None,
    prefer_larger: bool = False,
) -> int:
    """Degree minimising the amount of overflow I/O (footnote 5 of the paper).

    ``prefer_larger`` controls the tie-break: MIN-IO keeps the smallest such
    degree (least CPU overhead), OPT-IO-CPU and MIN-IO-SUOPT prefer the
    largest one within their bound to exploit I/O and CPU parallelism.
    """
    limit = len(avail) if max_degree is None else min(len(avail), max_degree)
    best_k = 1
    best_overflow = None
    for k in range(1, limit + 1):
        overflow = _overflow_pages(avail, k, needed_pages)
        better = best_overflow is None or overflow < best_overflow
        tie = best_overflow is not None and overflow == best_overflow and prefer_larger
        if better or tie:
            best_overflow = overflow
            best_k = k
    return best_k


def _build_plan(
    avail: Sequence[NodeStatus], degree: int, needed_pages: int, context: SchedulingContext
) -> JoinPlan:
    chosen = [status.pe_id for status in avail[:degree]]
    pages_per_processor = max(1, math.ceil(needed_pages / degree))
    context.control.note_join_assignment(chosen, pages_per_processor)
    return JoinPlan(
        degree=len(chosen),
        processors=tuple(sorted(chosen)),
        pages_per_processor=pages_per_processor,
    )


class MinIOStrategy(LoadBalancingStrategy):
    """MIN-IO: minimal number of join processors avoiding temporary file I/O."""

    name = "MIN-IO"

    def plan_join(self, query: JoinQuery, context: SchedulingContext) -> JoinPlan:
        profile = context.cost_model.profile(query)
        needed = profile.hash_table_pages
        avail = _avail_memory(context)
        io_avoiding = _io_avoiding_degrees(avail, needed)
        degree = io_avoiding[0] if io_avoiding else _min_overflow_degree(avail, needed)
        return _build_plan(avail, degree, needed, context)


class MinIOSuOptStrategy(LoadBalancingStrategy):
    """MIN-IO-SUOPT: the I/O-avoiding degree closest to psu-opt."""

    name = "MIN-IO-SUOPT"

    def plan_join(self, query: JoinQuery, context: SchedulingContext) -> JoinPlan:
        profile = context.cost_model.profile(query)
        needed = profile.hash_table_pages
        avail = _avail_memory(context)
        io_avoiding = _io_avoiding_degrees(avail, needed)
        if io_avoiding:
            target = context.cost_model.psu_opt(query)
            degree = min(io_avoiding, key=lambda k: (abs(k - target), k))
        else:
            degree = _min_overflow_degree(avail, needed, prefer_larger=True)
        return _build_plan(avail, degree, needed, context)


class OptIOCpuStrategy(LoadBalancingStrategy):
    """OPT-IO-CPU: bound the degree by pmu-cpu, then avoid/minimise I/O.

    Under light CPU load the bound equals psu-opt, so the strategy behaves
    like MIN-IO-SUOPT; under high CPU load the bound shrinks and the strategy
    picks, within the bound, the selection with the least temporary I/O
    (preferring the largest such degree to exploit CPU parallelism).
    """

    name = "OPT-IO-CPU"

    def plan_join(self, query: JoinQuery, context: SchedulingContext) -> JoinPlan:
        profile = context.cost_model.profile(query)
        needed = profile.hash_table_pages
        avail = _avail_memory(context)
        utilization = context.control.average_cpu_utilization()
        max_degree = min(len(avail), context.cost_model.pmu_cpu(query, utilization))
        io_avoiding = _io_avoiding_degrees(avail, needed, max_degree=max_degree)
        if io_avoiding:
            # Maximal I/O-avoiding degree within the CPU bound.
            degree = io_avoiding[-1]
        else:
            # "The maximal number of processors avoiding (or minimising)
            # temporary I/O is selected" -- prefer the largest minimiser.
            degree = _min_overflow_degree(
                avail, needed, max_degree=max_degree, prefer_larger=True
            )
        return _build_plan(avail, degree, needed, context)
