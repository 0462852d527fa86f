"""Load balancing strategies: the paper's core abstraction.

A strategy answers one question per join query, at query run time:

    *how many* join processors should be used, and *which* ones?

Isolated strategies answer the two sub-questions in two consecutive steps
(a degree policy followed by a placement policy); integrated strategies
answer both in a single step using the control node's memory availability
array (and, for OPT-IO-CPU, the CPU utilisation as well).

The :data:`STRATEGIES` registry maps the names used throughout the paper's
figures (e.g. ``"pmu_cpu+LUM"``, ``"MIN-IO-SUOPT"``) to factory functions, so
experiments and the CLI can select strategies by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.scheduling.control_node import ControlNode
from repro.scheduling.cost_model import CostModel
from repro.scheduling.degree import (
    DegreePolicy,
    DynamicCpuDegree,
    StaticNoIODegree,
    StaticSuOptDegree,
)
from repro.scheduling.placement import (
    LeastUtilizedCpuPlacement,
    LeastUtilizedMemoryPlacement,
    PlacementPolicy,
    RandomPlacement,
)
from repro.workload.query import JoinQuery

__all__ = [
    "JoinPlan",
    "SchedulingContext",
    "LoadBalancingStrategy",
    "IsolatedStrategy",
    "STRATEGIES",
    "make_strategy",
    "strategy_names",
]


@dataclass(frozen=True)
class JoinPlan:
    """The scheduling decision for one join query."""

    degree: int
    processors: tuple[int, ...]
    pages_per_processor: int  # expected working-space demand per join processor

    def __post_init__(self) -> None:
        if self.degree != len(self.processors):
            raise ValueError("degree must equal the number of selected processors")
        if self.degree < 1:
            raise ValueError("a join needs at least one processor")


@dataclass
class SchedulingContext:
    """Everything a strategy may consult when planning a join."""

    cost_model: CostModel
    control: ControlNode
    #: The PEs that may act as join processors: every live PE (paper §2,
    #: footnote 3).
    eligible_processors: Sequence[int]


class LoadBalancingStrategy:
    """Base class: subclasses implement :meth:`plan_join`."""

    name = "abstract"

    def plan_join(self, query: JoinQuery, context: SchedulingContext) -> JoinPlan:
        raise NotImplementedError

    # Helper shared by all strategies.
    @staticmethod
    def _pages_per_processor(query: JoinQuery, context: SchedulingContext, degree: int) -> int:
        profile = context.cost_model.profile(query)
        return max(1, math.ceil(profile.hash_table_pages / max(1, degree)))

    def describe(self) -> str:
        return self.name


@dataclass
class IsolatedStrategy(LoadBalancingStrategy):
    """Two-step strategy: a degree policy followed by a placement policy."""

    degree_policy: DegreePolicy
    placement_policy: PlacementPolicy
    label: Optional[str] = None

    def __post_init__(self) -> None:
        self.name = self.label or f"{self.degree_policy.name}+{self.placement_policy.name}"

    def plan_join(self, query: JoinQuery, context: SchedulingContext) -> JoinPlan:
        eligible = context.eligible_processors
        degree = self.degree_policy.degree(query, context.cost_model, context.control)
        degree = max(1, min(degree, len(eligible)))
        pages = self._pages_per_processor(query, context, degree)
        processors = self.placement_policy.select(
            degree, eligible, context.control, pages_per_processor=pages
        )
        return JoinPlan(
            degree=len(processors),
            processors=tuple(processors),
            pages_per_processor=pages,
        )


# -- integrated strategies (defined in integrated.py, imported lazily to avoid
#    a circular import in type checking tools) ----------------------------------


def _registry() -> Dict[str, Callable[..., LoadBalancingStrategy]]:
    from repro.scheduling.integrated import (
        MinIOStrategy,
        MinIOSuOptStrategy,
        OptIOCpuStrategy,
    )

    def isolated(degree_policy_factory, placement_factory):
        def build(seed: int = 0) -> LoadBalancingStrategy:
            placement = placement_factory(seed) if placement_factory is RandomPlacement else placement_factory()
            return IsolatedStrategy(degree_policy_factory(), placement)

        return build

    return {
        # Static degree, three placements (Fig. 5).
        "psu_opt+RANDOM": isolated(StaticSuOptDegree, RandomPlacement),
        "psu_opt+LUC": isolated(StaticSuOptDegree, LeastUtilizedCpuPlacement),
        "psu_opt+LUM": isolated(StaticSuOptDegree, LeastUtilizedMemoryPlacement),
        "psu_noIO+RANDOM": isolated(StaticNoIODegree, RandomPlacement),
        "psu_noIO+LUC": isolated(StaticNoIODegree, LeastUtilizedCpuPlacement),
        "psu_noIO+LUM": isolated(StaticNoIODegree, LeastUtilizedMemoryPlacement),
        # Dynamic degree (Fig. 6).
        "pmu_cpu+RANDOM": isolated(DynamicCpuDegree, RandomPlacement),
        "pmu_cpu+LUC": isolated(DynamicCpuDegree, LeastUtilizedCpuPlacement),
        "pmu_cpu+LUM": isolated(DynamicCpuDegree, LeastUtilizedMemoryPlacement),
        # Integrated strategies (Fig. 6, 7, 9).
        "MIN-IO": lambda seed=0: MinIOStrategy(),
        "MIN-IO-SUOPT": lambda seed=0: MinIOSuOptStrategy(),
        "OPT-IO-CPU": lambda seed=0: OptIOCpuStrategy(),
    }


#: Lazily built registry of strategy factories keyed by paper name.
STRATEGIES: Dict[str, Callable[..., LoadBalancingStrategy]] = {}


def _ensure_registry() -> None:
    if not STRATEGIES:
        STRATEGIES.update(_registry())


def strategy_names() -> List[str]:
    """All registered strategy names, in a stable order."""
    _ensure_registry()
    return list(STRATEGIES)


def make_strategy(name: str, seed: int = 0) -> LoadBalancingStrategy:
    """Instantiate a strategy by its paper name (e.g. ``"OPT-IO-CPU"``)."""
    _ensure_registry()
    try:
        factory = STRATEGIES[name]
    except KeyError:
        known = ", ".join(strategy_names())
        raise KeyError(f"unknown strategy {name!r}; known strategies: {known}") from None
    return factory(seed=seed)
