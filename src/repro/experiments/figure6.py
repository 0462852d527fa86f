"""Fig. 6: dynamic degree of join parallelism, homogeneous workload.

Same workload as Fig. 5 (0.25 QPS/PE, 1 % selectivity) but with strategies
that determine the number of join processors dynamically: the isolated
pmu-cpu policy (with RANDOM or LUM placement) and the three integrated
strategies MIN-IO, MIN-IO-SUOPT and OPT-IO-CPU.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import PAPER_SYSTEM_SIZES
from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = ["build_spec", "STRATEGIES"]

STRATEGIES = (
    "MIN-IO",
    "MIN-IO-SUOPT",
    "pmu_cpu+RANDOM",
    "pmu_cpu+LUM",
    "OPT-IO-CPU",
)


def build_spec(
    system_sizes: Sequence[int] = PAPER_SYSTEM_SIZES,
    strategies: Sequence[str] = STRATEGIES,
    measured_joins: Optional[int] = None,
    max_simulated_time: Optional[float] = None,
    include_single_user: bool = True,
) -> ScenarioSpec:
    """Declare Fig. 6 as a scenario spec."""
    sweeps = [
        Sweep(
            kind="multi",
            scenario="homogeneous",
            strategies=tuple(strategies),
            system_sizes=tuple(system_sizes),
        )
    ]
    if include_single_user:
        sweeps.append(
            Sweep(
                kind="single",
                scenario="homogeneous",
                strategies=("psu_opt+RANDOM",),
                system_sizes=tuple(system_sizes),
                series="single-user (psu_opt)",
                num_queries=5,
            )
        )
    return ScenarioSpec(
        name="figure6",
        title="Fig. 6: dynamic degree of join parallelism (0.25 QPS/PE, 1% selectivity)",
        x_label="# PE",
        sweeps=tuple(sweeps),
        measured_joins=measured_joins,
        max_simulated_time=max_simulated_time,
    )


register_scenario("figure6", build_spec)
