"""Fig. 5: static degree of join parallelism, homogeneous workload.

Multi-user join response times (0.25 QPS per PE, 1 % scan selectivity) for a
static degree of join parallelism -- psu-noIO (= 3) or psu-opt (= 30) -- in
combination with RANDOM, LUC and LUM selection of the join processors, over
system sizes of 10 to 80 PE, plus the single-user baseline with psu-opt join
processors.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import PAPER_SYSTEM_SIZES
from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = ["build_spec", "STRATEGIES"]

STRATEGIES = (
    "psu_noIO+RANDOM",
    "psu_noIO+LUC",
    "psu_noIO+LUM",
    "psu_opt+RANDOM",
    "psu_opt+LUC",
    "psu_opt+LUM",
)


def build_spec(
    system_sizes: Sequence[int] = PAPER_SYSTEM_SIZES,
    strategies: Sequence[str] = STRATEGIES,
    measured_joins: Optional[int] = None,
    max_simulated_time: Optional[float] = None,
    include_single_user: bool = True,
) -> ScenarioSpec:
    """Declare Fig. 5 as a scenario spec."""
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
        name="figure5",
        title="Fig. 5: static degree of parallelism (multi-user join 0.25 QPS/PE, 1% selectivity)",
        x_label="# PE",
        sweeps=tuple(sweeps),
        measured_joins=measured_joins,
        max_simulated_time=max_simulated_time,
    )


register_scenario("figure5", build_spec)
