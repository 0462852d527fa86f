"""Fig. 8: influence of join complexity.

At a constant system size of 60 PE the scan selectivity is varied between
0.1 % and 5 % (and the per-selectivity arrival rate adjusted so that at least
one resource is highly utilised).  The figure reports the *relative response
time improvement* of the dynamic strategies over the static baseline
psu-opt + RANDOM.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import ExperimentResult
from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = ["build_spec", "STRATEGIES", "SELECTIVITIES", "improvement_table"]

STRATEGIES = (
    "psu_noIO+LUM",
    "MIN-IO-SUOPT",
    "MIN-IO",
    "pmu_cpu+LUM",
    "OPT-IO-CPU",
)
BASELINE = "psu_opt+RANDOM"
SELECTIVITIES = (0.001, 0.01, 0.02, 0.05)


def improvement_table(experiment: ExperimentResult) -> str:
    """Relative response-time improvement (%) versus psu-opt + RANDOM."""
    strategies = [name for name in experiment.series_names() if name != BASELINE]
    lines = [
        "Fig. 8: relative response time improvement vs psu_opt+RANDOM [%]",
        f"{'selectivity %':>14} | " + " | ".join(f"{name:>14}" for name in strategies),
    ]
    lines.append("-" * len(lines[-1]))
    for x in experiment.x_values():
        baseline = experiment.value(BASELINE, x)
        if baseline is None or baseline.result.join_response_time <= 0:
            continue
        cells = []
        for name in strategies:
            point = experiment.value(name, x)
            if point is None:
                cells.append(" " * 14)
                continue
            improvement = 100.0 * (
                1.0 - point.result.join_response_time / baseline.result.join_response_time
            )
            cells.append(f"{improvement:>14.1f}")
        lines.append(f"{x:>14g} | " + " | ".join(cells))
    return "\n".join(lines)


def build_spec(
    selectivities: Sequence[float] = SELECTIVITIES,
    strategies: Sequence[str] = STRATEGIES,
    num_pe: int = 60,
    measured_joins: Optional[int] = None,
    max_simulated_time: Optional[float] = None,
) -> ScenarioSpec:
    """Declare Fig. 8 as a scenario spec (baseline first, then strategies)."""
    common = dict(
        kind="multi",
        scenario="join-complexity",
        system_sizes=(num_pe,),
        selectivities=tuple(selectivities),
        x_axis="selectivity_pct",
    )
    sweeps = (
        Sweep(strategies=(BASELINE,), **common),
        Sweep(strategies=tuple(strategies), **common),
    )
    return ScenarioSpec(
        name="figure8",
        title=f"Fig. 8: influence of join complexity ({num_pe} PE, selectivity sweep)",
        x_label="selectivity %",
        sweeps=sweeps,
        measured_joins=measured_joins,
        max_simulated_time=max_simulated_time,
        extra_tables=(improvement_table,),
    )


register_scenario("figure8", build_spec)
