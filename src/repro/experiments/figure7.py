"""Fig. 7: memory/disk-bound environment.

The buffer per PE is reduced by a factor of 10 and only one disk per PE is
available for temporary files; the arrival rate is lowered (0.05 and 0.025
QPS per PE) so that the CPU utilisation stays low while buffers and the
temporary-file disk become the bottleneck.  The experiment compares
MIN-IO-SUOPT (which raises the degree of parallelism with the system size to
minimise overflow I/O) against pmu-cpu + LUM (which does not), and also
reports the average chosen degree of join parallelism, as the annotations in
the paper's figure do.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import ExperimentResult
from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = ["build_spec", "degree_table", "STRATEGIES", "SYSTEM_SIZES", "ARRIVAL_RATES"]

STRATEGIES = ("pmu_cpu+LUM", "MIN-IO-SUOPT")
SYSTEM_SIZES = (20, 30, 40, 60, 80)
ARRIVAL_RATES = (0.05, 0.025)


def degree_table(experiment: ExperimentResult) -> str:
    """The average chosen degree of join parallelism (Fig. 7 annotations)."""
    return experiment.table(metric=lambda point: point.result.average_degree, unit="join processors")


def build_spec(
    system_sizes: Sequence[int] = SYSTEM_SIZES,
    arrival_rates: Sequence[float] = ARRIVAL_RATES,
    strategies: Sequence[str] = STRATEGIES,
    measured_joins: Optional[int] = None,
    max_simulated_time: Optional[float] = None,
    include_single_user: bool = True,
) -> ScenarioSpec:
    """Declare Fig. 7 as a scenario spec."""
    sweeps = [
        Sweep(
            kind="multi",
            scenario="memory-bound",
            strategies=tuple(strategies),
            system_sizes=tuple(system_sizes),
            rates=tuple(arrival_rates),
            series="{strategy} @{rate:g} QPS/PE",
        )
    ]
    if include_single_user:
        sweeps.append(
            Sweep(
                kind="single",
                scenario="memory-bound",
                strategies=tuple(strategies),
                system_sizes=tuple(system_sizes),
                series="{strategy} single-user",
            )
        )
    return ScenarioSpec(
        name="figure7",
        title="Fig. 7: memory-bound environment (buffer/10, 1 temp disk per PE)",
        x_label="# PE",
        sweeps=tuple(sweeps),
        measured_joins=measured_joins,
        max_simulated_time=max_simulated_time,
        extra_tables=(degree_table,),
    )


register_scenario("figure7", build_spec)
