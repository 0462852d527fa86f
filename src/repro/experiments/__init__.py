"""Reproduction of the paper's evaluation section, one module per figure.

Each figure module declares its sweep as a :class:`repro.runner.ScenarioSpec`
registered by name in :mod:`repro.runner.registry`;
:func:`~repro.experiments.base.run_scenario` runs any of them by name.
Importing this package populates the scenario registry.
"""

from repro.experiments import (
    dynamic,
    faults,
    figure1,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    heterogeneous,
    replication,
    table_parameters,
)
from repro.experiments.base import (
    PAPER_SYSTEM_SIZES,
    AggregatedExperimentResult,
    AggregatedPoint,
    ExperimentPoint,
    ExperimentResult,
    default_measured_joins,
    default_time_limit,
)
from repro.experiments.export import collect_rows, export_rows
from repro.experiments.scenarios import (
    homogeneous_config,
    join_complexity_config,
    memory_bound_config,
    mixed_workload_config,
)
from repro.experiments.table_parameters import render as render_parameter_table

__all__ = [
    "dynamic",
    "faults",
    "figure1",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "heterogeneous",
    "replication",
    "table_parameters",
    "PAPER_SYSTEM_SIZES",
    "AggregatedExperimentResult",
    "AggregatedPoint",
    "ExperimentPoint",
    "ExperimentResult",
    "collect_rows",
    "default_measured_joins",
    "default_time_limit",
    "export_rows",
    "homogeneous_config",
    "join_complexity_config",
    "memory_bound_config",
    "mixed_workload_config",
    "render_parameter_table",
]
