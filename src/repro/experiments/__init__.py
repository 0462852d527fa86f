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
    run_point,
    run_single_user_point,
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
    "run_point",
    "run_single_user_point",
    "homogeneous_config",
    "join_complexity_config",
    "memory_bound_config",
    "mixed_workload_config",
    "render_parameter_table",
]

def _registry_run(name):
    """Back-compat run callable executing a registered scenario spec."""

    def _run(workers=1, cache=None, **kwargs):
        from repro.runner import ParallelRunner, build_scenario

        return ParallelRunner(workers=workers, cache=cache).run(build_scenario(name, **kwargs))

    _run.__name__ = f"run_{name}"
    return _run


#: Back-compat mapping derived from the scenario registry: figure name ->
#: callable returning an ExperimentResult ("parameters" is a static table,
#: not a simulated figure, hence excluded).
from repro.runner import available_scenarios as _available_scenarios

EXPERIMENTS = {
    name: _registry_run(name) for name in _available_scenarios() if name != "parameters"
}
