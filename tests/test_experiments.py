"""Tests for the experiment harness (kept small: tiny runs, shape checks)."""

import pytest

from repro.experiments import ExperimentPoint, ExperimentResult, render_parameter_table
from repro.experiments.base import (
    default_measured_joins,
    default_time_limit,
    run_point,
    run_scenario,
)
from repro.experiments.figure7 import degree_table
from repro.experiments.figure8 import improvement_table
from repro.experiments.scenarios import (
    homogeneous_config,
    join_complexity_config,
    memory_bound_config,
    mixed_workload_config,
)
from repro.simulation.results import SimulationResult


def make_result(strategy="s", rt=0.5, degree=10.0):
    return SimulationResult(
        strategy=strategy,
        num_pe=20,
        mode="multi-user",
        simulated_seconds=10.0,
        joins_completed=5,
        join_response_time=rt,
        join_response_time_p95=rt * 1.5,
        join_response_time_ci=0.01,
        average_degree=degree,
        average_overflow_pages=0.0,
        average_memory_wait=0.0,
        cpu_utilization=0.5,
        disk_utilization=0.1,
        memory_utilization=0.2,
    )


# -- scenario builders ------------------------------------------------------------
def test_homogeneous_config_overrides_rate_and_selectivity():
    config = homogeneous_config(40, scan_selectivity=0.02, arrival_rate_per_pe=0.1)
    assert config.num_pe == 40
    assert config.join_query.scan_selectivity == 0.02
    assert config.join_query.arrival_rate_per_pe == 0.1
    assert config.oltp is None


def test_memory_bound_config_shrinks_buffer_and_disks():
    config = memory_bound_config(40)
    assert config.buffer.buffer_pages == 5
    assert config.disk.disks_per_pe == 1


def test_join_complexity_config_picks_rate_per_selectivity():
    fast = join_complexity_config(0.001)
    slow = join_complexity_config(0.05)
    assert fast.join_query.arrival_rate_per_pe > slow.join_query.arrival_rate_per_pe
    custom = join_complexity_config(0.01, arrival_rate_per_pe=0.9)
    assert custom.join_query.arrival_rate_per_pe == 0.9


def test_mixed_workload_config_sets_oltp_and_disks():
    config = mixed_workload_config(40, oltp_placement="B")
    assert config.oltp is not None
    assert config.oltp.placement == "B"
    assert config.disk.disks_per_pe == 5
    assert config.join_query.arrival_rate_per_pe == pytest.approx(0.075)


# -- experiment result container -----------------------------------------------------
def test_experiment_result_table_and_lookup():
    experiment = ExperimentResult(figure="fx", title="demo", x_label="# PE")
    experiment.add(ExperimentPoint("fx", "A", 10, make_result("A", rt=0.1)))
    experiment.add(ExperimentPoint("fx", "A", 20, make_result("A", rt=0.2)))
    experiment.add(ExperimentPoint("fx", "B", 10, make_result("B", rt=0.3)))
    assert experiment.series_names() == ["A", "B"]
    assert experiment.x_values() == [10, 20]
    assert experiment.value("A", 20).result.join_response_time == pytest.approx(0.2)
    assert experiment.value("B", 20) is None
    table = experiment.table()
    assert "demo" in table
    assert "100.0" in table  # 0.1 s -> 100 ms
    rows = experiment.to_rows()
    assert len(rows) == 3
    assert rows[0]["figure"] == "fx"


def test_environment_overrides_for_run_length(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_JOINS", "17")
    monkeypatch.setenv("REPRO_BENCH_TIME_LIMIT", "33.5")
    assert default_measured_joins() == 17
    assert default_time_limit() == 33.5
    monkeypatch.setenv("REPRO_BENCH_JOINS", "not-a-number")
    assert default_measured_joins(23) == 23


# -- tiny end-to-end figure runs ---------------------------------------------------------
def test_figure1_analytic_curve_without_simulation():
    experiment = run_scenario("figure1", num_pe=40, degrees=(1, 8, 30), simulate=False)
    analytic = experiment.series("analytic model")
    assert [point.x for point in analytic] == [1, 8, 30]
    times = {p.x: p.result.join_response_time for p in analytic}
    assert times[8] < times[1]


def test_figure5_tiny_run_has_all_series():
    experiment = run_scenario(
        "figure5",
        system_sizes=(10,),
        strategies=("psu_noIO+LUM", "psu_opt+RANDOM"),
        measured_joins=5,
        max_simulated_time=30,
        include_single_user=True,
    )
    assert set(experiment.series_names()) == {
        "psu_noIO+LUM",
        "psu_opt+RANDOM",
        "single-user (psu_opt)",
    }
    assert all(point.result.joins_completed > 0 for point in experiment.points)


def test_figure6_tiny_run():
    experiment = run_scenario(
        "figure6",
        system_sizes=(10,),
        strategies=("OPT-IO-CPU",),
        measured_joins=5,
        max_simulated_time=30,
        include_single_user=False,
    )
    assert experiment.series_names() == ["OPT-IO-CPU"]
    assert experiment.points[0].result.average_degree >= 1


def test_figure7_tiny_run_and_degree_table():
    experiment = run_scenario(
        "figure7",
        system_sizes=(20,),
        arrival_rates=(0.05,),
        strategies=("MIN-IO-SUOPT",),
        measured_joins=5,
        max_simulated_time=40,
        include_single_user=False,
    )
    table = degree_table(experiment)
    assert "join processors" in table
    assert experiment.points[0].result.average_degree >= 1


def test_figure8_improvement_table_contains_baseline():
    experiment = run_scenario(
        "figure8",
        selectivities=(0.001,),
        strategies=("pmu_cpu+LUM",),
        num_pe=20,
        measured_joins=5,
        max_simulated_time=30,
    )
    assert "psu_opt+RANDOM" in experiment.series_names()
    text = improvement_table(experiment)
    assert "pmu_cpu+LUM" in text


def test_figure9_tiny_run_runs_oltp():
    experiment = run_scenario(
        "figure9a",
        system_sizes=(10,),
        strategies=("OPT-IO-CPU",),
        measured_joins=4,
        max_simulated_time=30,
    )
    point = experiment.points[0]
    assert point.result.oltp_completed > 0
    assert experiment.figure == "figure9a"


def test_run_point_respects_measured_joins():
    result = run_point(homogeneous_config(10), "OPT-IO-CPU", measured_joins=5,
                       max_simulated_time=30)
    assert result.joins_completed >= 5


def test_parameter_table_rendering():
    text = render_parameter_table()
    assert "20 MIPS" in text
    assert "250000" in text
    assert "partial declustering (80% of #PE)" in text
