"""Benchmark: Fig. 6 — dynamic degree of join parallelism (homogeneous load)."""

from conftest import bench_joins, bench_time_limit, bench_runner, write_report

from repro.experiments.base import run_scenario

SIZES = (10, 20, 40, 60, 80)


def _run():
    return run_scenario(
        "figure6",
        bench_runner(),
        system_sizes=SIZES,
        measured_joins=bench_joins(30),
        max_simulated_time=bench_time_limit(60.0),
    )


def test_figure6_dynamic_degree(benchmark):
    experiment = benchmark.pedantic(_run, iterations=1, rounds=1)
    write_report("figure6", experiment.table())

    def rt(series, x):
        return experiment.value(series, x).result.join_response_time

    # The CPU-aware strategies stay closest to single-user mode at 80 PE and
    # beat the purely memory-driven integrated schemes (the paper's main
    # finding for homogeneous workloads).
    best_cpu_aware = min(rt("pmu_cpu+LUM", 80), rt("OPT-IO-CPU", 80))
    assert best_cpu_aware <= rt("MIN-IO-SUOPT", 80) * 1.05

    # The CPU-aware strategies keep the system out of saturation at 80 PE.
    assert experiment.value("OPT-IO-CPU", 80).result.cpu_utilization < 0.85

    # MIN-IO-SUOPT drives a clearly higher degree of parallelism than OPT-IO-CPU
    # under CPU contention (it ignores the CPU bound).
    assert (
        experiment.value("MIN-IO-SUOPT", 80).result.average_degree
        >= experiment.value("OPT-IO-CPU", 80).result.average_degree
    )

    # Single-user baseline is a lower bound.
    for x in SIZES:
        assert rt("single-user (psu_opt)", x) <= rt("OPT-IO-CPU", x) * 1.2
