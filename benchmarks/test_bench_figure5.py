"""Benchmark: Fig. 5 — static degree of join parallelism (homogeneous load)."""

from conftest import bench_joins, bench_time_limit, bench_runner, write_report

from repro.experiments.base import run_scenario

SIZES = (10, 20, 40, 60, 80)


def _run():
    return run_scenario(
        "figure5",
        bench_runner(),
        system_sizes=SIZES,
        measured_joins=bench_joins(30),
        max_simulated_time=bench_time_limit(60.0),
    )


def test_figure5_static_degree(benchmark):
    experiment = benchmark.pedantic(_run, iterations=1, rounds=1)
    write_report("figure5", experiment.table())

    def rt(series, x):
        return experiment.value(series, x).result.join_response_time

    # Single-user mode is the lower bound everywhere.
    for x in SIZES:
        assert rt("single-user (psu_opt)", x) <= rt("psu_opt+RANDOM", x)

    # At small system sizes the psu-opt strategies are close to single-user
    # and better than the low-parallelism psu-noIO schemes.
    assert rt("psu_opt+LUM", 20) < rt("psu_noIO+RANDOM", 20)

    # At 80 PE CPU contention dominates: psu-noIO+LUM overtakes the psu-opt
    # schemes (the paper's crossover beyond ~60 PE).
    assert rt("psu_noIO+LUM", 80) < rt("psu_opt+RANDOM", 80)

    # RANDOM selection is the worst placement for the small static degree.
    assert rt("psu_noIO+LUM", 80) < rt("psu_noIO+RANDOM", 80)
