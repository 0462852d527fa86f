"""Benchmark: Fig. 9a/9b — static vs. dynamic load balancing, mixed workloads."""

from conftest import bench_joins, bench_time_limit, bench_runner, write_report

from repro.experiments.base import run_scenario

SIZES = (10, 20, 40, 80)
STRATEGIES = ("psu_opt+RANDOM", "psu_noIO+RANDOM", "psu_noIO+LUM", "pmu_cpu+LUM", "OPT-IO-CPU")


def _run(placement):
    return run_scenario(
        f"figure9{placement.lower()}",
        bench_runner(),
        system_sizes=SIZES,
        strategies=STRATEGIES,
        measured_joins=bench_joins(20),
        max_simulated_time=bench_time_limit(40.0),
    )


def test_figure9a_oltp_on_a_nodes(benchmark):
    experiment = benchmark.pedantic(lambda: _run("A"), iterations=1, rounds=1)
    write_report("figure9a", experiment.table())

    def rt(series, x):
        return experiment.value(series, x).result.join_response_time

    # Dynamic, integrated load balancing (OPT-IO-CPU) beats the static RANDOM
    # schemes, which blindly put join work on the OLTP nodes.
    assert rt("OPT-IO-CPU", 80) < rt("psu_opt+RANDOM", 80)
    assert rt("OPT-IO-CPU", 20) < rt("psu_opt+RANDOM", 20)

    # The paper's key ablation: the isolated pmu_cpu+LUM strategy suffers at
    # smaller systems because it ignores memory when sizing the join, while
    # the integrated OPT-IO-CPU avoids the OLTP nodes.
    assert rt("OPT-IO-CPU", 20) <= rt("pmu_cpu+LUM", 20)


def test_figure9b_oltp_on_b_nodes(benchmark):
    experiment = benchmark.pedantic(lambda: _run("B"), iterations=1, rounds=1)
    write_report("figure9b", experiment.table())

    def rt(series, x):
        return experiment.value(series, x).result.join_response_time

    # With the four-fold OLTP throughput the static RANDOM schemes degrade
    # most; memory-aware selection (LUM / integrated) is clearly better.
    assert rt("psu_noIO+LUM", 80) < rt("psu_opt+RANDOM", 80)
    assert rt("psu_noIO+LUM", 80) < rt("psu_noIO+RANDOM", 80)
    best_dynamic = min(rt("pmu_cpu+LUM", 80), rt("OPT-IO-CPU", 80))
    assert best_dynamic < rt("psu_opt+RANDOM", 80)
