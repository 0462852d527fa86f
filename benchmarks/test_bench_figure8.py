"""Benchmark: Fig. 8 — influence of join complexity (selectivity sweep)."""

from conftest import bench_joins, bench_time_limit, bench_runner, write_report

from repro.experiments.base import run_scenario
from repro.experiments.figure8 import improvement_table

SELECTIVITIES = (0.001, 0.01, 0.05)


def _run():
    return run_scenario(
        "figure8",
        bench_runner(),
        selectivities=SELECTIVITIES,
        measured_joins=bench_joins(25),
        max_simulated_time=bench_time_limit(90.0),
    )


def test_figure8_join_complexity(benchmark):
    experiment = benchmark.pedantic(_run, iterations=1, rounds=1)
    write_report("figure8", experiment.table() + "\n\n" + improvement_table(experiment))

    def rt(series, selectivity):
        return experiment.value(series, selectivity * 100).result.join_response_time

    # Dynamic strategies improve on the static psu_opt+RANDOM baseline for
    # small and medium joins, where the static degree (30) over-parallelises.
    assert rt("pmu_cpu+LUM", 0.001) < rt("psu_opt+RANDOM", 0.001)
    assert rt("OPT-IO-CPU", 0.001) < rt("psu_opt+RANDOM", 0.001)
    assert rt("OPT-IO-CPU", 0.01) < rt("psu_opt+RANDOM", 0.01)

    # For large joins the dynamic schemes still avoid temporarily overloaded
    # nodes: at least one of them beats the static baseline (the paper reports
    # ~18 % improvement; the margin here is small and noisy).
    best_large = min(rt("MIN-IO", 0.05), rt("MIN-IO-SUOPT", 0.05), rt("OPT-IO-CPU", 0.05),
                     rt("psu_noIO+LUM", 0.05))
    assert best_large < rt("psu_opt+RANDOM", 0.05)

    # The relative advantage of dynamic load balancing shrinks as the optimal
    # degree of parallelism approaches the system size (paper's conclusion).
    def improvement(series, selectivity):
        base = rt("psu_opt+RANDOM", selectivity)
        return 1.0 - rt(series, selectivity) / base

    assert improvement("OPT-IO-CPU", 0.001) > improvement("OPT-IO-CPU", 0.05) - 0.05
    best_improvement_large = max(
        improvement("MIN-IO", 0.05),
        improvement("MIN-IO-SUOPT", 0.05),
        improvement("OPT-IO-CPU", 0.05),
    )
    assert improvement("OPT-IO-CPU", 0.001) + 0.10 >= best_improvement_large
