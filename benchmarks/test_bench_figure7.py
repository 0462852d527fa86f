"""Benchmark: Fig. 7 — memory/disk-bound environment."""

from conftest import bench_joins, bench_time_limit, bench_runner, write_report

from repro.experiments.base import run_scenario
from repro.experiments.figure7 import degree_table

SIZES = (20, 40, 60, 80)


def _run():
    return run_scenario(
        "figure7",
        bench_runner(),
        system_sizes=SIZES,
        arrival_rates=(0.05, 0.025),
        measured_joins=bench_joins(25),
        max_simulated_time=bench_time_limit(90.0),
    )


def test_figure7_memory_bound(benchmark):
    experiment = benchmark.pedantic(_run, iterations=1, rounds=1)
    write_report("figure7", experiment.table() + "\n\n" + degree_table(experiment))

    def point(series, x):
        return experiment.value(series, x)

    # With tiny buffers MIN-IO-SUOPT raises the degree of parallelism with the
    # system size to minimise overflow I/O, while pmu-cpu+LUM (CPU is idle)
    # sticks to roughly psu-opt.
    suopt_80 = point("MIN-IO-SUOPT @0.05 QPS/PE", 80)
    pmu_80 = point("pmu_cpu+LUM @0.05 QPS/PE", 80)
    assert suopt_80.result.average_degree >= pmu_80.result.average_degree

    # The extra parallelism pays off: comparable temporary I/O per query and a
    # response time at least as good (the paper's Fig. 7 shows a clear win; the
    # short benchmark runs leave some noise, hence the tolerances).
    assert (
        suopt_80.result.average_overflow_pages
        <= pmu_80.result.average_overflow_pages * 1.25 + 5
    )
    assert suopt_80.result.join_response_time <= pmu_80.result.join_response_time * 1.25
    suopt_60 = point("MIN-IO-SUOPT @0.05 QPS/PE", 60)
    pmu_60 = point("pmu_cpu+LUM @0.05 QPS/PE", 60)
    assert suopt_60.result.join_response_time <= pmu_60.result.join_response_time * 1.05

    # The environment really is memory-bound, not CPU-bound.
    assert pmu_80.result.cpu_utilization < 0.5
