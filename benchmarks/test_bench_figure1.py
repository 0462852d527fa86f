"""Benchmark: Fig. 1a — single-user response time vs. degree of parallelism."""

from conftest import bench_runner, write_report

from repro.experiments.base import run_scenario


def _run():
    experiment = run_scenario(
        "figure1",
        bench_runner(),
        num_pe=80,
        degrees=(1, 2, 4, 8, 16, 30, 60, 80),
        queries_per_point=2,
    )
    return experiment


def test_figure1_response_time_curve(benchmark):
    experiment = benchmark.pedantic(_run, iterations=1, rounds=1)
    write_report("figure1", experiment.table())

    # The simulated curve must show the paper's U-shape: a low point well
    # above 1 processor and below the maximum degree.
    simulated = experiment.series("simulation")
    times = {point.x: point.result.join_response_time for point in simulated}
    best_degree = min(times, key=times.get)
    assert 4 < best_degree < 80
    assert times[1] > times[best_degree]
    assert times[80] > times[best_degree]

    # The analytic model used by the strategies agrees on the optimum region.
    analytic = experiment.series("analytic model")
    analytic_times = {point.x: point.result.join_response_time for point in analytic}
    analytic_best = min(analytic_times, key=analytic_times.get)
    assert abs(analytic_best - best_degree) <= 32
