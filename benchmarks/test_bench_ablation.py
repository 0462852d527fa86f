"""Ablation benchmarks for two control parameters the paper fixes.

The paper's figures run one exponent in formula (3.2) and one adaptive
correction of the control-node data (§3.2).  These two benchmarks vary each
on a 60-PE homogeneous system running pmu_cpu+LUM, to show what the fixed
value changes:

* the CPU-reduction exponent of formula (3.2) -- how aggressively pmu-cpu
  throttles parallelism under load;
* the control node's artificial CPU increase per assigned join processor
  -- what happens when consecutive queries see stale, unadapted load data.
"""

from dataclasses import replace

from conftest import bench_joins, bench_time_limit, write_report

from repro.experiments.scenarios import homogeneous_config
from repro.scheduling import (
    DynamicCpuDegree,
    IsolatedStrategy,
    LeastUtilizedMemoryPlacement,
)
from repro.simulation.driver import SimulationDriver


def _run_with_exponent(exponent: float):
    config = homogeneous_config(60)
    config = config.with_overrides(control=replace(config.control, cpu_reduction_exponent=exponent))
    driver = SimulationDriver(config, strategy="pmu_cpu+LUM")
    return driver.run_multi_user(
        measured_joins=bench_joins(25), max_simulated_time=bench_time_limit(60.0)
    )


def _run_with_adaptation(increment: float):
    config = homogeneous_config(60)
    config = config.with_overrides(
        control=replace(config.control, adaptive_cpu_increment=increment)
    )
    strategy = IsolatedStrategy(DynamicCpuDegree(), LeastUtilizedMemoryPlacement())
    driver = SimulationDriver(config, strategy=strategy)
    return driver.run_multi_user(
        measured_joins=bench_joins(25), max_simulated_time=bench_time_limit(60.0)
    )


def test_ablation_cpu_reduction_exponent(benchmark):
    def run_all():
        return {exponent: _run_with_exponent(exponent) for exponent in (1.0, 3.0, 6.0)}

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)
    lines = ["Ablation: formula (3.2) exponent (pmu_cpu+LUM, 60 PE, 0.25 QPS/PE)"]
    for exponent, result in results.items():
        lines.append(
            f"  exponent={exponent:>3}: rt={result.join_response_time_ms:8.1f} ms  "
            f"avg degree={result.average_degree:5.1f}  cpu={result.cpu_utilization:4.2f}"
        )
    write_report("ablation_exponent", "\n".join(lines))
    # A lower exponent throttles parallelism earlier -> smaller average degree.
    assert results[1.0].average_degree <= results[6.0].average_degree


def test_ablation_control_adaptation(benchmark):
    def run_all():
        return {increment: _run_with_adaptation(increment) for increment in (0.0, 0.05)}

    results = benchmark.pedantic(run_all, iterations=1, rounds=1)
    lines = ["Ablation: adaptive control-node correction (pmu_cpu+LUM, 60 PE)"]
    for increment, result in results.items():
        lines.append(
            f"  increment={increment:4.2f}: rt={result.join_response_time_ms:8.1f} ms  "
            f"cpu={result.cpu_utilization:4.2f}  mem={result.memory_utilization:4.2f}"
        )
    write_report("ablation_adaptation", "\n".join(lines))
    for result in results.values():
        assert result.joins_completed > 0
