"""Tests for the metrics collector and result records."""

import pytest

from repro.config import SystemConfig
from repro.engine import ProcessingElement
from repro.metrics import MetricsCollector
from repro.sim import Environment
from repro.simulation.results import SimulationResult


def build(num_pe=2):
    env = Environment()
    config = SystemConfig(num_pe=max(num_pe, 1))
    pes = [ProcessingElement(env, pe_id=index, config=config) for index in range(num_pe)]
    return env, pes, MetricsCollector(env)


def test_record_join_and_oltp_statistics():
    env, pes, metrics = build()
    metrics.record_join(response_time=0.5, degree=10, overflow_pages=3, memory_wait=0.1)
    metrics.record_join(response_time=1.5, degree=20, overflow_pages=0, memory_wait=0.0)
    metrics.record_oltp(response_time=0.05)
    assert metrics.joins_completed == 2
    assert metrics.oltp_completed == 1
    assert metrics.join_response_times.mean == pytest.approx(1.0)
    assert metrics.join_degrees.mean == pytest.approx(15.0)
    assert metrics.join_overflow_pages.mean == pytest.approx(1.5)


def test_start_measurement_resets_counts_and_baseline():
    env, pes, metrics = build()
    metrics.record_join(1.0, 10, 0, 0.0)

    def burn():
        yield from pes[0].cpu.consume(1_000_000)

    env.process(burn())
    env.run(until=0.1)
    metrics.start_measurement(pes)
    assert metrics.joins_completed == 0
    # Work done before the measurement start must not count as utilisation.
    env.run(until=0.2)
    assert metrics.average_cpu_utilization(pes) == pytest.approx(0.0, abs=1e-6)


def test_cpu_utilization_measured_after_baseline():
    env, pes, metrics = build()
    metrics.start_measurement(pes)

    def burn():
        yield from pes[0].cpu.consume(2_000_000)  # 100 ms

    env.process(burn())
    env.run(until=0.2)
    # One of two PEs busy for half the interval -> 25 % average.
    assert metrics.average_cpu_utilization(pes) == pytest.approx(0.25, rel=0.05)
    # ... that is PE 0 busy for 100 ms of the 200 ms and PE 1 idle.
    busy = metrics.snapshot(pes).cpu_busy
    assert busy[0] == pytest.approx(0.1, rel=0.05)
    assert busy[1] == 0.0
    assert metrics.measurement_duration == pytest.approx(0.2)


def test_disk_and_memory_utilization():
    env, pes, metrics = build()
    metrics.start_measurement(pes)

    def io():
        yield from pes[0].disks.read_sequential(40)

    def reserve():
        yield pes[1].buffer.reserve("q", desired_pages=25, min_pages=25)

    env.process(io())
    env.process(reserve())
    env.run(until=0.5)
    assert metrics.average_disk_utilization(pes) > 0.0
    assert metrics.average_memory_utilization(pes) == pytest.approx(0.25, abs=0.05)


def test_empty_collector_is_safe():
    env = Environment()
    metrics = MetricsCollector(env)
    assert metrics.average_cpu_utilization([]) == 0.0
    assert metrics.average_disk_utilization([]) == 0.0
    assert metrics.average_memory_utilization([]) == 0.0


def test_simulation_result_units():
    result = SimulationResult(
        strategy="X",
        num_pe=10,
        mode="multi-user",
        simulated_seconds=12.0,
        joins_completed=30,
        join_response_time=0.75,
        join_response_time_p95=1.5,
        join_response_time_ci=0.05,
        average_degree=12.0,
        average_overflow_pages=4.0,
        average_memory_wait=0.01,
        cpu_utilization=0.6,
        disk_utilization=0.2,
        memory_utilization=0.4,
        join_throughput=2.5,
        extras={"custom": 1.23456},
    )
    assert result.join_response_time_ms == pytest.approx(750.0)
    data = result.report_dict()
    assert data["join_rt_ms"] == 750.0
    assert data["custom"] == pytest.approx(1.2346)
    assert "X" in result.row()
    # The lossless view keeps raw field names/values and the extras mapping.
    raw = result.to_dict()
    assert raw["join_response_time"] == 0.75
    assert raw["extras"] == {"custom": 1.23456}
    assert SimulationResult.from_dict(raw) == result
