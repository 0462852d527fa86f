"""Integration tests: the full system executing joins and OLTP transactions."""

import json

import pytest

from repro import (
    OltpConfig,
    ParallelSystem,
    SimulationDriver,
    SystemConfig,
    WorkloadSpec,
    make_strategy,
)
from repro.simulation.results import SimulationResult
from repro.workload import JoinQuery, OltpTransaction


def small_config(**overrides):
    return SystemConfig(num_pe=10, **overrides)


# -- ParallelSystem ----------------------------------------------------------------------
def test_system_builds_all_components():
    system = ParallelSystem(small_config(), strategy="OPT-IO-CPU")
    assert len(system.pes) == 10
    assert "A" in system.catalog
    assert "B" in system.catalog
    assert system.strategy.name == "OPT-IO-CPU"
    assert "OPT-IO-CPU" in system.describe()


def test_system_accepts_strategy_instance():
    strategy = make_strategy("pmu_cpu+LUM")
    system = ParallelSystem(small_config(), strategy=strategy)
    assert system.strategy is strategy


def test_system_rejects_unknown_transaction_type():
    from repro.workload import Transaction

    system = ParallelSystem(small_config())
    with pytest.raises(TypeError, match="unsupported transaction type: Transaction"):
        system.submit(Transaction())


def test_single_join_query_completes(record_calls):
    from repro.execution import parallel_join

    commits = record_calls(parallel_join, "run_commit")
    system = ParallelSystem(small_config(), strategy="psu_opt+RANDOM")
    plans = record_calls(system.faults, "note_plan")
    query = JoinQuery(scan_selectivity=0.01)
    query.arrival_time = 0.0
    system.submit(query)
    system.env.run(until=30)
    assert system.metrics.joins_completed == 1
    assert system.metrics.join_response_times.mean > 0
    # One plan, and the recorded degree is the number of processors it chose.
    [(planned, processors)] = plans
    assert planned is query
    assert system.metrics.join_degrees.mean == len(processors) >= 1
    # All buffers are returned after the query finishes.
    assert all(pe.buffer.free_pages == pe.buffer.total_pages for pe in system.pes)
    # One read-only commit round.
    assert len(commits) == 1


def test_single_oltp_transaction_completes():
    config = small_config(oltp=OltpConfig(placement="A"))
    system = ParallelSystem(config, strategy="OPT-IO-CPU")
    txn = OltpTransaction()
    txn.arrival_time = 0.0
    system.submit(txn)
    system.env.run(until=10)
    assert system.metrics.oltp_completed == 1
    home = system.pes[txn.home_pe]
    # The transaction ran on its home PE and nowhere else.
    assert [pe for pe in system.pes if pe.cpu.resource.busy_time() > 0] == [home]
    assert home.buffer._oltp_pages > 0
    # OLTP runs on an A node under placement "A".
    assert txn.home_pe in config.a_node_ids


def test_locks_are_released_after_join():
    system = ParallelSystem(small_config(), strategy="psu_noIO+LUM")
    query = JoinQuery()
    system.submit(query)
    system.env.run(until=30)
    assert system.metrics.joins_completed == 1
    assert all(pe.locks._table == {} for pe in system.pes)


def test_concurrent_joins_all_complete():
    system = ParallelSystem(small_config(), strategy="pmu_cpu+LUM")
    queries = [JoinQuery(arrival_time=0.05 * index) for index in range(5)]

    def submit_all():
        for query in queries:
            delay = query.arrival_time - system.env.now
            if delay > 0:
                yield system.env.timeout(delay)
            system.submit(query)

    system.env.process(submit_all())
    system.env.run(until=60)
    assert system.metrics.joins_completed == 5
    assert system.metrics.join_response_times.mean > 0


# -- SimulationDriver -----------------------------------------------------------------------
def test_single_user_mode_runs_sequentially():
    driver = SimulationDriver(small_config(), strategy="psu_opt+RANDOM")
    result = driver.run_single_user(num_queries=3)
    assert result.mode == "single-user"
    assert result.joins_completed == 3
    assert result.join_response_time > 0
    # In single-user mode memory is plentiful: no temporary file I/O.
    assert result.average_overflow_pages == 0
    assert result.cpu_utilization < 0.5


def test_multi_user_mode_measures_after_warmup():
    driver = SimulationDriver(small_config(), strategy="OPT-IO-CPU")
    result = driver.run_multi_user(warmup_joins=2, measured_joins=10, max_simulated_time=60)
    assert result.mode == "multi-user"
    assert result.joins_completed >= 10
    assert result.join_response_time > 0
    assert 0 < result.cpu_utilization <= 1
    assert result.join_throughput > 0
    assert result.simulated_seconds > 0


def test_multi_user_mixed_workload_runs_oltp_and_joins():
    config = SystemConfig(
        num_pe=10,
        oltp=OltpConfig(placement="B", arrival_rate_per_node=50),
    )
    driver = SimulationDriver(config, strategy="OPT-IO-CPU")
    result = driver.run_multi_user(warmup_joins=2, measured_joins=8, max_simulated_time=60)
    assert result.oltp_completed > 0
    assert result.oltp_response_time > 0
    assert result.joins_completed >= 8


def test_multi_user_respects_time_limit():
    config = SystemConfig(num_pe=10)
    driver = SimulationDriver(config, strategy="psu_opt+RANDOM")
    result = driver.run_multi_user(warmup_joins=0, measured_joins=10_000, max_simulated_time=5.0)
    assert driver.env.now <= 5.0 + 1e-6
    assert result.joins_completed < 10_000


def test_result_serialisation_round_trip():
    driver = SimulationDriver(small_config(), strategy="pmu_cpu+LUM")
    result = driver.run_multi_user(warmup_joins=1, measured_joins=5, max_simulated_time=30)
    data = result.report_dict()
    assert data["strategy"] == "pmu_cpu+LUM"
    assert data["num_pe"] == 10
    assert data["join_rt_ms"] == pytest.approx(result.join_response_time * 1e3, rel=1e-3)
    assert "cpu_util" in data
    line = result.row()
    assert "pmu_cpu+LUM" in line
    # Lossless JSON round-trip (what the parallel runner and cache rely on).
    restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored == result


def test_workload_spec_driven_run():
    config = SystemConfig(num_pe=10)
    driver = SimulationDriver(config, strategy="MIN-IO")
    spec = WorkloadSpec.homogeneous_join(config, arrival_rate_per_pe=0.1)
    result = driver.run_multi_user(spec=spec, warmup_joins=1, measured_joins=5, max_simulated_time=120)
    assert result.joins_completed >= 5
    assert result.average_degree >= 1


def test_strategies_differ_under_load():
    """Different strategies must actually produce different chosen degrees."""
    degrees = {}
    for name in ("psu_noIO+LUM", "psu_opt+RANDOM"):
        driver = SimulationDriver(SystemConfig(num_pe=20), strategy=name)
        result = driver.run_multi_user(warmup_joins=2, measured_joins=10, max_simulated_time=60)
        degrees[name] = result.average_degree
    assert degrees["psu_noIO+LUM"] < degrees["psu_opt+RANDOM"]
