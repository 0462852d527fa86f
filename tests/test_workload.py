"""Tests for query classes, routing, arrival generation, TPC-B profile and traces."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import InstructionCosts, OltpConfig, SystemConfig
from repro.sim import Environment
from repro.workload import (
    AffinityRouter,
    DeterministicArrivals,
    JoinQuery,
    OltpTransaction,
    RandomRouter,
    Trace,
    TraceReplayer,
    WorkloadClass,
    WorkloadGenerator,
    WorkloadSpec,
    build_cost_profile,
    generate_trace,
)


# -- query classes ---------------------------------------------------------------
def test_transaction_ids_are_unique():
    q1 = JoinQuery()
    q2 = JoinQuery()
    assert q1.txn_id != q2.txn_id


# -- routers ----------------------------------------------------------------------
def test_random_router_covers_candidates():
    router = RandomRouter(pe_ids=[1, 2, 3], seed=1)
    seen = {router.route(JoinQuery()) for _ in range(200)}
    assert seen == {1, 2, 3}


def test_random_router_is_deterministic_per_seed():
    seq1 = [RandomRouter([0, 1, 2, 3], seed=9).route(JoinQuery()) for _ in range(5)]
    seq2 = [RandomRouter([0, 1, 2, 3], seed=9).route(JoinQuery()) for _ in range(5)]
    assert seq1 == seq2


def test_random_router_requires_pes():
    with pytest.raises(ValueError):
        RandomRouter([])


def test_affinity_router_keeps_oltp_local():
    router = AffinityRouter(oltp_pe_ids=[0, 1], all_pe_ids=list(range(10)), seed=3)
    txn = OltpTransaction(home_pe=1)
    assert router.route(txn) == 1
    # OLTP without a pre-assigned home gets one of the OLTP nodes.
    other = OltpTransaction()
    assert router.route(other) in {0, 1}
    assert other.home_pe in {0, 1}
    # Joins may land anywhere.
    join_targets = {router.route(JoinQuery()) for _ in range(100)}
    assert join_targets - {0, 1}


# -- workload spec / generator -------------------------------------------------------
def test_homogeneous_join_spec_rate_scales_with_system_size():
    small = WorkloadSpec.homogeneous_join(SystemConfig(num_pe=10))
    large = WorkloadSpec.homogeneous_join(SystemConfig(num_pe=80))
    assert small.classes[0].arrival_rate == pytest.approx(2.5)
    assert large.classes[0].arrival_rate == pytest.approx(20.0)


def test_mixed_spec_requires_oltp_config():
    with pytest.raises(ValueError):
        WorkloadSpec.mixed_join_oltp(SystemConfig(num_pe=10))


def test_mixed_spec_oltp_rate_uses_node_count():
    config = SystemConfig(num_pe=40, oltp=OltpConfig(placement="A", arrival_rate_per_node=100))
    spec = WorkloadSpec.mixed_join_oltp(config)
    names = {cls.name: cls for cls in spec.classes}
    assert names["oltp"].arrival_rate == pytest.approx(100 * config.a_node_count)
    assert names["join"].arrival_rate == pytest.approx(0.25 * 40)


def test_generator_produces_expected_count_for_deterministic_arrivals():
    env = Environment()
    produced = []

    spec = WorkloadSpec(seed=1)
    spec.add(
        WorkloadClass(
            name="join",
            factory=JoinQuery,
            arrival_rate=10.0,
            arrival=DeterministicArrivals(10.0),
        )
    )
    generator = WorkloadGenerator(env, spec, produced.append)
    generator.start()
    env.run(until=1.0)
    assert len(produced) == 10
    assert all(isinstance(txn, JoinQuery) for txn in produced)
    assert produced[0].arrival_time == pytest.approx(0.1)


def test_generator_poisson_rate_is_roughly_right():
    env = Environment()
    produced = []
    spec = WorkloadSpec(seed=7)
    spec.add(WorkloadClass(name="join", factory=JoinQuery, arrival_rate=50.0))
    WorkloadGenerator(env, spec, produced.append).start()
    env.run(until=20.0)
    # 1000 expected; allow generous tolerance for randomness.
    assert 800 <= len(produced) <= 1200


def test_generator_zero_rate_produces_nothing():
    env = Environment()
    produced = []
    spec = WorkloadSpec()
    spec.add(WorkloadClass(name="idle", factory=JoinQuery, arrival_rate=0.0))
    WorkloadGenerator(env, spec, produced.append).start()
    env.run(until=10.0)
    assert produced == []


# -- TPC-B profile ---------------------------------------------------------------------
def test_oltp_cost_profile_structure():
    profile = build_cost_profile(OltpConfig(), InstructionCosts())
    assert profile.page_reads == 4 * 3
    assert profile.cpu_instructions > 50_000
    assert 0 < profile.buffer_hit_ratio < 1  # some page reads go to disk
    assert profile.log_writes == 1


def test_oltp_cost_profile_scales_with_accesses():
    small = build_cost_profile(OltpConfig(tuple_accesses=2), InstructionCosts())
    large = build_cost_profile(OltpConfig(tuple_accesses=8), InstructionCosts())
    assert large.cpu_instructions > small.cpu_instructions
    assert large.page_reads == 4 * small.page_reads


# -- traces ----------------------------------------------------------------------------
def test_generate_trace_is_sorted_and_bounded():
    spec = WorkloadSpec.homogeneous_join(SystemConfig(num_pe=20))
    trace = generate_trace(spec, duration=10.0)
    times = [record.arrival_time for record in trace]
    assert times == sorted(times)
    assert all(0 < t <= 10.0 for t in times)
    assert trace.duration <= 10.0
    assert {record.class_name for record in trace} == {"join"}


def test_generate_trace_deterministic_for_seed():
    spec = WorkloadSpec.homogeneous_join(SystemConfig(num_pe=20))
    t1 = generate_trace(spec, duration=5.0, seed=3)
    t2 = generate_trace(spec, duration=5.0, seed=3)
    assert [r.arrival_time for r in t1] == [r.arrival_time for r in t2]


def test_trace_replayer_submits_all_records():
    env = Environment()
    spec = WorkloadSpec.homogeneous_join(SystemConfig(num_pe=10))
    trace = generate_trace(spec, duration=4.0, seed=11)
    received = []
    replayer = TraceReplayer(env, spec, trace, received.append)
    replayer.start()
    env.run()
    assert len(received) == len(trace)
    assert all(txn.arrival_time > 0 for txn in received)


def test_trace_replayer_unknown_class_raises():
    env = Environment()
    spec = WorkloadSpec.homogeneous_join(SystemConfig(num_pe=10))
    bad_trace = Trace(records=[])
    from repro.workload import TraceRecord

    bad_trace.records.append(TraceRecord(arrival_time=0.5, class_name="nope"))
    replayer = TraceReplayer(env, spec, bad_trace, lambda txn: None)
    replayer.start()
    with pytest.raises(KeyError):
        env.run()


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(min_value=0.5, max_value=50.0), duration=st.floats(min_value=1.0, max_value=20.0))
def test_trace_length_close_to_expectation(rate, duration):
    spec = WorkloadSpec(seed=5)
    spec.add(
        WorkloadClass(
            name="c", factory=JoinQuery, arrival_rate=rate, arrival=DeterministicArrivals(rate)
        )
    )
    trace = generate_trace(spec, duration=duration)
    # Floating-point accumulation may shift the last arrival across the
    # duration boundary, so allow an off-by-one.
    assert abs(len(trace) - int(rate * duration)) <= 1


# -- router coverage (PR 3) -------------------------------------------------------
def test_affinity_router_is_deterministic_per_seed():
    def routes(seed):
        router = AffinityRouter(oltp_pe_ids=[0, 1], all_pe_ids=list(range(8)), seed=seed)
        return [router.route(JoinQuery()) for _ in range(20)] + [
            router.route(OltpTransaction()) for _ in range(20)
        ]

    assert routes(5) == routes(5)
    assert routes(5) != routes(6)


def test_affinity_router_requires_oltp_pes():
    with pytest.raises(ValueError):
        AffinityRouter(oltp_pe_ids=[], all_pe_ids=[0, 1])


def test_routers_stamp_coordinator_pe():
    query = JoinQuery()
    RandomRouter([3], seed=0).route(query)
    assert query.coordinator_pe == 3
    txn = OltpTransaction(home_pe=1)
    AffinityRouter(oltp_pe_ids=[0, 1], all_pe_ids=[0, 1, 2]).route(txn)
    assert txn.coordinator_pe == 1


def test_affinity_router_fallback_covers_all_pes():
    router = AffinityRouter(oltp_pe_ids=[0], all_pe_ids=list(range(4)), seed=2)
    seen = {router.route(JoinQuery()) for _ in range(300)}
    assert seen == {0, 1, 2, 3}
