"""Tests for operators, PPHJ and the parallel hash join execution path."""

import math

import pytest

from repro.config import SystemConfig
from repro.database import Catalog
from repro.engine import ProcessingElement
from repro.execution import (
    JoinProcessorShare,
    PPHJExecutor,
    plan_scan,
    redistribution_packets,
    scan_fragment,
)
from repro.hardware import Network
from repro.sim import Environment


def build_node(num_pe=4, buffer_pages=50, disks=2):
    from dataclasses import replace

    config = SystemConfig(num_pe=num_pe)
    config = config.with_overrides(
        buffer=replace(config.buffer, buffer_pages=buffer_pages),
        disk=replace(config.disk, disks_per_pe=disks),
    )
    env = Environment()
    pe = ProcessingElement(env, pe_id=0, config=config)
    network = Network(env, config.network, config.costs)
    return env, config, pe, network


# -- scan planning -------------------------------------------------------------------
def test_plan_scan_uses_fragment_share():
    config = SystemConfig(num_pe=40)
    catalog = Catalog.from_config(config)
    relation = catalog.relation("A")
    pe_id = relation.node_ids[0]
    work = plan_scan(relation, pe_id, selectivity=0.01, tuple_size_bytes=400)
    # 250 000 tuples over 8 A nodes -> 31 250 per node; 1 % -> ~313 matching.
    assert 310 <= work.matching_tuples <= 315
    assert work.data_pages == math.ceil(work.matching_tuples / 20)
    assert work.index_pages >= 1
    assert work.output_bytes == work.matching_tuples * 400


def test_redistribution_packet_fragmentation():
    env, config, pe, network = build_node()
    # 100 tuples of 400 B = 40 000 B: 5 packets aggregated but one per
    # destination once the output is split over many join processors.
    assert redistribution_packets(network, 40_000, 1) == 5
    assert redistribution_packets(network, 40_000, 5) == 5
    assert redistribution_packets(network, 40_000, 30) == 30
    assert redistribution_packets(network, 0, 10) == 0
    assert redistribution_packets(network, 100, 0) == 0


def disk_busy_time(pe):
    return sum(disk.busy_time() for disk in pe.disks.disks)


def test_scan_fragment_charges_cpu_and_disk(record_calls):
    env, config, pe, network = build_node()
    catalog = Catalog.from_config(config)
    relation = catalog.relation("A")
    pe_for_fragment = relation.node_ids[0]
    # Rebuild a PE with the id owning the fragment.
    pe = ProcessingElement(env, pe_id=pe_for_fragment, config=config)
    work = plan_scan(relation, pe_for_fragment, 0.01, 400)
    sent = record_calls(network, "transfer")
    done = []

    def run():
        yield from scan_fragment(pe, work, network, config.costs, destinations=3)
        done.append(env.now)

    env.process(run())
    env.run()
    assert done and done[0] > 0
    # Every page is read once, in prefetch-sized sequential I/Os.
    prefetch = pe.disks.prefetch
    chunks = [
        min(prefetch, work.total_pages - start) for start in range(0, work.total_pages, prefetch)
    ]
    assert disk_busy_time(pe) == pytest.approx(
        sum(config.disk.sequential_io_time(chunk) for chunk in chunks)
    )
    assert pe.cpu.resource.busy_time() > 0
    assert sent == [(work.output_bytes,)]


# -- PPHJ share arithmetic ---------------------------------------------------------------
def test_join_processor_share_properties():
    share = JoinProcessorShare(
        inner_tuples=833,
        outer_tuples=3_333,
        result_tuples=833,
        tuple_size_bytes=400,
        blocking_factor=20,
        fudge_factor=1.05,
    )
    assert share.inner_pages == 42
    assert share.outer_pages == 167
    assert share.hash_table_pages == 45
    assert share.num_partitions == math.ceil(math.sqrt(1.05 * 42))
    assert share.min_pages == share.num_partitions


def test_join_processor_share_empty_input():
    share = JoinProcessorShare(
        inner_tuples=0,
        outer_tuples=0,
        result_tuples=0,
        tuple_size_bytes=400,
        blocking_factor=20,
        fudge_factor=1.05,
    )
    assert share.inner_pages == 0
    assert share.hash_table_pages == 1
    assert share.min_pages >= 1


# -- PPHJ execution ------------------------------------------------------------------------
def make_executor(pe, network, config, inner=400, outer=1_600, desired=None):
    share = JoinProcessorShare(
        inner_tuples=inner,
        outer_tuples=outer,
        result_tuples=inner,
        tuple_size_bytes=400,
        blocking_factor=20,
        fudge_factor=1.05,
    )
    return PPHJExecutor(
        pe, share, network, config.costs, desired_pages=desired, inner_sources=4, outer_sources=16
    )


def run_join(executor, granted):
    """Run one join processor's share, noting its granted working space."""
    yield from executor.acquire_memory()
    granted.append(executor.working_space.pages)
    yield from executor.build_phase()
    yield from executor.probe_phase()
    executor.release_memory()


def test_pphj_no_overflow_when_memory_sufficient():
    env, config, pe, network = build_node(buffer_pages=50)
    executor = make_executor(pe, network, config, inner=400, outer=1_600)
    granted = []
    join = env.process(run_join(executor, granted))
    env.run()
    assert not join.is_alive
    assert granted[0] >= executor.share.hash_table_pages
    assert executor.overflow_pages == 0
    assert executor.memory_wait_time == 0.0
    assert disk_busy_time(pe) == 0.0  # no temporary file written or read
    assert pe.buffer.free_pages == 50


def test_pphj_overflow_when_memory_tight(record_calls):
    env, config, pe, network = build_node(buffer_pages=10)
    executor = make_executor(pe, network, config, inner=400, outer=1_600)
    writes = record_calls(pe.disks, "write_sequential")
    reads = record_calls(pe.disks, "read_sequential")
    granted = []
    env.process(run_join(executor, granted))
    env.run()
    # Hash table needs 21 pages but only 10 exist: partitions spill to disk.
    assert granted[0] <= 10
    assert executor.overflow_inner_pages > 0
    assert executor.overflow_outer_pages > 0
    # Both spills go to temporary files and the deferred join reads them back.
    assert writes == [(executor.overflow_inner_pages,), (executor.overflow_outer_pages,)]
    assert reads == [(executor.overflow_pages,)]


def test_pphj_waits_in_memory_queue():
    env, config, pe, network = build_node(buffer_pages=20)
    blocker = []

    def occupy():
        ws = yield pe.buffer.reserve("other", desired_pages=20, min_pages=20)
        blocker.append(ws)
        yield env.timeout(5.0)
        pe.buffer.release(ws)

    executor = make_executor(pe, network, config, inner=400, outer=1_600)
    finished = []

    def run():
        yield env.timeout(0.1)
        yield from executor.acquire_memory()
        finished.append(env.now)
        executor.release_memory()

    env.process(occupy())
    env.process(run())
    env.run()
    assert finished and finished[0] >= 5.0
    assert executor.memory_wait_time == pytest.approx(4.9, rel=1e-3)


def test_pphj_adapts_when_oltp_steals_pages():
    env, config, pe, network = build_node(buffer_pages=30)
    # The join grabs the whole buffer, leaving no free memory.
    executor = make_executor(pe, network, config, inner=400, outer=1_600, desired=45)
    pages = []

    def run():
        yield from executor.acquire_memory()
        pages.append(executor.working_space.pages)
        # OLTP arrives and claims its protected working set (15 pages of the
        # 30-page buffer): pages are stolen from the running join, which must
        # spool partitions to disk (PPHJ adaptation).
        pe.buffer.ensure_oltp_footprint(30)
        pages.append(executor.working_space.pages)
        yield from executor.build_phase()
        yield from executor.probe_phase()
        executor.release_memory()

    env.process(run())
    env.run()
    assert pages[1] < pages[0]
    assert executor.overflow_pages > 0


def test_pphj_receive_cost_grows_with_sources():
    env1, config1, pe1, network1 = build_node(buffer_pages=50)
    env2, config2, pe2, network2 = build_node(buffer_pages=50)
    few = PPHJExecutor(
        pe1,
        JoinProcessorShare(400, 1_600, 400, 400, 20, 1.05),
        network1,
        config1.costs,
        inner_sources=2,
        outer_sources=2,
    )
    many = PPHJExecutor(
        pe2,
        JoinProcessorShare(400, 1_600, 400, 400, 20, 1.05),
        network2,
        config2.costs,
        inner_sources=16,
        outer_sources=64,
    )

    def run(executor):
        yield from executor.acquire_memory()
        yield from executor.build_phase()
        yield from executor.probe_phase()
        executor.release_memory()

    env1.process(run(few))
    env2.process(run(many))
    env1.run()
    env2.run()
    assert pe2.cpu.resource.busy_time() > pe1.cpu.resource.busy_time()
