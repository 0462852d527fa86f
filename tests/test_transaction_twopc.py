"""Tests for the transaction manager (MPL control) and the read-only commit."""

import pytest

from repro.config import SystemConfig
from repro.engine import ProcessingElement, TransactionManager, run_commit
from repro.hardware import Network
from repro.sim import Environment


# -- transaction manager -----------------------------------------------------------
def test_mpl_limits_concurrency():
    env = Environment()
    manager = TransactionManager(env, pe_id=0, multiprogramming_level=2)
    starts = []

    def txn(name, duration):
        yield manager.admit(name)
        starts.append((name, env.now))
        yield env.timeout(duration)
        manager.finish(name)

    for index in range(4):
        env.process(txn(f"t{index}", 10))
    env.run()
    start_times = [t for _, t in starts]
    assert start_times == [0, 0, 10, 10]
    assert manager.active_count == 0


def test_input_queue_length_visible_while_saturated():
    env = Environment()
    manager = TransactionManager(env, pe_id=0, multiprogramming_level=1)

    def txn(txn_id, duration):
        yield manager.admit(txn_id)
        yield env.timeout(duration)
        manager.finish(txn_id)

    for txn_id in range(3):
        env.process(txn(txn_id, 5))
    env.run(until=2)
    assert manager.active_count == 1
    assert manager._slots.queue_length == 2
    env.run()
    assert manager._slots.queue_length == 0


def test_invalid_mpl_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        TransactionManager(env, pe_id=0, multiprogramming_level=0)


def test_is_active_tracks_registration():
    # A transaction is active (holds an MPL slot) from admit to finish.
    env = Environment()
    manager = TransactionManager(env, pe_id=0, multiprogramming_level=4)
    events = []

    def proc():
        yield manager.admit(1)
        events.append(manager.active_count)
        manager.finish(1)
        events.append(manager.active_count)

    env.process(proc())
    env.run()
    assert events == [1, 0]


def test_purge_txn_frees_a_killed_transactions_slot_or_queue_place():
    # Fault injection kills a transaction's process, then purges its slot:
    # a held slot passes to the next waiter, a queued request is cancelled.
    env = Environment()
    manager = TransactionManager(env, pe_id=0, multiprogramming_level=1)
    starts = {}

    def txn(txn_id):
        yield manager.admit(txn_id)
        starts[txn_id] = env.now
        yield env.timeout(10)
        manager.finish(txn_id)

    processes = {txn_id: env.process(txn(txn_id)) for txn_id in (1, 2, 3)}
    env.run(until=4)  # 1 holds the slot, 2 and 3 wait
    for txn_id in (2, 1):
        processes[txn_id].kill()
        manager.purge_txn(txn_id)
    manager.purge_txn(1)  # nothing left to give back
    env.run()
    assert starts == {1: 0, 3: 4}
    assert manager.active_count == 0
    assert manager._requests == {}


# -- two-phase commit ----------------------------------------------------------------
def build_pes(count, num_pe=4):
    env = Environment()
    config = SystemConfig(num_pe=num_pe)
    pes = [ProcessingElement(env, pe_id=index, config=config) for index in range(count)]
    network = Network(env, config.network, config.costs)
    return env, config, pes, network


def test_read_only_commit_uses_single_round(record_calls):
    env, config, pes, network = build_pes(3)
    sent = record_calls(network, "transfer")
    finished = []

    def proc():
        yield from run_commit(pes[0], pes[1:], network)
        finished.append(env.now)

    env.process(proc())
    env.run()
    assert sent == [(256,)] * 4  # 2 participants x 2 messages
    assert finished[0] > 0
    # No log writes for read-only commits.
    assert all(disk.busy_time() == 0.0 for pe in pes for disk in pe.disks.disks)


def test_local_readonly_commit_is_free_of_messages(record_calls):
    env, config, pes, network = build_pes(1)
    sent = record_calls(network, "transfer")

    def proc():
        yield from run_commit(pes[0], [pes[0]], network)
        finished.append(env.now)

    finished = []
    env.process(proc())
    env.run()
    assert sent == []
    # No remote participant: the commit returns at once and uses no CPU.
    assert finished == [0.0]
    assert pes[0].cpu.resource.busy_time() == 0.0


# -- processing element composition -----------------------------------------------------
def test_processing_element_reports_utilizations():
    env = Environment()
    config = SystemConfig(num_pe=4)
    pe = ProcessingElement(env, pe_id=1, config=config)

    def work():
        yield from pe.cpu.consume(100_000)
        yield from pe.disks.read_sequential(8)

    env.process(work())
    env.run(until=0.1)
    pe.close_report_window()
    assert 0.0 < pe.recent_cpu_utilization <= 1.0
    assert 0.0 < pe.recent_disk_utilization <= 1.0
    assert pe.free_memory_pages == config.buffer.buffer_pages
    assert pe.memory_utilization == 0.0
    assert "PE 1" in pe.describe()
