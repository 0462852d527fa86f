"""Tests for CPU servers, disk arrays and the interconnect model."""

import pytest

from repro.config import CpuConfig, DiskConfig, InstructionCosts, NetworkConfig, MS
from repro.hardware import CpuServer, DiskArray, LruCache, Network, PRIORITY_OLTP, PRIORITY_QUERY
from repro.sim import Environment


# -- CPU -----------------------------------------------------------------------
def test_cpu_consume_takes_expected_time():
    env = Environment()
    cpu = CpuServer(env, CpuConfig(mips=20), InstructionCosts(), pe_id=0)
    done = []

    def work():
        yield from cpu.consume(50_000)
        done.append(env.now)

    env.process(work())
    env.run()
    assert done == [pytest.approx(2.5 * MS)]
    assert cpu.total_instructions == 50_000


def test_cpu_requests_are_serialised():
    env = Environment()
    cpu = CpuServer(env, CpuConfig(mips=20, cpus_per_pe=1), InstructionCosts())
    done = []

    def work(name):
        yield from cpu.consume(20_000)
        done.append((name, env.now))

    env.process(work("a"))
    env.process(work("b"))
    env.run()
    assert done[0][1] == pytest.approx(1.0 * MS)
    assert done[1][1] == pytest.approx(2.0 * MS)


def test_cpu_priority_oltp_preempts_queue_order():
    env = Environment()
    cpu = CpuServer(env, CpuConfig(mips=20), InstructionCosts())
    order = []

    def holder():
        yield from cpu.consume(100_000)
        order.append("holder")

    def query():
        yield env.timeout(0.001)
        yield from cpu.consume(10_000, priority=PRIORITY_QUERY)
        order.append("query")

    def oltp():
        yield env.timeout(0.002)
        yield from cpu.consume(10_000, priority=PRIORITY_OLTP)
        order.append("oltp")

    env.process(holder())
    env.process(query())
    env.process(oltp())
    env.run()
    assert order == ["holder", "oltp", "query"]


def test_cpu_zero_instructions_is_noop():
    env = Environment()
    cpu = CpuServer(env, CpuConfig(), InstructionCosts())

    def work():
        yield from cpu.consume(0)
        yield env.timeout(1)

    env.process(work())
    env.run()
    assert cpu.total_instructions == 0


def test_cpu_windowed_utilization():
    env = Environment()
    cpu = CpuServer(env, CpuConfig(mips=20), InstructionCosts())

    def work():
        yield from cpu.consume(100_000)  # 5 ms

    env.process(work())
    env.run(until=0.010)
    utilization = cpu.close_window()
    assert utilization == pytest.approx(0.5, rel=1e-6)
    # A second, idle window reports zero.
    env.run(until=0.020)
    assert cpu.close_window() == pytest.approx(0.0)
    assert cpu.recent_utilization == pytest.approx(0.0)


def test_cpu_overfull_window_is_logged_not_hidden(caplog):
    """A windowed utilisation beyond 1.0 means the busy-time accounting
    double-counted; it must be reported loudly, not silently clamped."""
    import logging

    env = Environment()
    cpu = CpuServer(env, CpuConfig(mips=20), InstructionCosts())

    def work():
        yield from cpu.consume(100_000)

    env.process(work())
    env.run(until=0.010)
    # Simulate a double-count: pretend the window started with less busy
    # time than was actually accumulated before it.
    cpu._window_start_busy = -0.010
    with caplog.at_level(logging.WARNING, logger="repro.hardware.cpu"):
        utilization = cpu.close_window()
    assert utilization == 1.0  # still clamped for downstream consumers
    assert any("exceeds 1.0" in record.message for record in caplog.records)

    # Rounding-level excursions stay quiet.
    env.run(until=0.020)

    def work2():
        yield from cpu.consume(200_000)

    env.process(work2())
    env.run(until=0.030)
    cpu._window_start_busy -= 1e-12  # sub-slack nudge over the boundary
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.hardware.cpu"):
        cpu.close_window()
    assert not caplog.records


# -- LRU cache -------------------------------------------------------------------
def test_lru_cache_hit_and_miss():
    cache = LruCache(capacity=2)
    assert cache.access("p1") is False
    assert cache.access("p1") is True
    assert cache.access("p2") is False
    assert cache.access("p3") is False  # evicts p1
    assert cache.access("p1") is False
    assert cache.hit_ratio == pytest.approx(1 / 5)


def test_lru_cache_zero_capacity_never_hits():
    cache = LruCache(capacity=0)
    assert cache.access("p") is False
    assert cache.access("p") is False
    assert len(cache) == 0


def test_lru_cache_insert_moves_to_end():
    cache = LruCache(capacity=2)
    cache.insert("a")
    cache.insert("b")
    cache.insert("a")  # refresh
    cache.insert("c")  # evicts b
    assert "a" in cache
    assert "b" not in cache
    assert "c" in cache


def test_lru_cache_negative_capacity_rejected():
    with pytest.raises(ValueError):
        LruCache(capacity=-1)


# -- Disk array -------------------------------------------------------------------
def test_sequential_read_uses_prefetching():
    env = Environment()
    disks = DiskArray(env, DiskConfig(disks_per_pe=1), pe_id=0)
    done = []

    def io():
        yield from disks.read_sequential(4)
        done.append(env.now)

    env.process(io())
    env.run()
    # One physical I/O: 15 + 4*1 = 19 ms disk + 4 * 1.4 ms controller.
    assert done == [pytest.approx(19 * MS + 4 * 1.4 * MS)]
    assert disks.physical_ios == 1
    assert disks.pages_read == 4


def test_sequential_read_splits_into_prefetch_chunks():
    env = Environment()
    disks = DiskArray(env, DiskConfig(disks_per_pe=1), pe_id=0)

    def io():
        yield from disks.read_sequential(10)

    env.process(io())
    env.run()
    assert disks.physical_ios == 3  # 4 + 4 + 2 pages


def test_random_read_cache_hit_skips_disk():
    env = Environment()
    disks = DiskArray(env, DiskConfig(disks_per_pe=1), pe_id=0)
    times = []

    def io():
        yield from disks.read_random(page_key="p1")
        times.append(env.now)
        yield from disks.read_random(page_key="p1")
        times.append(env.now)

    env.process(io())
    env.run()
    first_duration = times[0]
    second_duration = times[1] - times[0]
    assert second_duration < first_duration
    assert disks.physical_ios == 1


def test_disk_array_balances_across_disks():
    env = Environment()
    disks = DiskArray(env, DiskConfig(disks_per_pe=2), pe_id=0)
    done = []

    def io(name):
        yield from disks.read_sequential(4)
        done.append((name, env.now))

    env.process(io("a"))
    env.process(io("b"))
    env.run()
    # With two disks both I/Os proceed in parallel on the disk (controller still shared).
    assert done[0][1] < 2 * (19 * MS + 4 * 1.4 * MS)


def test_disk_utilization_accounting():
    env = Environment()
    disks = DiskArray(env, DiskConfig(disks_per_pe=1), pe_id=0)
    snapshot = disks.snapshot()

    def io():
        yield from disks.write_sequential(4)

    env.process(io())
    env.run(until=0.1)
    assert 0.0 < disks.utilization_since(snapshot, disks.snapshot()) < 1.0
    assert disks.pages_written == 4


def test_zero_page_requests_are_noops():
    env = Environment()
    disks = DiskArray(env, DiskConfig(disks_per_pe=1), pe_id=0)

    def io():
        yield from disks.read_sequential(0)
        yield from disks.write_sequential(0)
        yield env.timeout(1)

    env.process(io())
    env.run()
    assert disks.physical_ios == 0


# -- Network -----------------------------------------------------------------------
def test_network_packet_counts():
    env = Environment()
    net = Network(env, NetworkConfig(), InstructionCosts())
    assert net.packets_for(100) == 1
    assert net.packets_for(8_192) == 1
    assert net.packets_for(8_193) == 2
    assert net.packets_for_tuples(0, 400) == 0
    assert net.packets_for_tuples(21, 400) == 2  # 8 400 bytes -> 2 packets


def test_network_cpu_costs_scale_with_packets():
    env = Environment()
    costs = InstructionCosts()
    net = Network(env, NetworkConfig(), costs)
    one_packet = net.send_instructions(1_000)
    two_packets = net.send_instructions(10_000)
    assert one_packet == costs.send_message + costs.copy_message_packet
    assert two_packets == 2 * one_packet
    assert net.receive_instructions(1_000) == costs.receive_message + costs.copy_message_packet


def test_network_transfer_advances_time_and_counts():
    env = Environment()
    net = Network(env, NetworkConfig(), InstructionCosts())
    done = []

    def xfer():
        yield from net.transfer(20_000)
        done.append(env.now)

    env.process(xfer())
    env.run()
    assert done[0] > 0
    assert net.messages_sent == 1
    assert net.packets_sent == 3
    assert net.bytes_sent == 20_000


def test_single_rack_network_does_not_walk_destinations():
    class Unwalkable:
        def __iter__(self):
            raise AssertionError("walked the destination list")

    net = Network(Environment(), NetworkConfig(), InstructionCosts())
    expected = NetworkConfig().transfer_time(4096)
    assert net.transfer_time(4096, src=0, dst=Unwalkable()) == expected


def test_network_contention_mode_serialises_when_saturated():
    env = Environment()
    net = Network(env, NetworkConfig(), InstructionCosts(), model_contention=True, link_capacity=1)
    done = []

    def xfer(name):
        yield from net.transfer(8_192)
        done.append((name, env.now))

    env.process(xfer("a"))
    env.process(xfer("b"))
    env.run()
    assert done[1][1] == pytest.approx(2 * done[0][1])
