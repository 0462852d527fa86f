"""Tests for the configuration defaults (Fig. 4 of the paper)."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro.config import (
    MS,
    CpuConfig,
    DiskConfig,
    InstructionCosts,
    JoinQueryConfig,
    NetworkConfig,
    OltpConfig,
    RelationConfig,
    SystemConfig,
)

#: The source tree of the package under test.
PACKAGE = Path(repro.__file__).parent


def test_instruction_costs_match_paper_table():
    costs = InstructionCosts()
    assert costs.initiate_transaction == 25_000
    assert costs.terminate_transaction == 25_000
    assert costs.io_operation == 3_000
    assert costs.send_message == 5_000
    assert costs.receive_message == 10_000
    assert costs.copy_message_packet == 5_000
    assert costs.read_tuple == 500
    assert costs.hash_tuple == 500
    assert costs.insert_into_hash_table == 100
    assert costs.write_tuple_to_output == 100
    assert costs.probe_hash_table == 200


def test_cpu_speed_and_service_time():
    cpu = CpuConfig()
    assert cpu.mips == 20.0
    # 20 MIPS -> 25 000 instructions take 1.25 ms.
    assert cpu.seconds_for(25_000) == pytest.approx(1.25 * MS)


def test_disk_timings_match_paper():
    disk = DiskConfig()
    assert disk.disks_per_pe == 10
    assert disk.avg_access_time == pytest.approx(15 * MS)
    assert disk.prefetch_pages == 4
    assert disk.cache_pages == 200
    # Prefetching 4 pages: 15 ms base + 4 * 1 ms = 19 ms (paper §5.1).
    assert disk.sequential_io_time(4) == pytest.approx(19 * MS)
    assert disk.random_io_time() == pytest.approx(16 * MS)
    assert disk.controller_time(1) == pytest.approx(1.4 * MS)


def test_buffer_defaults():
    config = SystemConfig()
    assert config.buffer.page_size_bytes == 8_192
    assert config.buffer.buffer_pages == 50
    assert config.buffer.buffer_bytes == 50 * 8_192


def test_relation_defaults():
    config = SystemConfig()
    assert config.relation_a.num_tuples == 250_000
    assert config.relation_b.num_tuples == 1_000_000
    assert config.relation_a.tuple_size_bytes == 400
    assert config.relation_a.blocking_factor == 20
    assert config.relation_a.pages == 12_500
    assert config.relation_b.pages == 50_000
    # Roughly 100 MB and 400 MB as stated in Fig. 4.
    assert config.relation_a.size_bytes == 100_000_000
    assert config.relation_b.size_bytes == 400_000_000


def test_node_partitioning_20_80():
    config = SystemConfig(num_pe=80)
    assert config.a_node_count == 16
    assert config.b_node_count == 64
    assert set(config.a_node_ids).isdisjoint(config.b_node_ids)
    assert len(config.a_node_ids) + len(config.b_node_ids) == 80


@pytest.mark.parametrize("num_pe", [10, 20, 40, 60, 80])
def test_node_partitioning_covers_all_pe(num_pe):
    config = SystemConfig(num_pe=num_pe)
    assert len(config.a_node_ids) + len(config.b_node_ids) == num_pe


def test_join_query_defaults():
    query = JoinQueryConfig()
    assert query.scan_selectivity == 0.01
    assert query.fudge_factor == 1.05
    assert query.arrival_rate_per_pe == 0.25


def test_network_packetisation():
    net = NetworkConfig()
    assert net.packets_for(0) == 1
    assert net.packets_for(8_192) == 1
    assert net.packets_for(8_193) == 2
    assert net.packets_for(400 * 20) == 1
    assert net.transfer_time(8_192) > 0


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(num_pe=0)
    with pytest.raises(ValueError):
        SystemConfig(multiprogramming_level=0)


def test_with_overrides_returns_new_config():
    config = SystemConfig(num_pe=10)
    bigger = config.with_overrides(num_pe=80)
    assert bigger.num_pe == 80
    assert config.num_pe == 10


def test_configs_are_frozen():
    costs = InstructionCosts()
    with pytest.raises(dataclasses.FrozenInstanceError):
        costs.io_operation = 1


def test_describe_mentions_key_figures():
    config = SystemConfig(num_pe=40, oltp=OltpConfig(placement="B"))
    text = config.describe()
    assert "40 PE" in text
    assert "OLTP" in text


def test_relation_pages_for_tuples():
    rel = RelationConfig(name="X", num_tuples=1000)
    assert rel.pages_for_tuples(0) == 0
    assert rel.pages_for_tuples(1) == 1
    assert rel.pages_for_tuples(20) == 1
    assert rel.pages_for_tuples(21) == 2


def _names_read(*roots):
    """Attribute names the Python files under ``roots`` read: every load
    ``x.name`` and every ``getattr(x, "name")`` string argument."""
    loaded = set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    loaded.add(node.args[1].value)
    return loaded


def test_every_config_field_is_read():
    """Every config field is read somewhere in ``src/repro``.

    A field nothing reads still changes a ``--set`` point's cache key but
    never its result, so it offers a choice the simulator does not make.
    A read is an attribute load ``x.field`` or ``getattr(x, "field")``.
    """
    from repro.config import parameters

    loaded = _names_read(PACKAGE)
    unread = sorted(
        f"{cls.__name__}.{field.name}"
        for cls in vars(parameters).values()
        if inspect.isclass(cls)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == parameters.__name__
        for field in dataclasses.fields(cls)
        if field.name not in loaded
    )
    assert not unread, f"config fields nothing reads: {unread}"


def test_every_stored_attribute_is_read():
    """Every attribute ``src/repro`` stores on ``self`` is read somewhere.

    A value the program writes and nothing reads costs a store on every
    call that writes it and explains no output.  The readers are the
    package, ``perfbench``, ``benchmarks`` and ``examples``; ``tests`` is
    not one, so a test checks behaviour the program exposes, not private
    bookkeeping.  A read matches by name, as in the config check above.
    """
    root = Path(__file__).resolve().parents[1]
    loaded = _names_read(PACKAGE, root / "perfbench", root / "benchmarks", root / "examples")
    stored = set()
    for path in PACKAGE.rglob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(cls, ast.ClassDef):
                stored.update(
                    (cls.name, node.attr)
                    for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
    unread = sorted(f"{cls}.{attr}" for cls, attr in stored if attr not in loaded)
    assert not unread, f"attributes stored on self and never read: {unread}"
