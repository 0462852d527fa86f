"""Tests for the configuration defaults (Fig. 4 of the paper)."""

import ast
import dataclasses
import inspect
import re
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


def test_relation_defaults():
    config = SystemConfig()
    assert config.relation_a.num_tuples == 250_000
    assert config.relation_b.num_tuples == 1_000_000
    assert config.relation_a.tuple_size_bytes == 400
    assert config.relation_a.blocking_factor == 20
    assert config.relation_a.pages == 12_500
    assert config.relation_b.pages == 50_000
    # Roughly 100 MB and 400 MB as stated in Fig. 4.
    for relation, size in ((config.relation_a, 100_000_000), (config.relation_b, 400_000_000)):
        assert relation.num_tuples * relation.tuple_size_bytes == size


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


#: A perfbench span target, ``"repro.module:Owner.name"``: the tracer
#: wraps ``Owner.name`` by name, so the string reads ``name``.
_SPAN_TARGET = re.compile(r"[\w.]+:\w+\.(\w+)")


def _names_read(*roots):
    """What the Python files under ``roots`` read by name.

    Returns ``(names, prefixes, literals)``.  ``names`` holds every load
    ``x.name``, every ``getattr(x, "name")`` string argument and the
    ``name`` of every span target string.  A ``getattr`` whose name is an
    f-string, such as ``getattr(self, f"_apply_{kind}")``, reads every name
    that starts with its literal prefix; ``prefixes`` holds those.
    ``literals`` holds every string constant.
    """
    names, prefixes, literals = set(), set(), set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
                    target = _SPAN_TARGET.fullmatch(node.value)
                    if target:
                        names.add(target.group(1))
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr"
                    and len(node.args) >= 2
                ):
                    name = node.args[1]
                    if isinstance(name, ast.Constant) and isinstance(name.value, str):
                        names.add(name.value)
                    elif isinstance(name, ast.JoinedStr) and isinstance(
                        name.values[0], ast.Constant
                    ):
                        prefixes.add(name.values[0].value)
    return names, tuple(prefixes), literals


def test_every_config_field_is_read():
    """Every config field is read somewhere in ``src/repro``.

    A field nothing reads still changes a ``--set`` point's cache key but
    never its result, so it offers a choice the simulator does not make.
    A read is an attribute load ``x.field`` or a ``getattr`` that names
    it (see ``_names_read``).
    """
    from repro.config import parameters

    names, prefixes, _ = _names_read(PACKAGE)
    unread = sorted(
        f"{cls.__name__}.{field.name}"
        for cls in vars(parameters).values()
        if inspect.isclass(cls)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == parameters.__name__
        for field in dataclasses.fields(cls)
        if field.name not in names and not field.name.startswith(prefixes)
    )
    assert not unread, f"config fields nothing reads: {unread}"


#: Methods ``http.server`` calls by name (``"do_" + command`` and its
#: request logger), so no reader spells them.
_SERVER_HOOKS = {("_Handler", "do_GET"), ("_Handler", "do_POST"), ("_Handler", "log_message")}


def _is_record(cls):
    """Whether a class body declares fields: a dataclass or a NamedTuple."""
    for decorator in cls.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
               for base in cls.bases)


def test_every_stored_attribute_is_read():
    """Every attribute, method, property and field of a class in
    ``src/repro`` is read somewhere.

    A value the program writes and nothing reads costs a store on every
    call that writes it and explains no output; a method only a test calls
    is code no output depends on.  A class declares the attributes it
    stores on ``self``, the functions in its body (methods and
    properties) and, for a dataclass or NamedTuple, its annotated fields.
    The readers are the package, ``perfbench``, ``benchmarks`` and
    ``examples``; ``tests`` is not one, so a test checks behaviour the
    program exposes, not private bookkeeping.  A read matches by name (see
    ``_names_read``).  A field also counts as read where a reader spells
    its name as a string: ``Axis("topologies", ...)`` names the
    ``Sweep.topologies`` axis that ``getattr(sweep, axis.sweep_field)``
    reads.  Dunders are exempt, since Python calls them by protocol, and so
    are the ``http.server`` hooks in ``_SERVER_HOOKS``.
    """
    root = Path(__file__).resolve().parents[1]
    names, prefixes, literals = _names_read(
        PACKAGE, root / "perfbench", root / "benchmarks", root / "examples"
    )
    members, fields = set(), set()
    for path in PACKAGE.rglob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            members.update(
                (cls.name, node.attr)
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            )
            members.update(
                (cls.name, node.name)
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
            if _is_record(cls):
                fields.update(
                    (cls.name, node.target.id)
                    for node in cls.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                )
    unread = sorted(
        f"{cls}.{name}"
        for cls, name in members | fields
        if not (name.startswith("__") and name.endswith("__"))
        and (cls, name) not in _SERVER_HOOKS
        and name not in names
        and not name.startswith(prefixes)
        and not ((cls, name) in fields and name in literals)
    )
    assert not unread, f"attributes, methods and fields nothing reads: {unread}"
