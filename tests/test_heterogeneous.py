"""Heterogeneous hardware classes and tiered interconnect (PR 7).

Three layers under test: the :class:`NodeClass`/:class:`TopologyConfig`
configuration model, the capacity-aware scheduling/hardware behaviour on
mixed clusters, and -- most importantly -- the *uniform fallback invariant*:
a config declaring explicitly-default hardware (all factors 1.0, flat
topology) must reproduce the historical uniform outputs byte for byte,
with event coalescing on and off.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.config.parameters import (
    InstructionCosts,
    NetworkConfig,
    NodeClass,
    TopologyConfig,
)
from repro.engine import ProcessingElement
from repro.hardware.network import Network
from repro.scheduling import (
    ControlNode,
    CostModel,
    LeastUtilizedCpuPlacement,
    LeastUtilizedMemoryPlacement,
)
from repro.sim import Environment

GOLDEN = Path(__file__).parent / "data" / "figure5_golden.csv"

#: An explicitly-default node class: same hardware as every uniform PE.
DEFAULT_CLASS = NodeClass(name="plain", fraction=1.0)

FAST_HALF = (
    NodeClass(name="fast", fraction=0.5, mips_factor=2.0, memory_factor=2.0),
)


# -- configuration model --------------------------------------------------------------
def test_node_class_validation():
    with pytest.raises(ValueError):
        NodeClass(name="x")  # needs count or fraction
    with pytest.raises(ValueError):
        NodeClass(name="x", count=2, fraction=0.5)  # not both
    with pytest.raises(ValueError):
        NodeClass(name="x", fraction=1.5)
    with pytest.raises(ValueError):
        NodeClass(name="x", count=2, mips_factor=0.0)
    assert NodeClass(name="x", fraction=0.25).resolve_count(80) == 20
    assert NodeClass(name="x", count=99).resolve_count(10) == 10
    assert NodeClass(name="x", fraction=1.0).is_default_hardware
    assert not NodeClass(name="x", fraction=1.0, disk_factor=2.0).is_default_hardware


def test_topology_validation_and_tiers():
    with pytest.raises(ValueError):
        TopologyConfig(racks=0)
    with pytest.raises(ValueError):
        TopologyConfig(racks=2, regions=3)  # more regions than racks
    with pytest.raises(ValueError):
        TopologyConfig(racks=2, cross_rack_latency_factor=0.0)
    assert TopologyConfig().is_flat
    assert TopologyConfig(racks=4).is_flat  # all factors 1.0
    topo = TopologyConfig(
        racks=4,
        regions=2,
        cross_rack_latency_factor=8.0,
        cross_region_latency_factor=25.0,
    )
    assert not topo.is_flat
    # 16 PEs -> racks of 4, regions of 2 racks.
    assert topo.tier_between(0, 3, 16) == 0  # same rack
    assert topo.tier_between(0, 4, 16) == 1  # rack 0 vs rack 1, region 0
    assert topo.tier_between(0, 12, 16) == 2  # region 0 vs region 1
    assert topo.latency_factor(2) == 25.0


def test_node_classes_cover_contiguous_blocks():
    config = SystemConfig(num_pe=8, node_classes=FAST_HALF)
    assert [config.node_class_name(pe) for pe in range(8)] == (
        ["fast"] * 4 + ["default"] * 4
    )
    assert not config.node_class_of(0).is_default_hardware
    assert config.effective_cpu(0).mips == config.cpu.mips * 2.0
    assert config.effective_buffer_pages(0) == 2 * config.buffer.buffer_pages
    assert config.effective_cpu(4) is config.cpu  # remainder keeps baseline
    with pytest.raises(ValueError):
        SystemConfig(
            num_pe=4,
            node_classes=(
                NodeClass(name="big", count=3),
                NodeClass(name="huge", count=3),
            ),
        )


def test_explicit_default_class_is_transparent():
    """Default-hardware classes return the *same objects* as the uniform
    config -- the engine cannot tell the two configs apart."""
    config = SystemConfig(num_pe=4, node_classes=(DEFAULT_CLASS,))
    assert all(config.node_class_of(pe).is_default_hardware for pe in range(4))
    for pe in range(4):
        assert config.effective_cpu(pe) is config.cpu
        assert config.effective_disk(pe) is config.disk
        assert config.effective_buffer_pages(pe) == config.buffer.buffer_pages
        assert config.cpu_factor(pe) == 1.0


# -- network tiers --------------------------------------------------------------------
def _network(topology=None, num_pe=0):
    return Network(
        Environment(), NetworkConfig(), InstructionCosts(),
        topology=topology, num_pe=num_pe,
    )


def test_flat_topology_matches_legacy_transfer_time():
    flat = _network()
    tiered_but_flat = _network(TopologyConfig(racks=4), num_pe=8)
    legacy = NetworkConfig().transfer_time(4096)
    assert flat.transfer_time(4096, src=0, dst=7) == legacy
    assert tiered_but_flat.transfer_time(4096, src=0, dst=7) == legacy


def test_cross_tier_transfers_cost_more():
    topo = TopologyConfig(
        racks=2, cross_rack_latency_factor=8.0, cross_rack_bandwidth_factor=2.0
    )
    net = _network(topo, num_pe=8)
    intra = net.transfer_time(4096, src=0, dst=3)
    cross = net.transfer_time(4096, src=0, dst=4)
    assert intra == NetworkConfig().transfer_time(4096)
    assert cross > intra
    # Multi-destination transfers pay for the farthest receiver.
    assert net.transfer_time(4096, src=0, dst=[1, 2, 4]) == cross
    # Unknown endpoints fall back to the uniform wire.
    assert net.transfer_time(4096) == intra


def test_transfer_chain_batched_equals_unbatched_with_tiers():
    topo = TopologyConfig(racks=2, cross_rack_latency_factor=8.0)

    def run(batch):
        env = Environment()
        net = Network(env, NetworkConfig(), InstructionCosts(),
                      topology=topo, num_pe=4)
        done = []

        def proc():
            if batch:
                yield from net.transfer_chain([512, 2048, 4096], src=0, dst=3)
            else:
                for nbytes in (512, 2048, 4096):
                    yield from net.transfer(nbytes, src=0, dst=3)
            done.append(env.now)

        env.process(proc())
        env.run()
        return done[0]

    assert run(batch=True) == run(batch=False)


# -- capacity-aware scheduling --------------------------------------------------------
def _hetero_system(num_pe=4):
    config = SystemConfig(num_pe=num_pe, node_classes=FAST_HALF)
    env = Environment()
    pes = [ProcessingElement(env, pe_id=i, config=config) for i in range(num_pe)]
    control = ControlNode(env, pes, config.control)
    return env, config, pes, control


def test_nodes_by_cpu_ranks_by_effective_capacity():
    env, config, pes, control = _hetero_system()

    def burn(pe, instructions):
        yield from pe.cpu.consume(instructions)

    # PE 0 (fast, 2x MIPS) at ~50% busy still has more *effective* headroom
    # than idle slow PEs; PE 1 (fast) idle outranks everything.
    env.process(burn(pes[0], 4_000_000))
    env.run(until=0.2)
    control.collect_reports()
    order = [status.pe_id for status in control.nodes_by_cpu()]
    assert order[0] == 1  # idle fast node first
    assert order[-1] != 1


def test_average_effective_cpu_utilization_weights_by_capacity():
    env, config, pes, control = _hetero_system()

    def burn(pe, instructions):
        yield from pe.cpu.consume(instructions)

    env.process(burn(pes[0], 8_000_000))  # saturate one fast PE
    env.run(until=0.2)
    control.collect_reports()
    # The busy PE holds 2 of the cluster's 6 capacity units (2+2+1+1), so
    # its saturation weighs heavier than a plain 1-in-4 mean would.
    assert control.average_cpu_utilization() == pytest.approx(2.0 / 6.0)


def test_psu_noio_uses_per_class_memory():
    from repro.workload import JoinQuery

    uniform = SystemConfig(num_pe=8)
    hetero = uniform.with_overrides(node_classes=FAST_HALF)
    query = JoinQuery(scan_selectivity=0.02)
    degree_uniform = CostModel(uniform).psu_no_io(query)
    degree_hetero = CostModel(hetero).psu_no_io(query)
    # Fast nodes hold twice the pages, so fewer PEs suffice.
    assert 1 < degree_hetero < degree_uniform


# -- satellite 1: deterministic placement tie-break -----------------------------------
def test_placement_fallback_sorts_before_slicing():
    """On an idle control node the placements must take the *lowest* PE
    ids, not the first ids in eligible-iteration order."""
    config = SystemConfig(num_pe=10)
    env = Environment()
    pes = [ProcessingElement(env, pe_id=i, config=config) for i in range(10)]
    control = ControlNode(env, pes, config.control)
    unsorted_eligible = [7, 2, 9, 1]
    assert LeastUtilizedCpuPlacement().select(2, unsorted_eligible, control) == [1, 2]
    assert LeastUtilizedMemoryPlacement().select(2, unsorted_eligible, control) == [1, 2]


def test_placement_ties_break_by_pe_index():
    env, config, pes, control = _hetero_system()
    control.collect_reports()  # all idle: ties everywhere
    # Fast PEs (0, 1) lead on effective headroom; ties inside a class break
    # by PE index regardless of the order eligible was passed in.
    assert LeastUtilizedCpuPlacement().select(3, [3, 1, 2, 0], control) == [0, 1, 2]
    assert LeastUtilizedCpuPlacement().select(2, [1, 0], control) == [0, 1]


# -- per-class timeline ---------------------------------------------------------------
def test_timeline_carries_class_util_only_when_heterogeneous():
    from repro.simulation.driver import SimulationDriver

    def run(node_classes):
        config = SystemConfig(num_pe=4, seed=42, node_classes=node_classes)
        driver = SimulationDriver(config, strategy="OPT-IO-CPU")
        return driver.run_timed(6.0, timeline_window=3.0)

    uniform = run(())
    hetero = run(FAST_HALF)
    assert all(window.class_util == () for window in uniform.timeline)
    for window in hetero.timeline:
        names = [entry[0] for entry in window.class_util]
        assert names == ["fast", "default"]
    # JSON round-trip keeps the per-class tuples comparable.
    from repro.metrics.timeline import Timeline

    data = json.loads(json.dumps(hetero.timeline.to_dict()))
    assert Timeline.from_dict(data) == hetero.timeline


# -- satellite 2: spec encoding round-trips -------------------------------------------
NODE_AXIS = (
    (("name", "fast"), ("fraction", 0.5), ("mips_factor", 2.0), ("memory_factor", 2.0)),
)
TOPO_AXIS = (("racks", 4), ("cross_rack_latency_factor", 8.0))


def _hetero_sweep(**kwargs):
    from repro.runner import Sweep

    return Sweep(
        scenario="homogeneous",
        strategies=("OPT-IO-CPU",),
        system_sizes=(8,),
        **kwargs,
    )


def test_point_payload_round_trips_hardware_axes():
    from repro.runner import ScenarioSpec
    from repro.runner.cache import ResultCache
    from repro.runner.spec import point_from_payload

    spec = ScenarioSpec(
        name="t", title="t", x_label="x",
        sweeps=(_hetero_sweep(node_classes=(NODE_AXIS,), topologies=(TOPO_AXIS,)),),
    )
    (point,) = spec.points()
    assert point.node_classes == NODE_AXIS
    assert point.topology == TOPO_AXIS
    assert dict(point.cache_payload())["node_classes"] == NODE_AXIS
    payload = json.loads(json.dumps(dataclasses.asdict(point)))
    rebuilt = point_from_payload(payload)
    assert rebuilt.node_classes == NODE_AXIS
    assert rebuilt.topology == TOPO_AXIS
    cache = ResultCache(root="/nonexistent")
    assert cache.key(rebuilt) == cache.key(point)


def test_explicit_default_axes_expand_to_historical_points():
    """Satellite 3, spec level: explicitly-default hardware axes are
    canonicalised away, so points (seeds, cache keys) equal the plain ones."""
    from repro.runner import ScenarioSpec

    default_axis = ((("name", "plain"), ("fraction", 1.0)),)
    flat_axis = (("racks", 1),)
    plain = ScenarioSpec(
        name="t", title="t", x_label="x",
        sweeps=(_hetero_sweep(replicates=2),),
    )
    explicit = ScenarioSpec(
        name="t", title="t", x_label="x",
        sweeps=(
            _hetero_sweep(
                replicates=2, node_classes=(default_axis,), topologies=(flat_axis,)
            ),
        ),
    )
    assert explicit.points() == plain.points()


# -- satellite 3: uniform fallback byte-identity --------------------------------------
GOLDEN_ARGS = [
    "experiment", "figure5",
    "--sizes", "10", "--joins", "8", "--time-limit", "40",
    "--replicates", "2", "--no-cache", "--export", "csv",
]


def _patch_figure5_with_default_axes(monkeypatch):
    """Re-register figure5 with explicitly-default hardware on every sweep."""
    from repro.runner import registry

    registry._ensure_populated()
    original = registry._REGISTRY["figure5"]
    default_axis = ((("name", "plain"), ("fraction", 1.0)),)
    flat_axis = (("racks", 1), ("cross_rack_latency_factor", 1.0))

    def patched(**kwargs):
        spec = original(**kwargs)
        sweeps = tuple(
            dataclasses.replace(
                sweep, node_classes=(default_axis,), topologies=(flat_axis,)
            )
            for sweep in spec.sweeps
        )
        return dataclasses.replace(spec, sweeps=sweeps)

    monkeypatch.setitem(registry._REGISTRY, "figure5", patched)


@pytest.mark.parametrize("coalesce", ["1", "0"])
def test_figure5_golden_with_explicit_default_hardware(tmp_path, monkeypatch, coalesce):
    from repro.cli import main

    monkeypatch.setenv("REPRO_COALESCE", coalesce)
    _patch_figure5_with_default_axes(monkeypatch)
    out = tmp_path / "figure5_default_hardware.csv"
    code = main(GOLDEN_ARGS + ["--workers", "1", "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("coalesce", ["1", "0"])
def test_figure9b_point_with_explicit_default_hardware(monkeypatch, coalesce):
    """The mixed OLTP+join point agrees field for field between the uniform
    config and its explicitly-default heterogeneous twin."""
    from repro.experiments import figure9
    from repro.runner import ParallelRunner

    monkeypatch.setenv("REPRO_COALESCE", coalesce)

    def run(with_axes):
        spec = figure9.build_spec(
            oltp_placement="B",
            system_sizes=(10,),
            strategies=("OPT-IO-CPU",),
            measured_joins=6,
            max_simulated_time=20.0,
        )
        if with_axes:
            default_axis = ((("name", "plain"), ("fraction", 1.0)),)
            spec = dataclasses.replace(
                spec,
                sweeps=tuple(
                    dataclasses.replace(
                        sweep,
                        node_classes=(default_axis,),
                        topologies=((("racks", 1),),),
                    )
                    for sweep in spec.sweeps
                ),
            )
        result = ParallelRunner(workers=1, cache=None).run(spec)
        return result.value("OPT-IO-CPU", 10).result.to_dict()

    assert run(with_axes=True) == run(with_axes=False)


# -- heterogeneous scenario -----------------------------------------------------------
def test_heterogeneous_scenario_registered_and_expands():
    from repro.runner import build_scenario

    spec = build_scenario(
        "heterogeneous",
        system_sizes=(10,),
        node_mixes=("uniform", "fast-half"),
        topology_tiers=("flat", "racks"),
    )
    points = spec.points()
    # 2 mixes x 3 strategies + 1 tiered topology x 3 strategies.
    assert len(points) == 9
    labels = {point.series for point in points}
    assert "OPT-IO-CPU [uniform]" in labels
    assert "OPT-IO-CPU [fast:0.5]" in labels
    assert "OPT-IO-CPU [fast:0.5,4r]" in labels
    hardware = [p for p in points if p.node_classes is not None]
    assert len(hardware) == 6
    with pytest.raises(ValueError):
        build_scenario("heterogeneous", node_mixes=("nope",))


def test_export_emits_window_class_rows():
    from repro.experiments.export import collect_rows
    from repro.runner import ParallelRunner, build_scenario

    spec = build_scenario(
        "heterogeneous",
        system_sizes=(4,),
        strategies=("OPT-IO-CPU",),
        node_mixes=("fast-half",),
        topology_tiers=("flat",),
        max_simulated_time=6.0,
        timeline_window=3.0,
    )
    result = ParallelRunner(workers=1, cache=None).run(spec)
    rows = collect_rows(result)
    class_rows = [row for row in rows if row["row_type"] == "window_class"]
    assert class_rows, "heterogeneous timeline export must carry per-class rows"
    assert {row["node_class"] for row in class_rows} == {"fast", "default"}
    for row in class_rows:
        for key in ("cpu_util", "disk_util", "mem_util", "window_index", "t_start"):
            assert key in row
