"""Tests for the control node, degree/placement policies and strategies."""

import pytest

from repro.config import SystemConfig
from repro.engine import ProcessingElement
from repro.metrics import MetricsCollector
from repro.scheduling import (
    ControlNode,
    CostModel,
    DynamicCpuDegree,
    FixedDegree,
    IsolatedStrategy,
    LeastUtilizedCpuPlacement,
    LeastUtilizedMemoryPlacement,
    MinIOStrategy,
    MinIOSuOptStrategy,
    OptIOCpuStrategy,
    RandomPlacement,
    SchedulingContext,
    StaticNoIODegree,
    StaticSuOptDegree,
    make_strategy,
    strategy_names,
)
from repro.scheduling.strategy import JoinPlan
from repro.sim import Environment
from repro.workload import JoinQuery


def build_system(num_pe=8, buffer_pages=50):
    from dataclasses import replace

    config = SystemConfig(num_pe=num_pe)
    config = config.with_overrides(buffer=replace(config.buffer, buffer_pages=buffer_pages))
    env = Environment()
    pes = [ProcessingElement(env, pe_id=index, config=config) for index in range(num_pe)]
    control = ControlNode(env, pes, config.control)
    cost_model = CostModel(config)
    return env, config, pes, control, cost_model


def all_eligible(config, cost_model, control):
    """A scheduling context in which every PE may join (no PE is down)."""
    return SchedulingContext(cost_model, control, tuple(range(config.num_pe)))


# -- control node -----------------------------------------------------------------
def test_control_node_collects_reports():
    env, config, pes, control, cost_model = build_system()

    def work():
        yield from pes[0].cpu.consume(2_000_000)  # 100 ms on a 20 MIPS CPU

    env.process(work())
    env.run(until=0.1)
    control.collect_reports()
    assert control.status_of(0).cpu_utilization > 0.5
    assert control.status_of(1).cpu_utilization == 0.0
    assert control.average_cpu_utilization() > 0.0


def test_control_node_periodic_reporting():
    env, config, pes, control, cost_model = build_system()
    ticks = []
    collect = control.collect_reports

    def counted():
        ticks.append(env.now)
        collect()

    control.collect_reports = counted
    control.start()
    control.start()  # idempotent
    env.run(until=1.05)
    assert ticks == pytest.approx([0.1 * k for k in range(1, 11)])


def test_report_tick_reads_each_pe_disks_once(monkeypatch):
    """A report computes each PE's disk utilisation from one snapshot of its
    disks: the value a second read at the same instant would give."""
    from repro.hardware.disk import DiskArray

    env, config, pes, control, cost_model = build_system(num_pe=4)

    def io():
        yield from pes[0].disks.read_sequential(8)

    env.process(io())
    env.run(until=0.05)
    snapshot = DiskArray.snapshot
    read = []

    def counted(disks):
        read.append(disks)
        return snapshot(disks)

    monkeypatch.setattr(DiskArray, "snapshot", counted)
    control.collect_reports()
    assert sorted(map(id, read)) == sorted(id(pe.disks) for pe in pes)
    monkeypatch.undo()
    busy = pes[0].disks.utilization_since((0.0, 0.0), pes[0].disks.snapshot())
    assert 0.0 < busy == control.status_of(0).disk_utilization
    assert control.status_of(1).disk_utilization == 0.0


def test_avail_memory_sorted_descending():
    env, config, pes, control, cost_model = build_system(num_pe=4)
    # Occupy buffer pages on PE 2.
    done = []

    def reserve():
        ws = yield pes[2].buffer.reserve("q", desired_pages=30, min_pages=30)
        done.append(ws)

    env.process(reserve())
    env.run()
    control.collect_reports()
    avail = control.avail_memory()
    frees = [status.free_memory_pages for status in avail]
    assert frees == sorted(frees, reverse=True)
    assert avail[-1].pe_id == 2


def test_note_join_assignment_adapts_view():
    env, config, pes, control, cost_model = build_system(num_pe=4)
    control.collect_reports()
    before_cpu = control.status_of(1).cpu_utilization
    before_mem = control.status_of(1).free_memory_pages
    control.note_join_assignment([1], pages_per_processor=10)
    assert control.status_of(1).cpu_utilization > before_cpu
    assert control.status_of(1).free_memory_pages == before_mem - 10
    # Unknown PE ids are ignored.
    control.note_join_assignment([999], pages_per_processor=5)


def test_memory_utilization_average():
    """Memory utilisation summaries come from the metrics collector; the
    control node serves free pages (AVAIL-MEMORY) only."""
    env, config, pes, control, cost_model = build_system(num_pe=2, buffer_pages=10)

    def reserve():
        yield pes[0].buffer.reserve("q", desired_pages=5, min_pages=5)

    env.process(reserve())
    env.run(until=1.0)
    assert MetricsCollector(env).average_memory_utilization(pes) == pytest.approx(0.25)


# -- degree policies ------------------------------------------------------------------
def test_fixed_degree_clamped_to_system():
    env, config, pes, control, cost_model = build_system(num_pe=4)
    assert FixedDegree(100).degree(JoinQuery(), cost_model, control) == 4
    assert FixedDegree(0).degree(JoinQuery(), cost_model, control) == 1


def test_static_degrees():
    env, config, pes, control, cost_model = build_system(num_pe=60)
    query = JoinQuery(scan_selectivity=0.01)
    assert StaticNoIODegree().degree(query, cost_model, control) == 3
    su_opt = StaticSuOptDegree().degree(query, cost_model, control)
    assert 25 <= su_opt <= 35


def test_dynamic_degree_reacts_to_cpu_load():
    env, config, pes, control, cost_model = build_system(num_pe=8)
    query = JoinQuery(scan_selectivity=0.01)
    idle_degree = DynamicCpuDegree().degree(query, cost_model, control)

    def burn(pe):
        yield from pe.cpu.consume(50_000_000)

    for pe in pes:
        env.process(burn(pe))
    env.run(until=1.0)
    control.collect_reports()
    busy_degree = DynamicCpuDegree().degree(query, cost_model, control)
    assert busy_degree < idle_degree


def test_dynamic_degree_without_control_node_uses_su_opt():
    """An idle control node (no report yet) leaves psu-opt unreduced."""
    env, config, pes, control, cost_model = build_system(num_pe=8)
    query = JoinQuery()
    assert DynamicCpuDegree().degree(query, cost_model, control) == min(
        8, cost_model.psu_opt(query)
    )


# -- placement policies ---------------------------------------------------------------
def test_random_placement_selects_requested_count():
    placement = RandomPlacement(seed=3)
    chosen = placement.select(3, list(range(10)), None)
    assert len(chosen) == 3
    assert len(set(chosen)) == 3
    assert all(pe in range(10) for pe in chosen)


def test_random_placement_clamps_to_eligible():
    placement = RandomPlacement(seed=3)
    assert len(placement.select(10, [1, 2], None)) == 2


def test_luc_placement_prefers_idle_cpus():
    env, config, pes, control, cost_model = build_system(num_pe=4)

    def burn(pe):
        yield from pe.cpu.consume(10_000_000)

    env.process(burn(pes[0]))
    env.process(burn(pes[1]))
    env.run(until=0.4)
    control.collect_reports()
    chosen = LeastUtilizedCpuPlacement().select(2, list(range(4)), control)
    assert set(chosen) == {2, 3}


def test_lum_placement_prefers_free_memory():
    env, config, pes, control, cost_model = build_system(num_pe=4)

    def reserve(pe, pages):
        yield pe.buffer.reserve("q", desired_pages=pages, min_pages=pages)

    env.process(reserve(pes[0], 40))
    env.process(reserve(pes[1], 30))
    env.run()
    control.collect_reports()
    chosen = LeastUtilizedMemoryPlacement().select(2, list(range(4)), control)
    assert set(chosen) == {2, 3}


def test_lum_adaptation_spreads_consecutive_queries():
    env, config, pes, control, cost_model = build_system(num_pe=4, buffer_pages=50)
    control.collect_reports()
    placement = LeastUtilizedMemoryPlacement()
    first = placement.select(2, list(range(4)), control, pages_per_processor=40)
    second = placement.select(2, list(range(4)), control, pages_per_processor=40)
    assert set(first).isdisjoint(set(second))


def test_placements_without_control_node_fall_back():
    """With every PE idle, LUC and LUM tie everywhere and take the lowest
    PE indices."""
    env, config, pes, control, cost_model = build_system(num_pe=8)
    assert LeastUtilizedCpuPlacement().select(2, [5, 6, 7], control) == [5, 6]
    assert LeastUtilizedMemoryPlacement().select(2, [5, 6, 7], control) == [5, 6]


# -- join plan validation -----------------------------------------------------------------
def test_join_plan_validation():
    with pytest.raises(ValueError):
        JoinPlan(degree=2, processors=(1,), pages_per_processor=5)
    with pytest.raises(ValueError):
        JoinPlan(degree=0, processors=(), pages_per_processor=5)


# -- isolated strategies --------------------------------------------------------------------
def test_isolated_strategy_name_and_plan():
    env, config, pes, control, cost_model = build_system(num_pe=8)
    control.collect_reports()
    strategy = IsolatedStrategy(StaticNoIODegree(), LeastUtilizedMemoryPlacement())
    assert strategy.name == "psu_noIO+LUM"
    context = all_eligible(config, cost_model, control)
    plan = strategy.plan_join(JoinQuery(scan_selectivity=0.01), context)
    assert plan.degree == 3
    assert len(plan.processors) == 3
    assert plan.pages_per_processor >= 44  # 132 pages over 3 processors


def test_isolated_strategy_restricted_eligible_set():
    env, config, pes, control, cost_model = build_system(num_pe=8)
    control.collect_reports()
    strategy = IsolatedStrategy(StaticSuOptDegree(), RandomPlacement(seed=1))
    context = SchedulingContext(
        cost_model=cost_model, control=control, eligible_processors=[0, 1, 2]
    )
    plan = strategy.plan_join(JoinQuery(), context)
    assert set(plan.processors) <= {0, 1, 2}


# -- integrated strategies ----------------------------------------------------------------------
def test_min_io_selects_minimal_io_avoiding_degree():
    env, config, pes, control, cost_model = build_system(num_pe=8, buffer_pages=50)
    control.collect_reports()
    context = all_eligible(config, cost_model, control)
    plan = MinIOStrategy().plan_join(JoinQuery(scan_selectivity=0.01), context)
    # Hash table needs 132 pages; 50 free pages per node -> 3 nodes avoid I/O.
    assert plan.degree == 3
    # No overflow: each share fits the 50 free pages of its processor.
    assert plan.pages_per_processor <= 50


def test_min_io_minimises_overflow_when_unavoidable():
    """Footnote 5: 10 MB requirement with 8/1/0/0 MB free -> pick 1 processor."""
    env, config, pes, control, cost_model = build_system(num_pe=4, buffer_pages=50)

    # Fill buffers so that the free pages are 40, 5, 0, 0.
    def reserve(pe, pages):
        yield pe.buffer.reserve("q", desired_pages=pages, min_pages=pages)

    env.process(reserve(pes[0], 10))
    env.process(reserve(pes[1], 45))
    env.process(reserve(pes[2], 50))
    env.process(reserve(pes[3], 50))
    env.run()
    control.collect_reports()
    context = all_eligible(config, cost_model, control)
    # Need ~53 pages (selectivity 0.004 -> 50 inner pages * 1.05).
    plan = MinIOStrategy().plan_join(JoinQuery(scan_selectivity=0.004), context)
    assert plan.degree == 1
    assert plan.processors == (0,)
    # The whole table cannot fit the 40 free pages: it overflows.
    assert plan.pages_per_processor > pes[0].buffer.free_pages == 40


def test_min_io_suopt_prefers_degree_near_su_opt():
    env, config, pes, control, cost_model = build_system(num_pe=40, buffer_pages=50)
    control.collect_reports()
    context = all_eligible(config, cost_model, control)
    query = JoinQuery(scan_selectivity=0.01)
    min_io_plan = MinIOStrategy().plan_join(query, context)
    suopt_plan = MinIOSuOptStrategy().plan_join(query, context)
    su_opt = cost_model.psu_opt(query)
    assert suopt_plan.degree > min_io_plan.degree
    assert abs(suopt_plan.degree - su_opt) <= abs(min_io_plan.degree - su_opt)
    assert suopt_plan.pages_per_processor <= 50


def test_opt_io_cpu_bounded_by_pmu_cpu_under_load():
    env, config, pes, control, cost_model = build_system(num_pe=8, buffer_pages=50)

    def burn(pe):
        yield from pe.cpu.consume(40_000_000)

    for pe in pes:
        env.process(burn(pe))
    env.run(until=1.0)
    control.collect_reports()
    context = all_eligible(config, cost_model, control)
    query = JoinQuery(scan_selectivity=0.01)
    plan = OptIOCpuStrategy().plan_join(query, context)
    bound = cost_model.pmu_cpu(query, control.average_cpu_utilization())
    assert plan.degree <= bound


def test_opt_io_cpu_acts_like_min_io_suopt_when_idle():
    env, config, pes, control, cost_model = build_system(num_pe=40, buffer_pages=50)
    control.collect_reports()
    query = JoinQuery(scan_selectivity=0.01)
    plan_opt = OptIOCpuStrategy().plan_join(
        query, all_eligible(config, cost_model, control)
    )
    env2, config2, pes2, control2, cost_model2 = build_system(num_pe=40, buffer_pages=50)
    control2.collect_reports()
    plan_suopt = MinIOSuOptStrategy().plan_join(
        query, all_eligible(config2, cost_model2, control2)
    )
    assert plan_opt.degree == plan_suopt.degree


def test_opt_io_cpu_avoids_memory_loaded_nodes():
    """Fig. 9a behaviour: OPT-IO-CPU picks fewer nodes to skip busy-memory PEs."""
    env, config, pes, control, cost_model = build_system(num_pe=6, buffer_pages=50)

    def reserve(pe, pages):
        yield pe.buffer.reserve("oltp", desired_pages=pages, min_pages=pages)

    # Two nodes are nearly full (OLTP nodes).
    env.process(reserve(pes[0], 45))
    env.process(reserve(pes[1], 45))
    env.run()
    control.collect_reports()
    context = all_eligible(config, cost_model, control)
    plan = OptIOCpuStrategy().plan_join(JoinQuery(scan_selectivity=0.01), context)
    assert 0 not in plan.processors
    assert 1 not in plan.processors


# -- registry ----------------------------------------------------------------------------------
def test_registry_contains_all_paper_strategies():
    names = strategy_names()
    for expected in [
        "psu_opt+RANDOM",
        "psu_opt+LUC",
        "psu_opt+LUM",
        "psu_noIO+RANDOM",
        "psu_noIO+LUM",
        "pmu_cpu+RANDOM",
        "pmu_cpu+LUM",
        "MIN-IO",
        "MIN-IO-SUOPT",
        "OPT-IO-CPU",
    ]:
        assert expected in names


def test_make_strategy_unknown_name():
    with pytest.raises(KeyError, match="unknown strategy"):
        make_strategy("nonsense")


def test_make_strategy_builds_working_instances():
    env, config, pes, control, cost_model = build_system(num_pe=8)
    control.collect_reports()
    context = all_eligible(config, cost_model, control)
    for name in strategy_names():
        strategy = make_strategy(name, seed=5)
        plan = strategy.plan_join(JoinQuery(scan_selectivity=0.01), context)
        assert 1 <= plan.degree <= 8
        assert len(set(plan.processors)) == plan.degree
