"""Tests for windowed timeline metrics, the timeline point kind and the
dynamic scenario family (perturbed sweeps ride along)."""

import json

import pytest

from repro.experiments.scenarios import homogeneous_config
from repro.metrics import Timeline, TimelineWindow, aggregate_timelines
from repro.runner import ParallelRunner, ResultCache, ScenarioSpec, Sweep, build_scenario
from repro.runner.runner import run_point_spec
from repro.runner.spec import DEFAULT_TIMELINE_WINDOW
from repro.simulation.driver import SimulationDriver
from repro.simulation.results import SimulationResult, aggregate_results


def tiny_timeline_sweep(**overrides):
    defaults = dict(
        kind="timeline",
        scenario="homogeneous",
        strategies=("OPT-IO-CPU",),
        system_sizes=(4,),
        rates=(0.25,),
        arrivals=("step",),
        arrival_params=(("surge_factor", 2.0), ("surge_start", 4.0), ("surge_end", 8.0)),
        timeline_window=2.0,
    )
    defaults.update(overrides)
    return Sweep(**defaults)


def tiny_spec(**sweep_overrides):
    return ScenarioSpec(
        name="tl",
        title="tiny timeline",
        x_label="# PE",
        sweeps=(tiny_timeline_sweep(**sweep_overrides),),
        max_simulated_time=10.0,
    )


# -- collector / driver ------------------------------------------------------------
def test_run_timed_produces_contiguous_windows():
    config = homogeneous_config(4, seed=42)
    result = SimulationDriver(config, strategy="OPT-IO-CPU").run_timed(
        10.0, timeline_window=2.0
    )
    timeline = result.timeline
    assert timeline is not None and timeline.window == 2.0
    assert len(timeline.windows) == 5
    assert timeline.windows[0].start == 0.0
    assert timeline.windows[-1].end == 10.0
    for left, right in zip(timeline.windows, timeline.windows[1:]):
        assert left.end == right.start
    # Window completion counts fold back to the run total.
    assert sum(w.joins_completed for w in timeline.windows) == result.joins_completed
    for w in timeline.windows:
        for metric in ("cpu_util", "cpu_util_max", "disk_util", "mem_util"):
            assert 0.0 <= getattr(w, metric) <= 1.0
        assert w.cpu_imbalance >= 0.0
        assert w.cpu_util_max >= w.cpu_util


def test_run_timed_partial_final_window():
    config = homogeneous_config(2, seed=42)
    result = SimulationDriver(config, strategy="OPT-IO-CPU").run_timed(
        5.0, timeline_window=2.0
    )
    windows = result.timeline.windows
    assert [w.end - w.start for w in windows] == pytest.approx([2.0, 2.0, 1.0])


def test_window_close_reads_each_pe_disks_once(monkeypatch):
    """A window's disk utilisation comes from the snapshot that closes it."""
    from repro.config import SystemConfig
    from repro.engine import ProcessingElement
    from repro.hardware.disk import DiskArray
    from repro.metrics import TimelineCollector
    from repro.sim import Environment

    env = Environment()
    config = SystemConfig(num_pe=3)
    pes = [ProcessingElement(env, pe_id=index, config=config) for index in range(3)]
    collector = TimelineCollector(env, pes, window=0.1)
    collector.start()

    def io():
        yield from pes[0].disks.read_sequential(8)

    env.process(io())
    snapshot = DiskArray.snapshot
    read = []

    def counted(disks):
        read.append((disks, snapshot(disks)))
        return read[-1][1]

    monkeypatch.setattr(DiskArray, "snapshot", counted)
    env.run(until=0.15)  # closes the window [0, 0.1)
    assert sorted(id(disks) for disks, _ in read) == sorted(id(pe.disks) for pe in pes)
    [window] = collector.windows
    [closing] = [taken for disks, taken in read if disks is pes[0].disks]
    assert 0.0 < window.disk_util_max == pes[0].disks.utilization_since((0.0, 0.0), closing)


def test_run_timed_rejects_bad_duration():
    config = homogeneous_config(2, seed=42)
    with pytest.raises(ValueError):
        SimulationDriver(config).run_timed(0.0)


def test_observer_does_not_change_simulation_outcome():
    """Collecting a timeline must not perturb the simulated system."""
    config = homogeneous_config(4, seed=42)
    with_tl = SimulationDriver(config, strategy="OPT-IO-CPU").run_timed(
        8.0, timeline_window=1.0
    )
    with_coarse = SimulationDriver(config, strategy="OPT-IO-CPU").run_timed(
        8.0, timeline_window=4.0
    )
    a, b = with_tl.to_dict(), with_coarse.to_dict()
    a.pop("timeline"), b.pop("timeline")
    assert a == b


# -- serialisation ------------------------------------------------------------------
def test_timeline_round_trips_through_result_json():
    config = homogeneous_config(2, seed=42)
    result = SimulationDriver(config, strategy="OPT-IO-CPU").run_timed(
        4.0, timeline_window=2.0
    )
    clone = SimulationResult.from_json(result.to_json())
    assert clone.to_json() == result.to_json()
    assert isinstance(clone.timeline, Timeline)
    assert clone.timeline.windows == result.timeline.windows


def test_timeline_from_dict_ignores_unknown_window_keys():
    data = {
        "window": 1.0,
        "windows": [{"start": 0.0, "end": 1.0, "joins_completed": 3, "new_metric": 9.0}],
    }
    timeline = Timeline.from_dict(data)
    assert timeline.windows[0].joins_completed == 3


def test_timeline_series_and_window_at():
    timeline = Timeline(
        window=1.0,
        windows=[
            TimelineWindow(start=0.0, end=1.0, joins_completed=1),
            TimelineWindow(start=1.0, end=2.0, joins_completed=4),
        ],
    )
    assert timeline.series("joins_completed") == [1, 4]
    assert timeline.peak("joins_completed") == 4
    assert timeline.window_at(1.5).joins_completed == 4
    assert timeline.window_at(5.0) is None


# -- aggregation --------------------------------------------------------------------
def make_window(start, end, rt):
    return TimelineWindow(start=start, end=end, join_rt_mean=rt, joins_completed=2)


def test_aggregate_timelines_window_wise_mean():
    a = Timeline(window=1.0, windows=[make_window(0, 1, 0.2), make_window(1, 2, 0.4)])
    b = Timeline(window=1.0, windows=[make_window(0, 1, 0.4), make_window(1, 2, 0.8)])
    mean = aggregate_timelines([a, b])
    assert mean.series("join_rt_mean") == pytest.approx([0.3, 0.6])
    assert mean.windows[0].joins_completed == pytest.approx(2.0)


def test_aggregate_timelines_mismatched_grids_give_none():
    a = Timeline(window=1.0, windows=[make_window(0, 1, 0.2)])
    b = Timeline(window=1.0, windows=[make_window(0, 1, 0.2), make_window(1, 2, 0.4)])
    assert aggregate_timelines([a, b]) is None
    assert aggregate_timelines([a, None]) is None
    assert aggregate_timelines([]) is None


def test_aggregate_results_carries_mean_timeline():
    def result_with(rt):
        return SimulationResult(
            strategy="S", num_pe=2, mode="timed", simulated_seconds=2.0,
            joins_completed=2, join_response_time=rt, join_response_time_p95=rt,
            join_response_time_ci=0.0, average_degree=1.0, average_overflow_pages=0.0,
            average_memory_wait=0.0, cpu_utilization=0.5, disk_utilization=0.5,
            memory_utilization=0.5,
            timeline=Timeline(window=1.0, windows=[make_window(0, 1, rt)]),
        )

    aggregate = aggregate_results([result_with(0.2), result_with(0.6)])
    assert aggregate.mean.timeline.series("join_rt_mean") == pytest.approx([0.4])
    assert "timeline" not in aggregate.stddev


# -- spec expansion -----------------------------------------------------------------
def test_timeline_points_expand_with_duration_and_window():
    points = tiny_spec().points()
    assert len(points) == 1
    point = points[0]
    assert point.kind == "timeline"
    assert point.max_simulated_time == 10.0
    assert point.timeline_window == 2.0
    assert point.arrival_kind == "step"
    assert dict(point.arrival_params)["surge_factor"] == 2.0
    assert point.num_queries is None and point.measured_joins is None


def test_timeline_window_defaults_when_unset():
    points = tiny_spec(timeline_window=None).points()
    assert points[0].timeline_window == DEFAULT_TIMELINE_WINDOW


def test_arrival_axis_expands_one_point_per_kind():
    spec = tiny_spec(arrivals=("poisson", "mmpp"), arrival_params=(), series="{strategy} [{arrival}]")
    points = spec.points()
    assert [p.arrival_kind for p in points] == ["poisson", "mmpp"]
    assert points[0].series == "OPT-IO-CPU [poisson]"
    # Non-arrival points do not inherit the sweep's arrival params.
    assert all(p.arrival_params == () for p in points)


def test_sweep_validation_rejects_bad_arrival_axes():
    with pytest.raises(ValueError, match="unknown arrival kind"):
        tiny_timeline_sweep(arrivals=("weibull",))
    with pytest.raises(ValueError, match="only apply to multi/timeline"):
        Sweep(kind="single", scenario="homogeneous", strategies=("S",),
              system_sizes=(4,), arrivals=("step",))
    with pytest.raises(ValueError, match="timeline_window"):
        Sweep(kind="multi", scenario="homogeneous", strategies=("S",),
              system_sizes=(4,), timeline_window=1.0)
    with pytest.raises(ValueError, match="positive"):
        tiny_timeline_sweep(timeline_window=0.0)
    # A trace must be materialised, which only timeline points do; multi
    # sweeps would silently fall back to live Poisson under a trace label.
    with pytest.raises(ValueError, match="'trace' requires a timeline"):
        Sweep(kind="multi", scenario="homogeneous", strategies=("S",),
              system_sizes=(4,), arrivals=("trace",))


def test_cache_key_covers_arrival_and_window(tmp_path):
    cache = ResultCache(tmp_path)
    base = tiny_spec().points()[0]
    from dataclasses import replace

    assert cache.key(base) != cache.key(replace(base, arrival_kind="mmpp"))
    assert cache.key(base) != cache.key(
        replace(base, arrival_params=(("surge_factor", 3.0),))
    )
    assert cache.key(base) != cache.key(replace(base, timeline_window=1.0))


# -- perturbed sweeps ---------------------------------------------------------------
def perturbed_spec(replicates=3):
    sweep = Sweep(
        kind="multi",
        scenario="homogeneous",
        strategies=("OPT-IO-CPU",),
        system_sizes=(4,),
        rates=(0.25,),
        selectivities=(0.01,),
        perturb=(("arrival_rate", 0.1), ("selectivity", 0.2)),
        replicates=replicates,
    )
    return ScenarioSpec(name="p", title="p", x_label="x", sweeps=(sweep,),
                        measured_joins=5, max_simulated_time=5.0)


def test_perturb_jitters_replicates_but_not_replicate_zero():
    points = perturbed_spec().points()
    assert points[0].rate == 0.25 and points[0].selectivity == 0.01
    for point in points[1:]:
        assert point.rate != 0.25
        assert 0.225 <= point.rate <= 0.275
        assert 0.008 <= point.selectivity <= 0.012
    # Distinct jitter per replicate, nominal (series, x) shared by all.
    assert len({p.rate for p in points}) == 3
    assert len({(p.series, p.x) for p in points}) == 1


def test_perturb_is_deterministic_across_expansions():
    first = perturbed_spec().points()
    second = perturbed_spec().points()
    assert [(p.rate, p.selectivity, p.seed) for p in first] == [
        (p.rate, p.selectivity, p.seed) for p in second
    ]


def test_perturb_validation():
    with pytest.raises(ValueError, match="unknown perturb axis"):
        Sweep(kind="multi", scenario="homogeneous", strategies=("S",),
              system_sizes=(4,), perturb=(("buffer_pages", 0.1),))
    with pytest.raises(ValueError, match="fraction"):
        Sweep(kind="multi", scenario="homogeneous", strategies=("S",),
              system_sizes=(4,), rates=(0.25,), perturb=(("arrival_rate", 1.5),))
    with pytest.raises(ValueError, match="explicit rates"):
        Sweep(kind="multi", scenario="homogeneous", strategies=("S",),
              system_sizes=(4,), perturb=(("arrival_rate", 0.1),))
    with pytest.raises(ValueError, match="explicit selectivities"):
        Sweep(kind="multi", scenario="homogeneous", strategies=("S",),
              system_sizes=(4,), perturb=(("selectivity", 0.1),))


def test_perturbed_replicates_aggregate_under_nominal_coordinate():
    runner = ParallelRunner(workers=1)
    aggregated = runner.run_aggregated(perturbed_spec(replicates=2))
    assert len(aggregated.points) == 1
    assert aggregated.points[0].n == 2


# -- runner integration -------------------------------------------------------------
def test_timeline_point_identical_across_worker_counts():
    spec = ScenarioSpec(
        name="tl",
        title="tiny timeline",
        x_label="# PE",
        sweeps=(tiny_timeline_sweep(strategies=("OPT-IO-CPU", "psu_opt+RANDOM")),),
        max_simulated_time=8.0,
    )
    serial = ParallelRunner(workers=1).run(spec)
    parallel = ParallelRunner(workers=2).run(spec)
    for left, right in zip(serial.points, parallel.points):
        assert left.result.to_json() == right.result.to_json()
        assert left.result.timeline is not None


def test_timeline_survives_result_cache(tmp_path):
    cache = ResultCache(tmp_path)
    spec = tiny_spec()
    first = ParallelRunner(workers=1, cache=cache).run(spec)
    assert cache.misses == 1
    second = ParallelRunner(workers=1, cache=cache).run(spec)
    assert cache.hits == 1
    assert first.points[0].result.to_json() == second.points[0].result.to_json()
    assert second.points[0].result.timeline is not None


def test_trace_point_matches_poisson_arrival_stream():
    """--arrival trace materialises exactly the live Poisson arrivals."""
    trace_point = tiny_spec(arrivals=("trace",), arrival_params=()).points()[0]
    result = run_point_spec(trace_point)
    assert result.timeline is not None
    assert result.joins_completed > 0
    # The replayed run's completion pattern matches a live poisson run of
    # the same seed closely: the arrival instants are identical, so the
    # number of arrivals (and hence completions) per window agree.
    poisson_point = tiny_spec(arrivals=("poisson",), arrival_params=()).points()[0]
    live = run_point_spec(poisson_point)
    assert [w.joins_completed for w in result.timeline.windows] == [
        w.joins_completed for w in live.timeline.windows
    ]


# -- dynamic scenario ---------------------------------------------------------------
def test_dynamic_scenarios_are_registered():
    from repro.runner import available_scenarios

    names = available_scenarios()
    assert "dynamic" in names and "dynamic-mmpp" in names


def test_dynamic_scenario_shows_surge_separation():
    """Acceptance: dynamic beats the naive static strategy during the surge."""
    spec = build_scenario(
        "dynamic",
        system_sizes=(20,),
        strategies=("OPT-IO-CPU", "psu_noIO+RANDOM"),
        max_simulated_time=40.0,
        timeline_window=5.0,
        arrival_params=(("surge_factor", 2.0), ("surge_start", 15.0), ("surge_end", 30.0)),
    )
    experiment = ParallelRunner(workers=2).run(spec)
    timelines = {
        series: experiment.series(series)[0].result.timeline
        for series in experiment.series_names()
    }
    dynamic = [w.join_rt_mean for w in timelines["OPT-IO-CPU"] if 15.0 <= w.start < 30.0]
    static = [
        w.join_rt_mean for w in timelines["psu_noIO+RANDOM"] if 15.0 <= w.start < 30.0
    ]
    assert len(dynamic) == 3 and len(static) == 3
    # Static saturates: every surge window at least 1.5x slower than dynamic.
    for dyn, stat in zip(dynamic, static):
        assert stat > 1.5 * dyn


def test_render_timeline_table_lists_windows():
    from repro.experiments.dynamic import render_timeline_table

    experiment = ParallelRunner(workers=1).run(tiny_spec())
    table = render_timeline_table(experiment)
    assert "per window" in table
    assert "[   0.0,   2.0)" in table
    empty = ParallelRunner(workers=1).run(
        ScenarioSpec(name="e", title="e", x_label="x", sweeps=())
    )
    assert render_timeline_table(empty) == "(no timeline data)"


# -- export -------------------------------------------------------------------------
def test_collect_rows_includes_window_rows():
    from repro.experiments.export import collect_rows

    experiment = ParallelRunner(workers=1).run(tiny_spec())
    rows = collect_rows(experiment)
    window_rows = [row for row in rows if row["row_type"] == "window"]
    assert len(window_rows) == 5
    assert [row["window_index"] for row in window_rows] == list(range(5))
    assert {"t_start", "t_end", "join_rt_ms", "cpu_imbalance", "mem_util"} <= set(
        window_rows[0]
    )


def test_collect_rows_includes_window_mean_rows_for_replicates():
    from repro.experiments.export import collect_rows

    spec = tiny_spec().with_replicates(2)
    experiment = ParallelRunner(workers=1).run(spec)
    rows = collect_rows(experiment, experiment.aggregate())
    kinds = {row["row_type"] for row in rows}
    assert {"replicate", "window", "aggregate", "window_mean"} <= kinds
    window_mean = [row for row in rows if row["row_type"] == "window_mean"]
    assert len(window_mean) == 5


def test_export_rows_json_round_trips_window_rows(tmp_path):
    from repro.experiments.export import collect_rows, export_rows

    experiment = ParallelRunner(workers=1).run(tiny_spec())
    path = export_rows(collect_rows(experiment), tmp_path / "out.json", "json")
    data = json.loads(path.read_text())
    assert any(row["row_type"] == "window" for row in data)


def test_timeline_expansion_rejects_non_positive_duration():
    spec = ScenarioSpec(name="t", title="t", x_label="x",
                        sweeps=(tiny_timeline_sweep(),), max_simulated_time=0.0)
    with pytest.raises(ValueError, match="positive run duration"):
        spec.points()


def test_sweep_rejects_orphan_arrival_params():
    with pytest.raises(ValueError, match="arrival_params"):
        Sweep(kind="timeline", scenario="homogeneous", strategies=("S",),
              system_sizes=(4,), arrival_params=(("surge_factor", 3.0),))


# -- fault observability (PR 8) -----------------------------------------------------
def test_window_fault_fields_default_clean_and_round_trip():
    assert TimelineWindow(start=0, end=1).availability == 1.0
    assert TimelineWindow(start=0, end=1).anomaly == ""
    timeline = Timeline(window=1.0, windows=[
        TimelineWindow(start=0, end=1, availability=0.75, anomaly="pe_crash:pe1")
    ])
    back = Timeline.from_dict(json.loads(json.dumps(timeline.to_dict())))
    assert back.windows[0].availability == 0.75
    assert back.windows[0].anomaly == "pe_crash:pe1"
    assert back == timeline


def test_aggregate_timelines_availability_mean_and_anomaly_carry():
    def tl(availability, anomaly):
        return Timeline(window=1.0, windows=[
            TimelineWindow(start=0, end=1, availability=availability, anomaly=anomaly)
        ])

    same = aggregate_timelines([tl(0.5, "pe_crash:pe1"), tl(1.0, "pe_crash:pe1")])
    assert same.windows[0].availability == pytest.approx(0.75)
    # The anomaly label is categorical: carried when replicates agree...
    assert same.windows[0].anomaly == "pe_crash:pe1"
    # ...dropped (not concatenated) when they do not.
    mixed = aggregate_timelines([tl(0.5, "degrade:pe1"), tl(1.0, "pe_crash:pe2")])
    assert mixed.windows[0].anomaly == ""


def test_close_window_with_no_completions_is_guarded():
    # A window in which nothing completed must fold to zero filler stats --
    # never a ZeroDivisionError (empty rts / empty oltp lists).
    from repro.metrics.timeline import TimelineCollector

    driver = SimulationDriver(homogeneous_config(2))
    collector = TimelineCollector(driver.env, driver.system.pes, 1.0)
    collector.start()
    driver.env.run(until=2.5)
    collector.finalize()
    timeline = collector.to_timeline()
    assert len(timeline) == 3
    for window in timeline:
        assert window.joins_completed == 0
        assert window.join_rt_mean == 0.0
        assert window.join_rt_p95 == 0.0
        assert window.join_throughput == 0.0
        assert window.availability == 1.0
        assert window.anomaly == ""


def test_recovery_table_renders_empty_windows_as_missing():
    # The faults scenario's recovery-curve renderer shows "--" for windows
    # with no completions (a halted window has no mean, not a zero mean).
    from repro.experiments.base import ExperimentPoint, ExperimentResult
    from repro.experiments.faults import render_recovery_table
    from repro.simulation.results import SimulationResult

    timeline = Timeline(window=1.0, windows=[
        TimelineWindow(start=0, end=1, joins_completed=2, join_rt_mean=0.5),
        TimelineWindow(start=1, end=2, joins_completed=0, join_rt_mean=0.0),
    ])
    result = SimulationResult(
        strategy="S", num_pe=2, mode="timed", simulated_seconds=2.0,
        joins_completed=2, join_response_time=0.5, join_response_time_p95=0.5,
        join_response_time_ci=0.0, average_degree=1.0, average_overflow_pages=0.0,
        average_memory_wait=0.0, cpu_utilization=0.5, disk_utilization=0.5,
        memory_utilization=0.5, timeline=timeline,
    )
    experiment = ExperimentResult(figure="faults", title="t", x_label="x")
    experiment.add(ExperimentPoint(figure="faults", series="S", x=2.0, result=result))
    table = render_recovery_table(experiment)
    lines = table.splitlines()
    assert any("500.0" in line for line in lines)
    assert any("--" in line for line in lines if line.startswith("[   1.0"))
