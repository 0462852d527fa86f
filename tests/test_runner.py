"""Tests for the declarative scenario engine and the parallel runner."""

import dataclasses

import pytest

from repro.experiments import figure7
from repro.runner import (
    ParallelRunner,
    PointSpec,
    ResultCache,
    ScenarioSpec,
    Sweep,
    available_scenarios,
    build_scenario,
    derive_seed,
    execute_point,
)
from repro.runner.runner import apply_config_overrides, build_config
from repro.simulation.results import SimulationResult


def tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM"), **kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        title="tiny sweep",
        x_label="# PE",
        sweeps=(
            Sweep(kind="multi", scenario="homogeneous", strategies=strategies,
                  system_sizes=(10,)),
        ),
        measured_joins=5,
        max_simulated_time=20.0,
        **kwargs,
    )


# -- spec model and expansion ------------------------------------------------------
def test_registry_contains_all_figures():
    names = available_scenarios()
    for name in ("figure1", "figure5", "figure6", "figure7", "figure8",
                 "figure9a", "figure9b", "parameters"):
        assert name in names


def test_expansion_matches_legacy_loop_order():
    spec = figure7.build_spec(system_sizes=(20, 30), arrival_rates=(0.05, 0.025))
    points = spec.points()
    multi = [p for p in points if p.kind == "multi"]
    # size outer, rate next, strategy inner -- the legacy figure loop order.
    assert [(p.num_pe, p.rate, p.strategy) for p in multi[:4]] == [
        (20, 0.05, "pmu_cpu+LUM"),
        (20, 0.05, "MIN-IO-SUOPT"),
        (20, 0.025, "pmu_cpu+LUM"),
        (20, 0.025, "MIN-IO-SUOPT"),
    ]
    assert multi[0].series == "pmu_cpu+LUM @0.05 QPS/PE"
    singles = [p for p in points if p.kind == "single"]
    assert {p.series for p in singles} == {
        "pmu_cpu+LUM single-user",
        "MIN-IO-SUOPT single-user",
    }


def test_expansion_skips_degrees_above_system_size():
    sweep = Sweep(kind="fixed-degree", scenario="homogeneous", system_sizes=(8, 16),
                  degrees=(1, 4, 16), x_axis="degree")
    spec = ScenarioSpec(name="degrees", title="degrees", x_label="join procs",
                        sweeps=(sweep,))
    points = spec.points()
    # Degree 16 runs on the 16-PE system only.
    assert [(p.num_pe, p.degree) for p in points] == [(8, 1), (8, 4), (16, 1), (16, 4), (16, 16)]
    assert [p.x for p in points] == [1.0, 4.0, 1.0, 4.0, 16.0]


def test_sweep_validation_rejects_bad_axes():
    with pytest.raises(ValueError):
        Sweep(kind="multi", strategies=(), system_sizes=(10,))
    with pytest.raises(ValueError):
        Sweep(kind="multi", strategies=("X",), system_sizes=())
    with pytest.raises(ValueError):
        Sweep(kind="warp", strategies=("X",), system_sizes=(10,))
    with pytest.raises(ValueError):
        Sweep(kind="fixed-degree", system_sizes=(10,))
    with pytest.raises(ValueError, match=r"degree 16 exceeds every system size \[4, 8\]"):
        Sweep(kind="fixed-degree", system_sizes=(4, 8), degrees=(1, 16))


def test_sweep_validation_rejects_x_axis_without_axis_values():
    with pytest.raises(ValueError):
        Sweep(kind="multi", strategies=("X",), system_sizes=(10,), x_axis="rate")
    with pytest.raises(ValueError):
        Sweep(kind="multi", strategies=("X",), system_sizes=(10,), x_axis="selectivity_pct")
    with pytest.raises(ValueError):
        Sweep(kind="multi", strategies=("X",), system_sizes=(10,), x_axis="degree")


def test_sweep_rejects_degree_x_axis_on_strategy_kinds():
    # Degrees on a strategy sweep never reach the points; the x value would
    # be float(None) at expansion.
    with pytest.raises(ValueError, match="not kind 'multi'"):
        Sweep(kind="multi", strategies=("X",), system_sizes=(10,), degrees=(2,),
              x_axis="degree")


def test_sweep_rejects_duplicate_perturb_names():
    with pytest.raises(ValueError, match="duplicate perturb name 'arrival_rate'"):
        Sweep(kind="multi", strategies=("X",), system_sizes=(10,), rates=(0.2,),
              perturb=(("arrival_rate", 0.1), ("arrival_rate", 0.2)))


def test_sweep_rejects_duplicate_arrival_params():
    with pytest.raises(ValueError, match="duplicate arrival_params name 'surge_factor'"):
        Sweep(kind="timeline", strategies=("X",), system_sizes=(10,), arrivals=("step",),
              arrival_params=(("surge_factor", 3.0), ("surge_factor", 5.0)))


def test_axis_table_is_consistent():
    from repro.runner.spec import OPTIONAL_AXES, SEED_GROUPS

    # Every optional axis joins derived seeds exactly once, in table order.
    assert [name for group in SEED_GROUPS for name in group] == [
        axis.point_field for axis in OPTIONAL_AXES
    ]
    sweep_fields = {spec_field.name for spec_field in dataclasses.fields(Sweep)}
    point_fields = {spec_field.name for spec_field in dataclasses.fields(PointSpec)}
    for axis in OPTIONAL_AXES:
        assert axis.sweep_field in sweep_fields
        assert axis.point_field in point_fields
        assert axis.canonical(None) is None
        assert getattr(Sweep, axis.sweep_field) == (None,)


def test_expansion_resolves_env_run_limits_into_points(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_JOINS", "17")
    monkeypatch.setenv("REPRO_BENCH_TIME_LIMIT", "33.5")
    spec = tiny_spec()
    spec = dataclasses.replace(spec, measured_joins=None, max_simulated_time=None)
    point = spec.points()[0]
    assert point.measured_joins == 17
    assert point.max_simulated_time == 33.5
    # Different environment settings therefore produce different cache keys.
    cache = ResultCache("unused")
    key_17 = cache.key(point)
    monkeypatch.setenv("REPRO_BENCH_JOINS", "99")
    assert cache.key(spec.points()[0]) != key_17


def test_run_scenario_runs_figure6_by_name():
    from repro.experiments.base import run_scenario

    experiment = run_scenario("figure6", system_sizes=(10,), strategies=("OPT-IO-CPU",),
                              measured_joins=5, max_simulated_time=20,
                              include_single_user=False)
    assert experiment.series_names() == ["OPT-IO-CPU"]


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(42, "a", 1.0) == derive_seed(42, "a", 1.0)
    assert derive_seed(42, "a", 1.0) != derive_seed(42, "b", 1.0)
    assert derive_seed(42, "a", 1.0) != derive_seed(43, "a", 1.0)


def test_reseed_per_point_gives_distinct_deterministic_seeds():
    sweep = Sweep(kind="multi", scenario="homogeneous", strategies=("A", "B"),
                  system_sizes=(10, 20), reseed_per_point=True)
    spec = ScenarioSpec(name="s", title="s", x_label="x", sweeps=(sweep,), seed=7)
    seeds = [p.seed for p in spec.points()]
    assert len(set(seeds)) == 4
    assert seeds == [p.seed for p in spec.points()]  # stable across expansions


# -- config building ---------------------------------------------------------------
def test_apply_config_overrides_nested_paths():
    point = PointSpec(figure="f", series="s", x=1, kind="multi", scenario="homogeneous",
                      num_pe=10, seed=42,
                      config_overrides=(("buffer.buffer_pages", 25), ("seed", 9)))
    config = build_config(point)
    assert config.buffer.buffer_pages == 25
    assert config.seed == 9


def test_apply_config_overrides_rejects_unknown_field():
    config = build_config(PointSpec(figure="f", series="s", x=1, kind="multi",
                                    scenario="homogeneous", num_pe=10, seed=42))
    with pytest.raises(AttributeError):
        apply_config_overrides(config, [("buffer.no_such_field", 1)])
    with pytest.raises(AttributeError):
        apply_config_overrides(config, [("with_overrides", 1)])  # method, not a field
    with pytest.raises(AttributeError):
        apply_config_overrides(config, [("join_query", 5)])  # section, not a scalar


def test_build_config_scenarios_apply_axes():
    memory = build_config(PointSpec(figure="f", series="s", x=1, kind="multi",
                                    scenario="memory-bound", num_pe=20, seed=1,
                                    rate=0.025, selectivity=0.02))
    assert memory.buffer.buffer_pages == 5
    assert memory.disk.disks_per_pe == 1
    assert memory.join_query.arrival_rate_per_pe == 0.025
    assert memory.join_query.scan_selectivity == 0.02
    mixed = build_config(PointSpec(figure="f", series="s", x=1, kind="multi",
                                   scenario="mixed", num_pe=20, seed=1,
                                   oltp_placement="B"))
    assert mixed.oltp is not None and mixed.oltp.placement == "B"


# -- execution ---------------------------------------------------------------------
def test_execute_point_returns_picklable_dict():
    point = PointSpec(figure="f", series="s", x=10, kind="multi", scenario="homogeneous",
                      num_pe=10, seed=42, strategy="OPT-IO-CPU",
                      measured_joins=5, max_simulated_time=20.0)
    data = execute_point(dataclasses.asdict(point))
    assert isinstance(data, dict)
    result = SimulationResult.from_dict(data)
    assert result.joins_completed >= 5
    assert result.num_pe == 10


def test_serial_and_parallel_runs_are_identical():
    spec = tiny_spec()
    serial = ParallelRunner(workers=1).run(spec)
    parallel = ParallelRunner(workers=2).run(spec)
    assert [(p.series, p.x) for p in serial.points] == [
        (p.series, p.x) for p in parallel.points
    ]
    for left, right in zip(serial.points, parallel.points):
        assert left.result == right.result  # bit-identical across process fan-out


def test_cache_hit_returns_identical_result(tmp_path):
    spec = tiny_spec(strategies=("OPT-IO-CPU",))
    cache = ResultCache(tmp_path / "cache")
    first = ParallelRunner(workers=1, cache=cache).run(spec)
    assert cache.hits == 0
    warm = ResultCache(tmp_path / "cache")
    second = ParallelRunner(workers=1, cache=warm).run(spec)
    assert warm.hits == len(spec.points())
    for left, right in zip(first.points, second.points):
        assert left.result == right.result


def test_cache_key_ignores_presentation_fields(tmp_path):
    cache = ResultCache(tmp_path)
    point = PointSpec(figure="f", series="s", x=10, kind="multi", scenario="homogeneous",
                      num_pe=10, seed=42, strategy="OPT-IO-CPU", measured_joins=5)
    relabelled = dataclasses.replace(point, figure="g", series="other", x=99)
    assert cache.key(point) == cache.key(relabelled)
    resized = dataclasses.replace(point, num_pe=20)
    assert cache.key(point) != cache.key(resized)


def test_cache_tolerates_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    point = PointSpec(figure="f", series="s", x=10, kind="multi", scenario="homogeneous",
                      num_pe=10, seed=42, strategy="OPT-IO-CPU", measured_joins=5)
    cache.path(point).parent.mkdir(parents=True, exist_ok=True)
    cache.path(point).write_text("{not json")
    assert cache.get(point) is None


def test_registry_build_scenario_applies_overrides():
    spec = build_scenario("figure6", system_sizes=(10,), strategies=("OPT-IO-CPU",),
                          measured_joins=7, include_single_user=False)
    points = spec.points()
    assert len(points) == 1
    assert points[0].measured_joins == 7
    with pytest.raises(KeyError):
        build_scenario("figure42")


def test_runner_rejects_negative_workers():
    with pytest.raises(ValueError):
        ParallelRunner(workers=-1)
    assert ParallelRunner(workers=None).workers >= 1
    assert ParallelRunner(workers=0).workers >= 1


# -- cache robustness under corruption and concurrent writers ----------------------
def _cache_point() -> PointSpec:
    return PointSpec(figure="f", series="s", x=10, kind="multi", scenario="homogeneous",
                     num_pe=10, seed=42, strategy="OPT-IO-CPU", measured_joins=5)


def _marker_result(marker: float) -> SimulationResult:
    return SimulationResult(
        strategy="s", num_pe=10, mode="multi-user", simulated_seconds=marker,
        joins_completed=5, join_response_time=0.1, join_response_time_p95=0.2,
        join_response_time_ci=0.0, average_degree=1.0, average_overflow_pages=0.0,
        average_memory_wait=0.0, cpu_utilization=0.5, disk_utilization=0.5,
        memory_utilization=0.5,
    )


def _hammer_cache(root: str, marker: float, iterations: int = 150) -> None:
    cache = ResultCache(root)
    point = _cache_point()
    result = _marker_result(marker)
    for _ in range(iterations):
        cache.put(point, result)


def test_cache_corrupt_entry_is_rewritten(tmp_path):
    cache = ResultCache(tmp_path)
    point = _cache_point()
    path = cache.put(point, _marker_result(1.0))
    # Truncate to a valid-JSON prefix of the real payload: still a miss.
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    assert cache.get(point) is None
    assert cache.misses == 1
    cache.put(point, _marker_result(2.0))
    restored = cache.get(point)
    assert restored is not None
    assert restored.simulated_seconds == 2.0


def test_cache_concurrent_writers_never_interleave(tmp_path):
    """Two processes storing the same key leave only complete entries behind."""
    import json as json_module
    from concurrent.futures import ProcessPoolExecutor

    cache = ResultCache(tmp_path)
    point = _cache_point()
    path = cache.path(point)
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(_hammer_cache, str(tmp_path), marker) for marker in (1.0, 2.0)
        ]
        # Read concurrently while both writers hammer the same key: every
        # observed file content must parse as one complete payload.
        observed = set()
        while any(not future.done() for future in futures):
            try:
                data = json_module.loads(path.read_text())
            except FileNotFoundError:
                continue
            observed.add(data["result"]["simulated_seconds"])
        for future in futures:
            future.result()
    assert observed <= {1.0, 2.0}
    final = cache.get(point)
    assert final is not None and final.simulated_seconds in (1.0, 2.0)
    # No temp files left behind.
    assert not list(tmp_path.glob("*.tmp"))
