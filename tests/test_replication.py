"""Tests for the replication + aggregation layer and the runner bug fixes.

Covers the replicate axis (expansion, seed uniqueness, cache keys), the
mean/stddev/95 % CI aggregation math against hand-computed values, CSV/JSON
export round-trips, worker-count determinism of aggregates, and regression
tests for the falsy ``num_queries`` default, per-point seed collisions,
worker-failure reporting and exact-float x grouping.
"""

import csv
import dataclasses
import json
import math

import pytest

from repro.experiments.base import (
    AggregatedExperimentResult,
    ExperimentPoint,
    ExperimentResult,
    default_time_limit,
)
from repro.experiments.export import collect_rows, export_rows
from repro.runner import (
    ParallelRunner,
    PointExecutionError,
    PointSpec,
    ResultCache,
    ScenarioSpec,
    Sweep,
)
from repro.simulation.results import (
    SimulationResult,
    aggregate_results,
    mean_std_ci95,
    t_critical_95,
)


def make_result(strategy="s", rt=0.5, num_pe=20, extras=None):
    return SimulationResult(
        strategy=strategy,
        num_pe=num_pe,
        mode="multi-user",
        simulated_seconds=10.0,
        joins_completed=5,
        join_response_time=rt,
        join_response_time_p95=rt * 1.5,
        join_response_time_ci=0.01,
        average_degree=10.0,
        average_overflow_pages=0.0,
        average_memory_wait=0.0,
        cpu_utilization=0.5,
        disk_utilization=0.1,
        memory_utilization=0.2,
        extras=extras or {},
    )


def tiny_spec(strategies=("OPT-IO-CPU",), replicates=1, **sweep_kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="tiny",
        title="tiny sweep",
        x_label="# PE",
        sweeps=(
            Sweep(kind="multi", scenario="homogeneous", strategies=strategies,
                  system_sizes=(10,), replicates=replicates, **sweep_kwargs),
        ),
        measured_joins=5,
        max_simulated_time=20.0,
    )


# -- replicate expansion ---------------------------------------------------------
def test_replicates_expand_one_point_per_replicate():
    spec = tiny_spec(strategies=("A", "B"), replicates=3)
    points = spec.points()
    assert len(points) == 6
    assert [p.replicate for p in points if p.strategy == "A"] == [0, 1, 2]
    # All replicates of a series share the presentation coordinates.
    assert {(p.series, p.x) for p in points if p.strategy == "A"} == {("A", 10.0)}


def test_replicate_seeds_are_unique_and_stable():
    spec = tiny_spec(strategies=("A", "B"), replicates=4)
    points = spec.points()
    # Within one (series, x) point every replicate observes a distinct seed.
    for series in ("A", "B"):
        seeds = [p.seed for p in points if p.series == series]
        assert len(set(seeds)) == 4
    # Derived seeds (replicate >= 1) never collide across points either.
    derived = [p.seed for p in points if p.replicate > 0]
    assert len(set(derived)) == len(derived)
    assert [p.seed for p in points] == [p.seed for p in spec.points()]  # stable
    # Replicate 0 keeps the base seed: replicated runs embed the legacy
    # fixed-seed run (the paper runs every configuration at seed 42).
    assert [p.seed for p in points if p.replicate == 0] == [42, 42]


def test_with_replicates_copies_spec():
    spec = tiny_spec()
    replicated = spec.with_replicates(3)
    assert len(replicated.points()) == 3 * len(spec.points())
    assert len(spec.points()) == 1  # original untouched
    with pytest.raises(ValueError):
        spec.with_replicates(0)


def test_sweep_rejects_bad_replicates_and_num_queries():
    with pytest.raises(ValueError):
        Sweep(kind="multi", strategies=("A",), system_sizes=(10,), replicates=0)
    with pytest.raises(ValueError):
        Sweep(kind="single", strategies=("A",), system_sizes=(10,), num_queries=0)
    with pytest.raises(ValueError):
        Sweep(kind="fixed-degree", degrees=(2,), system_sizes=(10,), num_queries=-3)


def test_explicit_num_queries_is_not_replaced_by_default():
    # Regression: `sweep.num_queries or default` silently replaced falsy
    # values; the explicit value must survive expansion.
    sweep = Sweep(kind="single", strategies=("A",), system_sizes=(10,), num_queries=1)
    spec = ScenarioSpec(name="s", title="s", x_label="x", sweeps=(sweep,))
    assert [p.num_queries for p in spec.points()] == [1]
    defaults = ScenarioSpec(
        name="s", title="s", x_label="x",
        sweeps=(
            Sweep(kind="single", strategies=("A",), system_sizes=(10,)),
            Sweep(kind="fixed-degree", degrees=(2,), system_sizes=(10,)),
        ),
    ).points()
    assert [p.num_queries for p in defaults] == [5, 2]


def test_analytic_points_are_never_replicated():
    sweep = Sweep(kind="analytic", scenario="homogeneous", degrees=(2, 4),
                  system_sizes=(10,), x_axis="degree", replicates=5)
    spec = ScenarioSpec(name="s", title="s", x_label="x", sweeps=(sweep,))
    points = spec.points()
    assert len(points) == 2
    assert all(p.replicate == 0 for p in points)


def test_cache_key_includes_replicate(tmp_path):
    cache = ResultCache(tmp_path)
    point = PointSpec(figure="f", series="s", x=10, kind="multi", scenario="homogeneous",
                      num_pe=10, seed=42, strategy="OPT-IO-CPU", measured_joins=5)
    other = dataclasses.replace(point, replicate=1)
    assert cache.key(point) != cache.key(other)
    assert ("replicate", 0) in point.cache_payload()


# -- seed collision regressions --------------------------------------------------
def test_reseed_distinguishes_points_sharing_label_and_x():
    # Regression: seeds derived from (series label, x) collided for points
    # whose label did not interpolate a varying axis (placement here).
    sweep = Sweep(kind="multi", scenario="mixed", strategies=("OPT-IO-CPU",),
                  system_sizes=(10,), oltp_placements=("A", "B"),
                  series="{strategy}", reseed_per_point=True)
    spec = ScenarioSpec(name="s", title="s", x_label="x", sweeps=(sweep,))
    points = spec.points()
    assert points[0].series == points[1].series and points[0].x == points[1].x
    assert points[0].seed != points[1].seed


def test_reseed_distinguishes_rate_axis_not_in_label():
    sweep = Sweep(kind="multi", scenario="homogeneous", strategies=("OPT-IO-CPU",),
                  system_sizes=(10,), rates=(0.2, 0.3),
                  series="{strategy}", reseed_per_point=True)
    spec = ScenarioSpec(name="s", title="s", x_label="x", sweeps=(sweep,))
    seeds = [p.seed for p in spec.points()]
    assert len(set(seeds)) == 2


def test_replicates_of_one_point_get_distinct_seeds():
    sweep = Sweep(kind="multi", scenario="homogeneous", strategies=("OPT-IO-CPU",),
                  system_sizes=(10,), reseed_per_point=True, replicates=3)
    spec = ScenarioSpec(name="s", title="s", x_label="x", sweeps=(sweep,))
    seeds = [p.seed for p in spec.points()]
    assert len(set(seeds)) == 3


# -- aggregation math ------------------------------------------------------------
def test_mean_std_ci95_hand_computed():
    mean, std, ci = mean_std_ci95([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(1.0)
    assert ci == pytest.approx(t_critical_95(2) * 1.0 / math.sqrt(3))
    assert ci == pytest.approx(4.303 / math.sqrt(3))
    mean, std, ci = mean_std_ci95([10.0, 12.0, 14.0, 16.0])
    assert mean == pytest.approx(13.0)
    assert std == pytest.approx(math.sqrt(20.0 / 3.0))
    assert ci == pytest.approx(3.182 * math.sqrt(20.0 / 3.0) / 2.0)


def test_mean_std_ci95_degenerate_cases():
    assert mean_std_ci95([5.0]) == (5.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        mean_std_ci95([])
    with pytest.raises(ValueError):
        t_critical_95(0)
    # Off-table df floors to the largest tabulated df below it, so the
    # critical value is conservative (never narrower than the true 95 % CI).
    assert t_critical_95(35) == pytest.approx(2.042)  # t(30)
    assert t_critical_95(45) == pytest.approx(2.021)  # t(40)
    assert t_critical_95(200) == pytest.approx(1.980)  # t(120)


def test_aggregate_results_field_wise_mean_and_ci():
    results = [make_result(rt=0.1, extras={"k": 1.0}),
               make_result(rt=0.2, extras={"k": 3.0}),
               make_result(rt=0.3, extras={"k": 5.0})]
    aggregate = aggregate_results(results)
    assert aggregate.n == 3
    assert aggregate.mean.join_response_time == pytest.approx(0.2)
    assert aggregate.mean.strategy == "s" and aggregate.mean.num_pe == 20
    assert aggregate.stddev["join_response_time"] == pytest.approx(0.1)
    assert aggregate.ci95["join_response_time"] == pytest.approx(
        4.303 * 0.1 / math.sqrt(3)
    )
    assert aggregate.mean.extras["k"] == pytest.approx(3.0)
    assert aggregate.stddev["extras.k"] == pytest.approx(2.0)


def test_aggregate_results_drops_extras_missing_from_some_replicates():
    # A key absent from one replicate would otherwise be aggregated over a
    # smaller sample than the reported n; such keys are dropped entirely.
    results = [make_result(rt=0.1, extras={"k": 1.0, "partial": 9.0}),
               make_result(rt=0.2, extras={"k": 3.0})]
    aggregate = aggregate_results(results)
    assert aggregate.n == 2
    assert "partial" not in aggregate.mean.extras
    assert "extras.partial" not in aggregate.ci95
    assert aggregate.mean.extras["k"] == pytest.approx(2.0)


def test_aggregate_results_rejects_mixed_identity():
    with pytest.raises(ValueError):
        aggregate_results([make_result(strategy="a"), make_result(strategy="b")])
    with pytest.raises(ValueError):
        aggregate_results([make_result(num_pe=10), make_result(num_pe=20)])
    with pytest.raises(ValueError):
        aggregate_results([])


def test_experiment_aggregate_groups_series_and_renders_ci_table():
    experiment = ExperimentResult(figure="fx", title="demo", x_label="# PE")
    for replicate, rt in enumerate((0.1, 0.2, 0.3)):
        experiment.add(ExperimentPoint("fx", "A", 10, make_result("A", rt=rt),
                                       replicate=replicate))
    experiment.add(ExperimentPoint("fx", "B", 10, make_result("B", rt=0.4)))
    assert experiment.has_replicates
    # value() returns the first replicate; values() returns all of them.
    assert experiment.value("A", 10).replicate == 0
    assert [p.replicate for p in experiment.values("A", 10)] == [0, 1, 2]
    assert experiment.values("B", 10.0 + 1e-13) == experiment.values("B", 10)
    aggregated = experiment.aggregate()
    assert isinstance(aggregated, AggregatedExperimentResult)
    assert [(p.series, p.n) for p in aggregated.points] == [("A", 3), ("B", 1)]
    a = aggregated.value("A", 10)
    assert a.response_time_ms == pytest.approx(200.0)
    assert a.response_time_ci_ms == pytest.approx(4.303 * 100.0 / math.sqrt(3))
    table = aggregated.table()
    assert "±" in table
    assert "mean ± 95% CI" in table
    # A custom metric without a ci metric renders plain mean cells.
    assert "±" not in aggregated.table(metric=lambda p: p.result.average_degree,
                                      unit="join processors")


# -- exact-float x grouping ------------------------------------------------------
def test_x_values_merge_last_ulp_duplicates():
    # Regression: 0.07 * 100.0 != 7.0 exactly; such rows must not split.
    experiment = ExperimentResult(figure="fx", title="demo", x_label="sel %")
    experiment.add(ExperimentPoint("fx", "A", 7.000000000000001, make_result("A", rt=0.1)))
    experiment.add(ExperimentPoint("fx", "B", 7.0, make_result("B", rt=0.2)))
    assert len(experiment.x_values()) == 1
    assert experiment.value("A", 7.0) is not None
    assert experiment.value("B", 7.000000000000001) is not None
    table = experiment.table()
    assert table.count("\n") == 4  # title, header, rule, one data row, footer


def test_expansion_canonicalises_selectivity_pct_x():
    sweep = Sweep(kind="multi", scenario="join-complexity", strategies=("A",),
                  system_sizes=(60,), selectivities=(0.07,), x_axis="selectivity_pct")
    spec = ScenarioSpec(name="s", title="s", x_label="sel %", sweeps=(sweep,))
    assert spec.points()[0].x == 7.0


def test_default_time_limit_rejects_bad_fallback(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_TIME_LIMIT", raising=False)
    assert default_time_limit(50.0) == 50.0
    for value in ("-3", "inf", "nan"):
        monkeypatch.setenv("REPRO_BENCH_TIME_LIMIT", value)
        assert default_time_limit(50.0) == 50.0
    for fallback in (0.0, float("inf")):
        with pytest.raises(ValueError):
            default_time_limit(fallback)


# -- worker-failure handling -----------------------------------------------------
def test_failing_point_is_named_in_error_serial():
    spec = tiny_spec(strategies=("OPT-IO-CPU", "NO-SUCH"))
    with pytest.raises(PointExecutionError) as excinfo:
        ParallelRunner(workers=1).run(spec)
    assert "NO-SUCH" in str(excinfo.value)
    assert excinfo.value.point.strategy == "NO-SUCH"
    assert excinfo.value.__cause__ is not None


def test_failing_point_is_named_in_error_parallel():
    spec = tiny_spec(strategies=("OPT-IO-CPU", "NO-SUCH", "MIN-IO"))
    with pytest.raises(PointExecutionError) as excinfo:
        ParallelRunner(workers=2).run(spec)
    assert excinfo.value.point.strategy == "NO-SUCH"
    assert "tiny" in str(excinfo.value)


def test_failure_preserves_completed_sibling_work_in_cache(tmp_path):
    # The failing point raises in milliseconds while its sibling simulates;
    # the runner must harvest the sibling's result into the cache before
    # re-raising instead of discarding the completed work.
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(PointExecutionError):
        ParallelRunner(workers=2, cache=cache).run(
            tiny_spec(strategies=("NO-SUCH", "OPT-IO-CPU"))
        )
    warm = ResultCache(tmp_path / "cache")
    ParallelRunner(workers=1, cache=warm).run(tiny_spec(strategies=("OPT-IO-CPU",)))
    assert warm.hits == 1 and warm.misses == 0


# -- end-to-end determinism and export -------------------------------------------
def test_aggregates_identical_across_worker_counts():
    spec = tiny_spec(replicates=2)
    serial = ParallelRunner(workers=1).run(spec).aggregate()
    parallel = ParallelRunner(workers=4).run(spec).aggregate()
    assert [(p.series, p.x, p.aggregate) for p in serial.points] == [
        (p.series, p.x, p.aggregate) for p in parallel.points
    ]
    assert serial.table() == parallel.table()


def test_replicated_run_caches_each_replicate(tmp_path):
    spec = tiny_spec(replicates=2)
    cache = ResultCache(tmp_path / "cache")
    ParallelRunner(workers=1, cache=cache).run(spec)
    warm = ResultCache(tmp_path / "cache")
    ParallelRunner(workers=1, cache=warm).run(spec)
    assert warm.hits == 2 and warm.misses == 0


def test_export_rows_csv_and_json_round_trip(tmp_path):
    experiment = ExperimentResult(figure="fx", title="demo", x_label="# PE")
    for replicate, rt in enumerate((0.1, 0.3)):
        experiment.add(ExperimentPoint("fx", "A", 10, make_result("A", rt=rt),
                                       replicate=replicate))
    rows = collect_rows(experiment, experiment.aggregate())
    assert [row["row_type"] for row in rows] == ["replicate", "replicate", "aggregate"]

    csv_path = export_rows(rows, tmp_path / "out.csv", "csv")
    with csv_path.open() as handle:
        parsed = list(csv.DictReader(handle))
    assert [row["row_type"] for row in parsed] == ["replicate", "replicate", "aggregate"]
    assert [row["replicate"] for row in parsed[:2]] == ["0", "1"]
    aggregate_row = parsed[2]
    assert float(aggregate_row["join_rt_ms"]) == pytest.approx(200.0)
    assert aggregate_row["n"] == "2"
    assert float(aggregate_row["join_rt_ci95_ms"]) > 0

    json_path = export_rows(rows, tmp_path / "out.json", "json")
    parsed_json = json.loads(json_path.read_text())
    assert parsed_json == rows

    with pytest.raises(ValueError):
        export_rows(rows, tmp_path / "out.xml", "xml")
