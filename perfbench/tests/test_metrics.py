"""Metric names, BENCHMARK.json agreement and the digest check."""

import copy
import json
import math
import re

import pytest

import run
from tracer import ROOT, SPANS
from workloads import WORKLOADS, build_spec, check_digests, sweep_digest, task_digest

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_well_formed():
    metrics = list(run.END_TO_END) + [(name, unit) for name, unit, _ in run.PER_LAYER]
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_matches_the_emitted_metrics():
    document = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in document["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in document["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    for workload in document["workloads"]:
        assert NAME.fullmatch(workload["name"])


def test_every_self_time_source_is_a_traced_layer():
    layers = {layer for layer, _, _ in SPANS} | {ROOT}
    for name, _, source in run.PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "self":
            assert key in layers, name


def test_mixed_oltp_simulates_figure9b_point_14():
    from repro.runner import build_scenario
    from repro.runner.runner import build_config

    (point,) = build_spec("mixed_oltp", 42).points()
    reference = build_scenario("figure9b").points()[14]
    assert build_config(point) == build_config(reference)
    assert (point.kind, point.strategy, point.warmup_joins) == ("multi", "OPT-IO-CPU", 8)
    assert point.max_simulated_time == 16.0


def test_seed_reaches_every_point_through_the_spec():
    for workload in WORKLOADS:
        default = build_spec(workload, 42).points()
        other = build_spec(workload, 7).points()
        assert len(default) == len(other)
        assert all(a.seed != b.seed for a, b in zip(default, other))


def test_references_pin_every_workload():
    from workloads import load_references

    references = load_references()
    sizes = {"mixed_oltp": 1, "failover_sweep": 48}
    assert set(references) == set(WORKLOADS)
    for workload, reference in references.items():
        assert len(reference["tasks"]) == sizes[workload]
        assert reference["digest"] == sweep_digest(reference["tasks"])


RESULT = {
    "join_response_time": 1.25,
    "events": [1, 2, 3],
    "timeline": {"windows": [{"start": 0.0, "cpu_mean": 0.5, "wall_s": 0.1}]},
}


def test_digest_flags_a_perturbed_output():
    digest = task_digest(RESULT, 100, 5)
    reference = {"digest": sweep_digest([digest]), "tasks": [digest]}
    assert check_digests([digest], reference) == []

    perturbed = copy.deepcopy(RESULT)
    perturbed["timeline"]["windows"][0]["cpu_mean"] = math.nextafter(0.5, 1.0)
    assert check_digests([task_digest(perturbed, 100, 5)], reference) == [0]
    assert check_digests([task_digest(RESULT, 101, 5)], reference) == [0]
    assert check_digests([task_digest(RESULT, 100, 6)], reference) == [0]
    assert check_digests([digest, digest], reference) == [0, 1]
    assert check_digests([task_digest(perturbed, 100, 5)], None) == []

    record = {"digests": [task_digest(perturbed, 100, 5)], "failed": [],
              "idle_sleeps": 0, "wait_sleeps": 0, "tasks": 1}
    assert run.failed_tasks([record], reference) == 1


def test_digest_ignores_wall_clock_fields():
    timed = copy.deepcopy(RESULT)
    timed["timeline"]["windows"][0]["wall_s"] = 99.0
    timed["wall_seconds"] = 3.0
    assert task_digest(timed, 100, 5) == task_digest(RESULT, 100, 5)


def test_repetitions_that_disagree_or_sleep_fail():
    a, b = task_digest(RESULT, 1, 0), task_digest(RESULT, 2, 0)
    first = {"digests": [a], "failed": [], "idle_sleeps": 0, "wait_sleeps": 0, "tasks": 1}
    second = dict(first, digests=[b])
    assert run.failed_tasks([first, first], None) == 0
    assert run.failed_tasks([first, second], None) == 1
    assert run.failed_tasks([dict(first, idle_sleeps=1)], None) == 1


@pytest.mark.parametrize("values,expected", [([4.0], (4.0, 4.0)),
                                             ([1.0, 2.0, 3.0, 4.0], (2.5, 3.75))])
def test_task_overhead_percentiles(values, expected):
    assert run._percentiles(values) == pytest.approx(expected)
