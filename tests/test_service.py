"""Coordinator service tests: sharding, stitching, /metrics, submissions."""

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.metrics import MetricFamily, render_families, validate_exposition
from repro.runner import (
    DistributedRunner,
    ParallelRunner,
    PointSpec,
    Worker,
    shard_timeline_point,
)
from repro.runner.backends import HttpBackend
from repro.service import Coordinator


def timeline_point(**overrides) -> PointSpec:
    fields = dict(figure="f", series="s", x=10, kind="timeline",
                  scenario="homogeneous", num_pe=10, seed=42,
                  strategy="OPT-IO-CPU", measured_joins=None,
                  max_simulated_time=30.0, timeline_window=5.0)
    fields.update(overrides)
    return PointSpec(**fields)


def point_payload(point: PointSpec) -> dict:
    from dataclasses import asdict

    return asdict(point)


@pytest.fixture
def coordinator():
    coord = Coordinator(lease_seconds=30.0, shard_windows=2)
    coord.start()
    yield coord
    coord.stop()


def scrape(coord: Coordinator) -> str:
    with urllib.request.urlopen(coord.url + "/metrics") as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        return response.read().decode("utf-8")


# -- prometheus renderer ----------------------------------------------------------
def test_metric_family_renders_exposition_format():
    family = MetricFamily("demo_gauge", "gauge", "A demo.")
    family.add({}, 1)
    family.add({"label": 'quote " slash \\ newline \n'}, 2.5)
    family.add({"nan": "x"}, float("nan"))
    text = render_families([family])
    assert "# HELP demo_gauge A demo.\n" in text
    assert "# TYPE demo_gauge gauge\n" in text
    assert 'demo_gauge{label="quote \\" slash \\\\ newline \\n"} 2.5' in text
    assert "demo_gauge{nan=\"x\"} NaN" in text
    parsed = validate_exposition(text)
    assert parsed["demo_gauge"]["type"] == "gauge"
    assert parsed["demo_gauge"]["samples"] == 3


def test_validate_exposition_rejects_malformed_text():
    with pytest.raises(ValueError):
        validate_exposition("demo 1\n")  # sample without a TYPE announcement
    with pytest.raises(ValueError):
        validate_exposition("# TYPE demo bogus\ndemo 1\n")
    with pytest.raises(ValueError):
        validate_exposition("# TYPE demo gauge\ndemo not-a-number\n")


# -- timeline sharding ------------------------------------------------------------
def test_shard_timeline_point_prefixes_and_identity():
    point = timeline_point()  # 6 windows of 5 s
    shards = shard_timeline_point(point, 2)
    assert [shard.max_simulated_time for shard in shards] == [10.0, 20.0, 30.0]
    assert shards[-1] == point  # the final shard IS the original task
    # Short points and non-timeline points pass through unsharded.
    assert shard_timeline_point(timeline_point(max_simulated_time=10.0), 2) == (
        timeline_point(max_simulated_time=10.0),
    )
    assert shard_timeline_point(timeline_point(kind="multi"), 2) == (
        timeline_point(kind="multi"),
    )
    assert shard_timeline_point(point, 0) == (point,)


def test_shard_prefix_runs_equal_full_run_window_prefixes():
    point = timeline_point()
    shards = shard_timeline_point(point, 2)
    full = ParallelRunner(workers=1).run_points([point])[0].to_dict()
    prefix = ParallelRunner(workers=1).run_points([shards[0]])[0].to_dict()
    full_windows = full["timeline"]["windows"]
    prefix_windows = prefix["timeline"]["windows"]
    assert len(prefix_windows) == 2
    assert prefix_windows == full_windows[: len(prefix_windows)]


# -- sweep submission -------------------------------------------------------------
def test_submit_sweep_by_scenario_name(coordinator):
    response = coordinator.submit_sweep(
        {
            "scenario": "figure5",
            "kwargs": {
                "system_sizes": [10],
                "strategies": ["OPT-IO-CPU"],
                "measured_joins": 5,
                "max_simulated_time": 20,
                "include_single_user": False,
            },
        }
    )
    assert response["summary"]["enqueued"] == 1
    assert len(response["task_ids"]) == 1
    assert coordinator.backend.task_ids() == response["task_ids"]


def test_submit_sweep_rejects_garbage(coordinator):
    with pytest.raises(ValueError):
        coordinator.submit_sweep({})
    with pytest.raises(ValueError):
        coordinator.submit_sweep({"points": "nope"})


def test_submit_sweep_rejects_garbage_over_http(coordinator):
    request = urllib.request.Request(
        coordinator.url + "/sweeps",
        data=b'{"points": "nope"}',
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400


@pytest.mark.parametrize(
    "field, value",
    [("kind", "nope"), ("scenario", "nope"), ("num_pe", "4"), ("seed", 4.5),
     ("replicate", True)],
)
def test_submit_sweep_rejects_invalid_points_over_http(coordinator, field, value):
    payload = dict(point_payload(timeline_point()), **{field: value})
    request = urllib.request.Request(
        coordinator.url + "/sweeps",
        data=json.dumps({"points": [payload]}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    assert field in json.loads(excinfo.value.read())["error"]
    assert coordinator.backend.task_ids() == []


# -- sharded drain: stitching + streaming metrics ---------------------------------
def test_sharded_sweep_streams_windows_and_stitches_identically(coordinator):
    point = timeline_point()
    shards = shard_timeline_point(point, 2)
    backend = HttpBackend(coordinator.url)
    submission = backend._call("POST", "/sweeps", {"points": [point_payload(point)]})
    task_id = submission["task_ids"][0]
    shard_ids = submission["shards"][task_id]
    assert len(shard_ids) == 3 and shard_ids[-1] == task_id

    # Complete only the first (shortest-prefix) shard: its windows must show
    # up in /metrics and /timelines while the full point is still pending.
    results = {s: ParallelRunner(workers=1).run_points([s])[0] for s in shards}
    first = shards[0]
    assert backend.try_claim(shard_ids[0], "w1")
    backend.complete(shard_ids[0], first, results[first], "w1")

    text = scrape(coordinator)
    families = validate_exposition(text)
    assert families["repro_window_join_throughput"]["samples"] == 2
    assert 'figure="f"' in text and 'series="s"' in text and 'window="0"' in text
    assert not backend.is_done(task_id)
    stitched = coordinator.stitched_windows(task_id)
    assert len(stitched) == 2

    # Drain the rest; the stitched timeline must equal the unsharded run's.
    for shard, shard_id in zip(shards[1:], shard_ids[1:]):
        assert backend.try_claim(shard_id, "w1")
        backend.complete(shard_id, shard, results[shard], "w1")
    assert backend.is_done(task_id)
    # Stored payloads went through JSON, which turns tuples into lists --
    # normalise the local reference the same way before comparing.
    full_windows = json.loads(json.dumps(results[point].to_dict()))["timeline"]["windows"]
    assert coordinator.stitched_windows(task_id) == full_windows

    # The final shard is the original task, so the stored result is the
    # unsharded result itself -- not a reconstruction.
    assert backend.load_result(point) == results[point]

    text = scrape(coordinator)
    families = validate_exposition(text)
    assert families["repro_window_join_throughput"]["samples"] == len(full_windows)
    with urllib.request.urlopen(coordinator.url + "/timelines") as response:
        view = json.loads(response.read())["timelines"]
    assert view[0]["done"] is True
    assert view[0]["windows"] == full_windows


def test_window_gauges_keep_every_replicate(coordinator):
    """Replicates of one (figure, series, x) point stream separate window
    gauges: none overwrites another's."""
    points = [
        timeline_point(max_simulated_time=20.0),  # 4 windows of 5 s
        timeline_point(max_simulated_time=20.0, replicate=1, seed=7),
    ]
    backend = HttpBackend(coordinator.url)
    submission = backend._call(
        "POST",
        "/sweeps",
        {"points": [point_payload(point) for point in points], "shard_windows": 0},
    )
    results = ParallelRunner(workers=1).run_points(points)
    for point, result, task_id in zip(points, results, submission["task_ids"]):
        assert backend.try_claim(task_id, "w1")
        backend.complete(task_id, point, result, "w1")

    text = scrape(coordinator)
    families = validate_exposition(text)
    assert families["repro_window_join_throughput"]["samples"] == 8
    sample = re.compile(
        r'^repro_window_join_throughput\{.*replicate="(\d+)",window="(\d+)"\} (\S+)$',
        re.MULTILINE,
    )
    scraped = {
        (int(replicate), int(window)): float(value)
        for replicate, window, value in sample.findall(text)
    }
    expected = {
        (point.replicate, index): window.join_throughput
        for point, result in zip(points, results)
        for index, window in enumerate(result.timeline.windows)
    }
    assert scraped == expected
    assert expected[0, 0] != expected[1, 0]  # both replicates' values survive
    assert "repro_windows_streamed_total 8" in text


def test_metrics_track_queue_states_and_workers(coordinator):
    point = timeline_point(max_simulated_time=10.0)  # unsharded
    backend = HttpBackend(coordinator.url)
    backend.enqueue([point])
    families = validate_exposition(scrape(coordinator))
    for required in (
        "repro_coordinator_uptime_seconds",
        "repro_queue_tasks",
        "repro_queue_tasks_total",
        "repro_sweeps_submitted_total",
        "repro_results_received_total",
        "repro_windows_streamed_total",
    ):
        assert required in families, required
    text = scrape(coordinator)
    assert 'repro_queue_tasks{state="pending"} 1' in text
    assert backend.claim_next("w1") is not None
    text = scrape(coordinator)
    assert 'repro_queue_tasks{state="running"} 1' in text
    assert 'repro_worker_up{worker="w1"} 1' in text


def test_distributed_runner_over_http_matches_local_run(coordinator):
    point = timeline_point(max_simulated_time=10.0)
    local = ParallelRunner(workers=1).run_points([point])[0]
    runner = DistributedRunner(coordinator.url, timeout=120.0, poll_interval=0.02)
    runner.dispatch([point])
    Worker(runner.queue, worker_id="w1", poll_interval=0.02).run()
    assert runner.run_points([point])[0] == local
