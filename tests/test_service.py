"""Coordinator service tests: live windows, /metrics, submissions."""

import json
import re
import socket
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.metrics import MetricFamily, render_families, validate_exposition
from repro.metrics.timeline import TimelineWindow
from repro.runner import (
    DistributedRunner,
    ParallelRunner,
    PointSpec,
    Worker,
    build_scenario,
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
    coord = Coordinator(lease_seconds=30.0)
    coord.start()
    yield coord
    coord.stop()


@pytest.fixture
def backend(coordinator):
    """A client of ``coordinator``, closed at teardown."""
    with HttpBackend(coordinator.url) as client:
        yield client


def scrape(coord: Coordinator) -> str:
    with urllib.request.urlopen(coord.url + "/metrics") as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        return response.read().decode("utf-8")


def refused(coord: Coordinator, path: str, body: dict) -> tuple:
    """POST a request the coordinator must refuse: (status, error message)."""
    request = urllib.request.Request(
        coord.url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    with excinfo.value as error:
        return error.code, json.loads(error.read())["error"]


# -- prometheus renderer ----------------------------------------------------------
def raw_exchange(coord: Coordinator, data: bytes) -> bytes:
    """Send raw bytes on one connection; all that is read until it closes."""
    with socket.create_connection(coord._server.server_address[:2], timeout=5.0) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def test_unparsable_content_length_is_refused_and_closes_the_connection(coordinator):
    """The body behind a bad Content-Length is never parsed as the next
    request: the 400 closes the connection."""
    reply = raw_exchange(
        coordinator,
        b"POST /claim HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"
        b'{"worker": "w"}'
        b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert reply.count(b"HTTP/1.1 ") == 1  # the pipelined GET is never read
    head, _, body = reply.partition(b"\r\n\r\n")
    assert b"Connection: close" in head
    assert "Content-Length" in json.loads(body)["error"]


def test_negative_content_length_is_refused_before_reading(coordinator):
    """Content-Length: -1 would read to EOF, which never comes while the
    client keeps its connection open."""
    reply = raw_exchange(
        coordinator,
        b"POST /claim HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n"
        b'{"worker": "w"}',
    )
    assert reply.startswith(b"HTTP/1.1 400 ")
    head, _, body = reply.partition(b"\r\n\r\n")
    assert b"Connection: close" in head
    assert "Content-Length" in json.loads(body)["error"]


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


# -- the prefix property ---------------------------------------------------------
def chained_crash_point() -> PointSpec:
    """The replication scenario's chained point under a PE crash at 15 s
    that recovers at 30 s (8 PE, 40 s, 5 s windows)."""
    spec = build_scenario(
        "replication", system_sizes=(8,), strategies=("OPT-IO-CPU",),
        fault_names=("crash",), replication=("chained",), max_simulated_time=40.0,
    )
    (point,) = spec.points()
    assert point.series == "OPT-IO-CPU chained [crash1@15]"
    return point


@pytest.mark.parametrize(
    "point",
    [timeline_point(max_simulated_time=40.0), chained_crash_point()],
    ids=["homogeneous", "chained-crash"],
)
def test_prefix_runs_equal_full_run_window_prefixes(point):
    """A run cut short at t yields exactly the leading windows of the full
    run, also when t is the crash or the recovery instant."""
    full = ParallelRunner(workers=1).run_points([point])[0].timeline.windows
    for cut in (15.0, 20.0, 30.0, 35.0):
        cut_point = replace(point, max_simulated_time=cut)
        prefix = ParallelRunner(workers=1).run_points([cut_point])[0].timeline.windows
        assert len(prefix) == cut / 5.0
        assert prefix == full[: len(prefix)]


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
    code, _ = refused(coordinator, "/sweeps", {"points": "nope"})
    assert code == 400


@pytest.mark.parametrize(
    "field, value",
    [("kind", "nope"), ("scenario", "nope"), ("num_pe", "4"), ("seed", 4.5),
     ("replicate", True)],
)
def test_submit_sweep_rejects_invalid_points_over_http(coordinator, field, value):
    payload = dict(point_payload(timeline_point()), **{field: value})
    code, message = refused(coordinator, "/sweeps", {"points": [payload]})
    assert code == 400
    assert field in message
    assert coordinator.backend.task_ids() == []


@pytest.mark.parametrize(
    "field, value",
    [("replicates", 0), ("replicates", -3), ("replicates", 2.7), ("replicates", None),
     ("max_attempts", 0), ("max_attempts", 2.5), ("max_attempts", True),
     ("priority", 1)],
)
def test_submit_sweep_rejects_invalid_fields_over_http(coordinator, field, value):
    submission = {"scenario": "figure5", "kwargs": {"system_sizes": [10]}, field: value}
    code, message = refused(coordinator, "/sweeps", submission)
    assert code == 400
    assert field in message
    assert coordinator.backend.task_ids() == []


# -- live windows -----------------------------------------------------------------
THROUGHPUT = re.compile(
    r'^repro_window_join_throughput\{.*window="(\d+)"\} (\S+)$', re.MULTILINE
)


def throughputs(text: str) -> dict:
    """Window index -> scraped join-throughput gauge."""
    return {int(index): float(value) for index, value in THROUGHPUT.findall(text)}


def test_heartbeat_streams_windows_before_completion(monkeypatch):
    """A running point's closed windows reach /metrics on the worker's
    heartbeat; the completion then overwrites them with equal values and
    counts none of them twice."""
    coordinator = Coordinator(lease_seconds=0.4)  # heartbeats every 0.1 s
    backend = HttpBackend(coordinator.start())
    try:
        point = timeline_point(max_simulated_time=60.0)  # 12 windows of 5 s
        backend.enqueue([point])
        at_completion = []
        record_completion = coordinator.record_completion

        def recording(*args):
            at_completion.append(coordinator.render_metrics())
            record_completion(*args)

        monkeypatch.setattr(coordinator, "record_completion", recording)
        stats = Worker(backend, worker_id="w1", poll_interval=0.02).run()
        assert stats.executed == 1
        (before,) = at_completion
        streamed = throughputs(before)
        assert streamed, "no window reached /metrics before the completion"
        assert "repro_results_received_total 0" in before

        (result,) = backend.load_results([point])
        text = scrape(coordinator)
        final = throughputs(text)
        assert final == dict(enumerate(result.timeline.series("join_throughput")))
        assert streamed.items() <= final.items()
        assert len(final) == 12
        assert "repro_windows_streamed_total 12" in text
    finally:
        backend.close()
        coordinator.stop()


def test_report_windows_is_ignored_for_unknown_tasks(coordinator, backend):
    window = TimelineWindow(start=0.0, end=5.0)
    backend.report_windows("no-such-task", "w1", 0, [window])
    text = scrape(coordinator)
    assert "repro_windows_streamed_total 0" in text
    assert validate_exposition(text)["repro_window_join_throughput"]["samples"] == 0


@pytest.mark.parametrize(
    "field, value",
    [("first", -1), ("first", True), ("first", "0"), ("windows", "nope"), ("windows", [1])],
)
def test_windows_endpoint_rejects_invalid_reports(coordinator, backend, field, value):
    backend.enqueue([timeline_point()])
    report = {"task_id": backend.task_ids()[0], "worker": "w1", "first": 0, "windows": []}
    code, message = refused(coordinator, "/windows", dict(report, **{field: value}))
    assert code == 400
    assert field in message


@pytest.mark.parametrize(
    "path, value",
    [("/poll", "abc"), ("/poll", None), ("/poll", [1]), ("/poll", {"a": 1}),
     ("/status", "abc"), ("/status", [None]), ("/status", 7),
     ("/results", "abc"), ("/results", None)],
    ids=["poll-string", "poll-null", "poll-int-item", "poll-object",
         "status-string", "status-null-item", "status-int",
         "results-string", "results-null"],
)
def test_task_id_lists_are_validated_over_http(coordinator, backend, path, value):
    """A string is not a list of task ids: iterating it would poll (or
    report on) one task per character."""
    backend.enqueue([timeline_point()])
    code, message = refused(coordinator, path, {"task_ids": value})
    assert code == 400
    assert "task_ids" in message


@pytest.mark.parametrize("result", [None, "done", [1]], ids=["null", "string", "list"])
def test_complete_without_a_result_object_is_refused(coordinator, backend, result):
    """A completion stores its result and marks the task done in one step:
    one without a result leaves the task claimable and counts nothing."""
    point = timeline_point()
    backend.enqueue([point])
    record = backend.claim_next("w1")
    body = {"task_id": record.task_id, "point": point_payload(point), "worker": "w1"}
    for request in (dict(body, result=result), body):
        code, message = refused(coordinator, "/complete", request)
        assert code == 400
        assert "result" in message
    assert not backend.is_done(record.task_id)
    assert "repro_results_received_total 0" in scrape(coordinator)


def test_results_batch_returns_each_stored_result_once(coordinator, backend):
    """``POST /results`` answers the stored subset of the ids it is given,
    each once, as the payloads ``GET /results/<id>`` serves one by one."""
    stored, missing = timeline_point(seed=1), timeline_point(seed=2)
    result = ParallelRunner(workers=1).run_points([stored])[0]
    backend.results.put(stored, result)
    stored_id, missing_id = backend.task_id(stored), backend.task_id(missing)
    response = backend._call(
        "POST", "/results", {"task_ids": [missing_id, stored_id, stored_id]}
    )
    expected = json.dumps(result.to_dict(), sort_keys=True)  # NaN-safe comparison
    assert list(response["results"]) == [stored_id]
    assert json.dumps(response["results"][stored_id], sort_keys=True) == expected
    single = backend._call("GET", f"/results/{stored_id}")
    assert json.dumps(single["result"], sort_keys=True) == expected
    assert backend.load_results([stored, missing, stored]) == [result, None, result]
    assert backend.results.hits == 1  # one per result returned


def test_window_gauges_keep_every_replicate(coordinator, backend):
    """Replicates of one (figure, series, x) point stream separate window
    gauges: none overwrites another's."""
    points = [
        timeline_point(max_simulated_time=20.0),  # 4 windows of 5 s
        timeline_point(max_simulated_time=20.0, replicate=1, seed=7),
    ]
    submission = backend._call(
        "POST",
        "/sweeps",
        {"points": [point_payload(point) for point in points]},
    )
    results = ParallelRunner(workers=1).run_points(points)
    for point, result, task_id in zip(points, results, submission["task_ids"]):
        assert backend.try_claim(task_id, "w1")
        backend.complete(task_id, point, result.to_dict(), "w1")

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


def test_metrics_track_queue_states_and_workers(coordinator, backend):
    point = timeline_point(max_simulated_time=10.0)
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
