"""Queue-contract suite: the coordinator's queue, seen through its client.

Each test runs against a live in-process coordinator, once with the queue
in memory only and once journaled to a state directory, pinning the
semantics the worker daemon and the distributed runner rely on: exclusive
claims, heartbeat expiry, immediate takeover from dead local processes,
retry budgets, interrupt-safe lease release and resume-after-kill.
"""

import socket
import subprocess
import sys
import time

import pytest

from repro.runner import (
    DistributedRunner,
    ParallelRunner,
    PointSpec,
    Worker,
)
from repro.runner.backends import HttpBackend, wait_for_tasks
from repro.service import Coordinator


def make_point(**overrides) -> PointSpec:
    fields = dict(figure="f", series="s", x=10, kind="multi", scenario="homogeneous",
                  num_pe=10, seed=42, strategy="OPT-IO-CPU", measured_joins=5,
                  max_simulated_time=20.0)
    fields.update(overrides)
    return PointSpec(**fields)


@pytest.fixture(params=["filesystem", "http"])
def backend_factory(request, tmp_path):
    """A factory yielding clients of fresh coordinators, one kind per run:
    ``filesystem`` journals the queue to a state directory (the durable
    queue, since the shared-directory store was removed), ``http`` keeps it
    in memory only."""
    coordinators = []

    def make(lease_seconds: float = 60.0):
        state_dir = None
        if request.param == "filesystem":
            state_dir = tmp_path / f"state{len(coordinators)}"
        coordinator = Coordinator(lease_seconds=lease_seconds, state_dir=state_dir)
        coordinators.append(coordinator)
        return HttpBackend(coordinator.start())

    yield make
    for coordinator in coordinators:
        coordinator.stop()


def dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


# -- enqueue ----------------------------------------------------------------------
def test_enqueue_is_idempotent_and_dedupes(backend_factory):
    backend = backend_factory()
    point = make_point()
    summary = backend.enqueue([point, point])
    assert (summary.enqueued, summary.already_queued, summary.already_done) == (1, 0, 0)
    summary = backend.enqueue([point])
    assert (summary.enqueued, summary.already_queued, summary.already_done) == (0, 1, 0)
    record = backend.load_task(backend.task_id(point))
    assert record is not None and record.point == point


def test_preseeded_result_marks_task_done(backend_factory):
    backend = backend_factory()
    point = make_point()
    result = ParallelRunner(workers=1).run_points([point])[0]
    backend.results.put(point, result)
    summary = backend.enqueue([point])
    assert summary.already_done == 1
    assert backend.is_done(backend.task_id(point))
    assert backend.load_result(point) == result


# -- leases -----------------------------------------------------------------------
def test_claim_is_exclusive_until_released(backend_factory):
    backend = backend_factory()
    point = make_point()
    backend.enqueue([point])
    task_id = backend.task_id(point)
    assert backend.try_claim(task_id, "w1")
    assert not backend.try_claim(task_id, "w2")
    assert backend.lease_state(task_id) == "running"
    backend.release(task_id, "w1")
    assert backend.lease_state(task_id) is None
    assert backend.try_claim(task_id, "w2")


def test_expired_heartbeat_is_stale_and_reclaimable(backend_factory):
    backend = backend_factory(lease_seconds=0.2)
    assert backend.lease_seconds == 0.2  # agreed with the coordinator
    point = make_point()
    backend.enqueue([point])
    task_id = backend.task_id(point)
    # A holder on another host: only the heartbeat age can expire the lease.
    assert backend.try_claim(task_id, "w1", host="elsewhere", pid=1)
    assert backend.lease_state(task_id) == "running"
    assert backend.status([task_id]).running == 1
    time.sleep(0.4)
    assert backend.lease_state(task_id) == "stale"
    assert backend.status([task_id]).stale == 1
    assert backend.try_claim(task_id, "w2")  # takeover


def test_heartbeat_keeps_lease_fresh_and_is_owner_checked(backend_factory):
    backend = backend_factory(lease_seconds=0.4)
    point = make_point()
    backend.enqueue([point])
    task_id = backend.task_id(point)
    assert backend.try_claim(task_id, "w1", host="elsewhere", pid=1)
    for _ in range(3):
        time.sleep(0.2)
        assert backend.heartbeat(task_id, "w1")
        assert backend.lease_state(task_id) == "running"
    assert not backend.heartbeat(task_id, "w2")  # not the holder


def test_dead_local_process_lease_is_stale_immediately(backend_factory):
    backend = backend_factory()
    point = make_point()
    backend.enqueue([point])
    task_id = backend.task_id(point)
    # The lease names a dead pid on this very host (for the HTTP backend:
    # the coordinator's host, which the test shares), so a crashed worker
    # is reported stale -- and reclaimed -- without waiting out the lease.
    assert backend.try_claim(task_id, "w1", host=socket.gethostname(), pid=dead_pid())
    assert backend.lease_state(task_id) == "stale"
    status = backend.status([task_id])
    assert status.stale == 1 and status.running == 0
    assert backend.try_claim(task_id, "w2")


# -- retry budget -----------------------------------------------------------------
def test_retry_budget_is_consumed_and_terminal(backend_factory):
    backend = backend_factory()
    bad = make_point(strategy="NO-SUCH-STRATEGY")
    backend.enqueue([bad], max_attempts=2)
    stats = Worker(backend, worker_id="w1", poll_interval=0.02).run()
    assert stats.failed == 2 and stats.executed == 0
    task_id = backend.task_id(bad)
    assert backend.poll_finished([task_id]) == {task_id}
    assert not backend.is_done(task_id)
    assert backend.attempts(task_id) == 2
    assert "NO-SUCH-STRATEGY" in (backend.last_error(task_id) or "")
    status = backend.status()
    assert status.failed == 1 and status.unfinished == 0
    assert backend.claim_next("w2") is None  # exhausted tasks are not runnable


# -- interruption and resume ------------------------------------------------------
def test_sigterm_releases_lease_without_burning_a_retry(backend_factory, monkeypatch):
    backend = backend_factory()
    point = make_point()
    backend.enqueue([point])
    # The CLI turns SIGTERM into SystemExit(143); it must release the lease
    # (pending again, no attempt recorded), not count as a failure.
    monkeypatch.setattr(
        "repro.runner.worker.execute_point_checked",
        lambda _point: (_ for _ in ()).throw(SystemExit(143)),
    )
    with pytest.raises(SystemExit):
        Worker(backend, worker_id="w1", poll_interval=0.02).run()
    task_id = backend.task_id(point)
    assert backend.attempts(task_id) == 0
    status = backend.status()
    assert status.pending == 1 and status.running == 0


def test_resume_after_kill_drains_and_matches_local_run(backend_factory, monkeypatch):
    backend = backend_factory()
    point = make_point()
    backend.enqueue([point])
    monkeypatch.setattr(
        "repro.runner.worker.execute_point_checked",
        lambda _point: (_ for _ in ()).throw(SystemExit(143)),
    )
    with pytest.raises(SystemExit):
        Worker(backend, worker_id="w1", poll_interval=0.02).run()
    monkeypatch.undo()
    stats = Worker(backend, worker_id="w2", poll_interval=0.02).run()
    assert stats.executed == 1
    assert backend.status().all_done
    assert backend.load_result(point) == ParallelRunner(workers=1).run_points([point])[0]


# -- wait loop --------------------------------------------------------------------
def test_wait_times_out_with_status_snapshot(backend_factory):
    backend = backend_factory()
    point = make_point()
    backend.enqueue([point])
    with pytest.raises(TimeoutError) as excinfo:
        wait_for_tasks(backend, [backend.task_id(point)], poll_interval=0.02, timeout=0.2)
    message = str(excinfo.value)
    assert "unfinished" in message and backend.describe() in message


def test_wait_backs_off_exponentially_and_resets_on_progress(backend_factory, monkeypatch):
    backend = backend_factory()
    done_point, slow_point = make_point(seed=1), make_point(seed=2)
    backend.enqueue([done_point, slow_point])
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 4:
            # Progress mid-wait: the next idle probe snaps back to the floor.
            backend.complete(
                backend.task_id(done_point), done_point, None, worker="w1"
            )
        if len(sleeps) == 6:
            backend.complete(
                backend.task_id(slow_point), slow_point, None, worker="w1"
            )

    monkeypatch.setattr("repro.runner.backends.base.time.sleep", fake_sleep)
    wait_for_tasks(
        backend,
        [backend.task_id(done_point), backend.task_id(slow_point)],
        poll_interval=0.1,
        max_poll_interval=1.0,
    )
    # Idle probes double up to the cap...
    assert sleeps[:4] == [0.1, 0.2, 0.4, 0.8]
    # ...and the probe after the first completion restarts from the floor.
    assert sleeps[4] == 0.1


# -- the distributed runner --------------------------------------------------------
def test_distributed_runner_is_backend_agnostic(backend_factory):
    backend = backend_factory()
    points = [make_point(seed=1), make_point(seed=2)]
    local = ParallelRunner(workers=1).run_points(points)
    runner = DistributedRunner(backend, timeout=120.0, poll_interval=0.02)
    runner.dispatch(points)
    import threading

    thread = threading.Thread(
        target=lambda: Worker(backend, worker_id="w1", poll_interval=0.02).run(),
        daemon=True,
    )
    thread.start()
    distributed = runner.run_points(points)
    thread.join(timeout=60.0)
    assert distributed == local


# -- HTTP transport retries --------------------------------------------------------
class _FakeHttpResponse:
    def __init__(self, payload):
        import json as _json

        self._body = _json.dumps(payload).encode("utf-8")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self._body


def _scripted_backend(monkeypatch, script):
    """An HttpBackend whose transport replays ``script`` per non-config call.

    ``script`` entries are exceptions (raised) or payload dicts (returned);
    ``GET /config`` is always answered so construction succeeds.  Returns
    (backend, calls, sleeps) where ``calls`` counts non-config round trips
    and ``sleeps`` records every backoff duration (real sleeping disabled).
    """
    import urllib.request

    calls = []
    sleeps = []

    def fake_urlopen(request, timeout=None):
        if request.full_url.endswith("/config"):
            return _FakeHttpResponse({"lease_seconds": 60.0, "max_attempts": 3})
        calls.append(request.full_url)
        action = script.pop(0)
        if isinstance(action, BaseException):
            raise action
        return _FakeHttpResponse(action)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    monkeypatch.setattr(time, "sleep", lambda seconds: sleeps.append(seconds))
    return HttpBackend("http://fake-coordinator:0"), calls, sleeps


def _http_error(code):
    import io
    import urllib.error

    return urllib.error.HTTPError("http://fake", code, "err", {}, io.BytesIO(b""))


def test_http_retries_connection_resets_with_backoff(monkeypatch):
    import urllib.error

    script = [
        urllib.error.URLError(ConnectionResetError("reset")),
        urllib.error.URLError(ConnectionResetError("reset")),
        {"ok": True},
    ]
    backend, calls, sleeps = _scripted_backend(monkeypatch, script)
    assert backend.heartbeat("t1", "w1") is True
    assert len(calls) == 3
    # Jittered exponential backoff: ~0.1 s then ~0.8 s (each +/-50%).
    assert len(sleeps) == 2
    assert 0.05 <= sleeps[0] <= 0.15
    assert 0.4 <= sleeps[1] <= 1.2


def test_http_retries_502_and_503(monkeypatch):
    script = [_http_error(502), _http_error(503), {"attempts": 2}]
    backend, calls, sleeps = _scripted_backend(monkeypatch, script)
    assert backend.record_failure("t1", "w1", "boom") == 2
    assert len(calls) == 3
    assert len(sleeps) == 2


def test_http_4xx_is_fatal_without_retry(monkeypatch):
    import urllib.error

    script = [_http_error(400)]
    backend, calls, sleeps = _scripted_backend(monkeypatch, script)
    with pytest.raises(urllib.error.URLError, match="returned 400"):
        backend.heartbeat("t1", "w1")
    assert len(calls) == 1  # no second attempt
    assert sleeps == []


def test_http_persistent_failure_raises_after_three_attempts(monkeypatch):
    import urllib.error

    script = [
        urllib.error.URLError("refused"),
        urllib.error.URLError("refused"),
        urllib.error.URLError("refused"),
    ]
    backend, calls, sleeps = _scripted_backend(monkeypatch, script)
    with pytest.raises(urllib.error.URLError):
        backend.heartbeat("t1", "w1")
    assert len(calls) == 3
    assert len(sleeps) == 2
