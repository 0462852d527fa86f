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
import threading
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
    in memory only.  Clients and coordinators are closed at teardown."""
    coordinators, clients = [], []

    def make(lease_seconds: float = 60.0):
        state_dir = None
        if request.param == "filesystem":
            state_dir = tmp_path / f"state{len(coordinators)}"
        coordinator = Coordinator(lease_seconds=lease_seconds, state_dir=state_dir)
        coordinators.append(coordinator)
        clients.append(HttpBackend(coordinator.start()))
        return clients[-1]

    yield make
    for client in clients:
        client.close()
    for coordinator in coordinators:
        coordinator.stop()


def dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def drain(backend, worker_id: str):
    """Run a worker in this thread, then close this thread's connection."""
    try:
        return Worker(backend, worker_id=worker_id, poll_interval=0.02).run()
    finally:
        backend.close()


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
    assert backend.load_results([point]) == [result]


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
    assert backend.load_results([point]) == ParallelRunner(workers=1).run_points([point])


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
                backend.task_id(done_point), done_point, {"seed": 1}, worker="w1"
            )
        if len(sleeps) == 6:
            backend.complete(
                backend.task_id(slow_point), slow_point, {"seed": 2}, worker="w1"
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
    thread = threading.Thread(target=drain, args=(backend, "w1"), daemon=True)
    thread.start()
    distributed = runner.run_points(points)
    thread.join(timeout=60.0)
    assert not thread.is_alive()
    assert distributed == local


# -- HTTP transport retries --------------------------------------------------------
class _FakeResponse:
    def __init__(self, status, payload):
        import json as _json

        self.status = status
        self._body = _json.dumps(payload).encode("utf-8")

    def read(self):
        return self._body


class _FakeConnection:
    """Stands in for ``http.client.HTTPConnection``: answers ``GET /config``
    and replays the shared ``script`` for every other request."""

    def __init__(self, script, calls):
        self._script = script
        self._calls = calls
        self._path = None
        self.closed = False

    def request(self, method, path, body=None, headers=None):
        self._path = path

    def getresponse(self):
        if self._path.endswith("/config"):
            return _FakeResponse(200, {"lease_seconds": 60.0, "max_attempts": 3})
        self._calls.append(self)
        action = self._script.pop(0)
        if isinstance(action, BaseException):
            raise action
        if isinstance(action, int):
            return _FakeResponse(action, {"error": f"status {action}"})
        return _FakeResponse(200, action)

    def close(self):
        self.closed = True


def _scripted_backend(monkeypatch, script):
    """An HttpBackend whose connection replays ``script`` per non-config call.

    ``script`` entries are exceptions (raised by the connection), HTTP
    status codes (answered with that status) or payload dicts (answered with
    200); ``GET /config`` is always answered so construction succeeds.
    Returns (backend, calls, sleeps) where ``calls`` holds the connection
    that carried each non-config round trip and ``sleeps`` records every
    backoff duration (real sleeping disabled).
    """
    import http.client

    calls = []
    sleeps = []

    def connect(host, timeout=None):
        return _FakeConnection(script, calls)

    monkeypatch.setattr(http.client, "HTTPConnection", connect)
    monkeypatch.setattr(time, "sleep", lambda seconds: sleeps.append(seconds))
    return HttpBackend("http://fake-coordinator:0"), calls, sleeps


def test_http_retries_connection_resets_with_backoff(monkeypatch):
    script = [ConnectionResetError("reset"), ConnectionResetError("reset"), {"ok": True}]
    backend, calls, sleeps = _scripted_backend(monkeypatch, script)
    assert backend.heartbeat("t1", "w1") is True
    assert len(calls) == 3
    # Jittered exponential backoff: ~0.1 s then ~0.8 s (each +/-50%).
    assert len(sleeps) == 2
    assert 0.05 <= sleeps[0] <= 0.15
    assert 0.4 <= sleeps[1] <= 1.2


def test_http_retries_502_and_503(monkeypatch):
    script = [502, 503, {"attempts": 2}]
    backend, calls, sleeps = _scripted_backend(monkeypatch, script)
    assert backend.record_failure("t1", "w1", "boom") == 2
    assert len(calls) == 3
    assert len(sleeps) == 2


def test_http_4xx_is_fatal_without_retry(monkeypatch):
    import urllib.error

    script = [400]
    backend, calls, sleeps = _scripted_backend(monkeypatch, script)
    with pytest.raises(urllib.error.URLError, match="returned 400"):
        backend.heartbeat("t1", "w1")
    assert len(calls) == 1  # no second attempt
    assert sleeps == []


def test_http_persistent_failure_raises_after_three_attempts(monkeypatch):
    import urllib.error

    script = [
        ConnectionRefusedError("refused"),
        ConnectionRefusedError("refused"),
        ConnectionRefusedError("refused"),
    ]
    backend, calls, sleeps = _scripted_backend(monkeypatch, script)
    with pytest.raises(urllib.error.URLError):
        backend.heartbeat("t1", "w1")
    assert len(calls) == 3
    assert len(sleeps) == 2


def test_http_reset_keepalive_connection_is_replaced_on_retry(monkeypatch):
    """A coordinator restart drops the kept-alive connection: the next call
    fails once on it, then succeeds on a fresh connection."""
    import http.client

    script = [
        {"ok": True},
        http.client.RemoteDisconnected("Remote end closed connection without response"),
        {"ok": True},
    ]
    backend, calls, sleeps = _scripted_backend(monkeypatch, script)
    assert backend.heartbeat("t1", "w1") is True
    assert backend.heartbeat("t1", "w1") is True
    kept, reset, fresh = calls
    assert kept is reset  # the first two requests shared one connection
    assert reset.closed and fresh is not reset and not fresh.closed
    assert len(sleeps) == 1  # the existing retry path, one backoff
    backend.close()
    assert fresh.closed


# -- kept-alive connections against a live coordinator ----------------------------
def test_stopped_coordinator_answers_nothing_and_a_restart_takes_over():
    first, second = Coordinator(), Coordinator()
    url = first.start()
    try:
        with HttpBackend(url) as backend:
            backend.enqueue([make_point()])
            assert backend.status().total == 1  # over a kept-alive connection
            first.stop()
            second.start(port=int(url.rsplit(":", 1)[1]))
            # The stopped coordinator shut that connection: the next call
            # reconnects and lands on the new, empty queue.
            assert backend.status().total == 0
    finally:
        first.stop()
        second.stop()


def test_one_client_shared_by_eight_threads():
    """Each thread talks over its own connection: no answer reaches another
    caller, and every task is completed exactly once."""
    coordinator = Coordinator()
    backend = HttpBackend(coordinator.start())
    points = [make_point(seed=seed) for seed in range(64)]
    completed = {}  # task id -> workers that completed it
    crossed = []  # heartbeat answers that do not fit the caller's lease
    lock = threading.Lock()
    deadline = time.monotonic() + 60.0

    def churn(worker: str) -> None:
        try:
            while time.monotonic() < deadline:
                record = backend.claim_next(worker)
                if record is None:
                    return
                # The caller holds this lease; an impostor does not.
                if not backend.heartbeat(record.task_id, worker):
                    crossed.append((worker, record.task_id, "own lease refused"))
                if backend.heartbeat(record.task_id, f"not-{worker}"):
                    crossed.append((worker, record.task_id, "impostor accepted"))
                result = {"seed": record.point.seed}
                backend.complete(record.task_id, record.point, result, worker)
                with lock:
                    completed.setdefault(record.task_id, []).append(worker)
        finally:
            backend.close()  # this thread's connection

    try:
        backend.enqueue(points)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(f"w{index}",), daemon=True)
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert crossed == []
        assert sorted(completed) == sorted(backend.task_id(point) for point in points)
        assert all(len(workers) == 1 for workers in completed.values())
        assert backend.status().all_done
    finally:
        backend.close()
        coordinator.stop()
