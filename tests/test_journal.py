"""Coordinator durability: the journal, its replay and restarts.

Every test runs in-process with short leases.  A crash is simulated by
closing the coordinator's sockets without ``stop()``, which is all that
``kill -9`` leaves behind: the journal holds exactly the lines flushed so
far.
"""

import json
import random
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.runner.worker as worker_module
from repro.cli import main
from repro.runner import (
    DistributedRunner,
    HttpBackend,
    MemoryBackend,
    ParallelRunner,
    PointExecutionError,
    PointSpec,
    ResultCache,
    Worker,
)
from repro.service import Coordinator


def make_point(**overrides) -> PointSpec:
    fields = dict(figure="f", series="s", x=10, kind="multi", scenario="homogeneous",
                  num_pe=10, seed=42, strategy="OPT-IO-CPU", measured_joins=5,
                  max_simulated_time=20.0)
    fields.update(overrides)
    return PointSpec(**fields)


def crash(coordinator: Coordinator) -> int:
    """Drop a coordinator without ``stop()``; returns the port it served on.

    Its journal file stays open, as a killed process leaves it, and its
    open connections are shut, as a killed process drops them.
    """
    server = coordinator._server
    port = server.server_address[1]
    server.shutdown()
    server.close_connections()
    server.server_close()
    return port


def gate_first_execution(monkeypatch):
    """Hold the first point executed until ``resume`` is set; the first
    execution sets ``started`` once it is held."""
    started, resume = threading.Event(), threading.Event()
    execute = worker_module.execute_point_checked
    calls = []

    def gated(point):
        calls.append(point)
        if len(calls) == 1:
            started.set()
            assert resume.wait(60)
        return execute(point)

    monkeypatch.setattr(worker_module, "execute_point_checked", gated)
    return started, resume


def in_thread(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def drain(backend: HttpBackend, worker_id: str, **kwargs):
    """Run a worker in this thread, then close this thread's connection."""
    try:
        return Worker(backend, worker_id=worker_id, poll_interval=0.02).run(**kwargs)
    finally:
        backend.close()


def test_restart_mid_drain_keeps_done_tasks_and_a_running_lease(tmp_path, monkeypatch):
    points = [make_point(seed=seed) for seed in (1, 2, 3)]
    local = ParallelRunner(workers=1).run_points(points)
    state = tmp_path / "state"
    first = Coordinator(lease_seconds=2.0, state_dir=state)
    backend = HttpBackend(first.start())
    backend.enqueue(points)
    assert Worker(backend, worker_id="w0", poll_interval=0.02).run(max_tasks=1).executed == 1

    started, resume = gate_first_execution(monkeypatch)
    held = []
    worker = in_thread(lambda: held.append(drain(backend, "w1", max_tasks=1)))
    assert started.wait(60)
    before = backend.status()
    assert (before.total, before.done, before.running) == (3, 1, 1)
    (running,) = [task_id for task_id in backend.task_ids()
                  if backend.lease_state(task_id) == "running"]

    second = Coordinator(lease_seconds=2.0, state_dir=state)
    second.start(port=crash(first))
    try:
        after = backend.status()
        assert (after.total, after.done, after.running) == (3, 1, 1)
        assert backend.lease_state(running) == "running"
        assert not backend.try_claim(running, "w2")  # w1 keeps its task
        time.sleep(2.5)  # longer than the lease: w1's heartbeats reach the new process
        assert backend.lease_state(running) == "running"
        resume.set()
        worker.join(60)
        assert not worker.is_alive() and held[0].executed == 1
        assert Worker(backend, worker_id="w2", poll_interval=0.02).run().executed == 1
        assert backend.status().all_done
        assert DistributedRunner(backend, timeout=60.0).run_points(points) == local
    finally:
        resume.set()
        backend.close()
        second.stop()
        first.backend.close()


def test_restart_keeps_failures_and_releases_and_stales_dead_leases(tmp_path):
    failing, dead, released = (make_point(seed=seed) for seed in (1, 2, 3))
    state = tmp_path / "state"
    first = Coordinator(state_dir=state)
    backend = HttpBackend(first.start())
    backend.enqueue([failing, dead, released])
    failing_id, dead_id, released_id = map(backend.task_id, (failing, dead, released))
    assert backend.try_claim(failing_id, "w1", host="elsewhere", pid=1)
    assert backend.record_failure(failing_id, "w1", "boom") == 1
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    assert backend.try_claim(dead_id, "w2", host=socket.gethostname(), pid=child.pid)
    assert backend.try_claim(released_id, "w3", host="elsewhere", pid=1)
    backend.release(released_id, "w3")

    second = Coordinator(state_dir=state)
    second.start(port=crash(first))
    try:
        assert (backend.attempts(failing_id), backend.last_error(failing_id)) == (1, "boom")
        assert backend.lease_state(failing_id) is None
        assert backend.lease_state(dead_id) == "stale"  # dead pid on this host
        assert backend.lease_state(released_id) is None
        status = backend.status()
        assert (status.pending, status.stale) == (2, 1)
    finally:
        backend.close()
        second.stop()
        first.backend.close()


@pytest.mark.parametrize(
    "tail", [b'{"op": "claim", "task_id": "ab', b'{"op": "claim", "task_id": "ab\n'],
    ids=["no-newline", "unparsable"],
)
def test_torn_final_line_is_dropped_and_cut_off(tmp_path, tail):
    state = tmp_path / "state"
    coordinator = Coordinator(state_dir=state)
    with HttpBackend(coordinator.start()) as backend:
        backend.enqueue([make_point(seed=1)])
    coordinator.stop()
    journal = state / "journal.jsonl"
    intact = journal.read_bytes()
    with journal.open("ab") as handle:
        handle.write(tail)  # the process died mid-append

    coordinator = Coordinator(state_dir=state)
    assert journal.read_bytes() == intact  # cut before the next append
    with HttpBackend(coordinator.start()) as backend:
        assert backend.status().total == 1
        backend.enqueue([make_point(seed=2)])
    coordinator.stop()
    *lines, last = journal.read_bytes().split(b"\n")
    assert last == b"" and len(lines) == 2
    assert all(json.loads(line)["op"] == "enqueue" for line in lines)

    coordinator = Coordinator(state_dir=state)  # a second restart replays cleanly
    assert len(coordinator.backend.task_ids()) == 2
    coordinator.stop()


@pytest.mark.parametrize("damage", ["truncated", "missing"])
def test_unreadable_result_file_leaves_its_task_pending(tmp_path, damage):
    point = make_point()
    state = tmp_path / "state"
    coordinator = Coordinator(state_dir=state)
    with HttpBackend(coordinator.start()) as backend:
        backend.enqueue([point])
        assert Worker(backend, worker_id="w1", poll_interval=0.02).run().executed == 1
        result = backend.load_result(point)
    coordinator.stop()
    assert ResultCache(state / "results").get(point) == result  # the cache layout
    result_file = state / "results" / f"{backend.task_id(point)}.json"
    if damage == "truncated":
        result_file.write_text(result_file.read_text()[:100])
    else:
        result_file.unlink()

    coordinator = Coordinator(state_dir=state)
    backend = HttpBackend(coordinator.start())
    try:
        status = backend.status()
        assert (status.total, status.done, status.pending) == (1, 0, 1)
        assert Worker(backend, worker_id="w2", poll_interval=0.02).run().executed == 1
        assert backend.load_result(point) == result == ParallelRunner().run_points([point])[0]
        assert ResultCache(state / "results").get(point) == result
    finally:
        backend.close()
        coordinator.stop()


@pytest.mark.parametrize(
    "line, error",
    [(b"not json", "unreadable journal line"),
     (b'{"op": "explode", "task_id": "x"}', "invalid journal record")],
    ids=["not-json", "unknown-op"],
)
def test_corrupt_middle_line_stops_startup_naming_it(tmp_path, line, error):
    state = tmp_path / "state"
    coordinator = Coordinator(state_dir=state)
    with HttpBackend(coordinator.start()) as backend:
        backend.enqueue([make_point(seed=1), make_point(seed=2)])
    coordinator.stop()
    journal = state / "journal.jsonl"
    lines = journal.read_bytes().split(b"\n")
    lines[0] = line
    journal.write_bytes(b"\n".join(lines))
    damaged = journal.read_bytes()

    with pytest.raises(ValueError, match=rf"journal\.jsonl:1: {error}"):
        Coordinator(state_dir=state)
    with pytest.raises(SystemExit, match=rf"journal\.jsonl:1: {error}"):
        main(["serve", "--port", "0", "--state-dir", str(state)])
    assert journal.read_bytes() == damaged  # nothing is cut from a refused journal


def test_silent_worker_loses_its_task_after_the_lease(tmp_path, monkeypatch):
    point = make_point()
    coordinator = Coordinator(lease_seconds=0.5, state_dir=tmp_path / "state")
    url = coordinator.start()
    started, resume = gate_first_execution(monkeypatch)
    backend, silent = HttpBackend(url), HttpBackend(url)
    try:
        backend.enqueue([point])
        # Heartbeats "succeed" without ever reaching the coordinator.
        monkeypatch.setattr(silent, "heartbeat", lambda task_id, worker: True)
        held = []
        worker = in_thread(lambda: held.append(drain(silent, "w1")))
        assert started.wait(60)
        time.sleep(0.8)
        assert backend.status().stale == 1
        taken = Worker(backend, worker_id="w2", poll_interval=0.02).run()
        assert taken.executed == 1
        resume.set()
        worker.join(60)
        assert not worker.is_alive()
        assert held[0].executed == 1  # the silent worker finished too, harmlessly
        assert backend.status().all_done
        local = ParallelRunner(workers=1).run_points([point])
        assert DistributedRunner(backend, timeout=60.0).run_points([point]) == local
    finally:
        resume.set()
        backend.close()
        silent.close()
        coordinator.stop()


def test_coordinator_restarted_without_state_is_named_in_the_error(monkeypatch):
    point = make_point()
    first = Coordinator()
    runner = DistributedRunner(first.start(), timeout=60.0, poll_interval=0.02)
    restarted = []
    poll_finished = runner.queue.poll_finished

    def restart_then_poll(task_ids):
        if not restarted:  # the coordinator loses its state mid-wait
            restarted.append(Coordinator())
            restarted[0].start(port=crash(first))
        return poll_finished(task_ids)

    monkeypatch.setattr(runner.queue, "poll_finished", restart_then_poll)
    try:
        with pytest.raises(PointExecutionError) as excinfo:
            runner.run_points([point])
    finally:
        for coordinator in restarted:
            coordinator.stop()
        first.backend.close()
    message = str(excinfo.value)
    assert f"has no record of task {runner.queue.task_id(point)}" in message
    assert runner.queue.describe() in message and "--state-dir" in message
    assert "retry budget" not in message


def test_concurrent_changes_replay_to_the_live_state(tmp_path):
    """Journal order is apply order: racing threads' claims, releases,
    failures and completions replay to exactly the state they left."""
    state = tmp_path / "state"
    live = MemoryBackend(state_dir=state)
    points = [make_point(seed=seed) for seed in range(40)]
    live.enqueue(points, max_attempts=2)

    def churn(worker: str) -> None:
        rng = random.Random(worker)
        for _ in range(60):
            record = live.claim_next(worker)
            if record is None:
                return
            action = rng.randrange(3)
            if action == 0:
                live.complete(record.task_id, worker, {"seed": record.point.seed})
            elif action == 1:
                live.record_failure(record.task_id, worker, f"boom from {worker}")
            elif rng.random() < 0.5:
                live.release(record.task_id, worker)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [in_thread(lambda name=f"w{index}": churn(name)) for index in range(8)]
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    live.close()

    def snapshot(queue: MemoryBackend):
        return {
            task_id: (queue.is_done(task_id), queue.attempts(task_id),
                      queue.last_error(task_id), queue.lease_state(task_id),
                      queue.result_json(task_id))
            for task_id in queue.task_ids()
        }

    replayed = MemoryBackend(state_dir=state)
    try:
        assert snapshot(replayed) == snapshot(live)
        assert replayed.status().to_dict() == live.status().to_dict()
    finally:
        replayed.close()
