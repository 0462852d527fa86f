"""Tests for the work queue, worker daemon and distributed runner.

The queue is a live in-process ``repro-lb serve`` coordinator, reached
through its HTTP client.
"""

import dataclasses
import json
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.runner import (
    DistributedRunner,
    HttpBackend,
    ParallelRunner,
    PointExecutionError,
    PointSpec,
    ScenarioSpec,
    Sweep,
    Worker,
    point_from_payload,
)
from repro.runner.backends.base import DEFAULT_MAX_ATTEMPTS, wait_for_tasks
from repro.service import Coordinator


@pytest.fixture
def serve():
    """Start coordinators on demand: ``serve(lease_seconds)`` -> a client.

    Clients and coordinators are closed at teardown."""
    coordinators, clients = [], []

    def start(lease_seconds: float = 60.0) -> HttpBackend:
        coordinator = Coordinator(lease_seconds=lease_seconds)
        coordinators.append(coordinator)
        clients.append(HttpBackend(coordinator.start()))
        return clients[-1]

    yield start
    for client in clients:
        client.close()
    for coordinator in coordinators:
        coordinator.stop()


@pytest.fixture
def queue(serve):
    return serve()


def tiny_spec(strategies=("OPT-IO-CPU",), **kwargs) -> ScenarioSpec:
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


def make_point(**overrides) -> PointSpec:
    fields = dict(figure="f", series="s", x=10, kind="multi", scenario="homogeneous",
                  num_pe=10, seed=42, strategy="OPT-IO-CPU", measured_joins=5,
                  max_simulated_time=20.0)
    fields.update(overrides)
    return PointSpec(**fields)


# -- task identity ----------------------------------------------------------------
def test_point_payload_roundtrips_through_json():
    point = make_point(config_overrides=(("buffer.buffer_pages", 25),),
                       arrival_params=(("surge_factor", 2.0),),
                       arrival_kind="step", kind="timeline", timeline_window=2.0,
                       measured_joins=None, warmup_joins=None)
    payload = json.loads(json.dumps(dataclasses.asdict(point)))
    rebuilt = point_from_payload(payload)
    assert rebuilt == point


def test_task_id_is_the_cache_key_and_ignores_presentation(queue):
    point = make_point()
    assert queue.task_id(point) == queue.results.key(point)
    relabelled = dataclasses.replace(point, figure="g", series="other", x=99)
    assert queue.task_id(point) == queue.task_id(relabelled)
    # A JSON round trip (worker on another host) preserves the id.
    rebuilt = point_from_payload(json.loads(json.dumps(dataclasses.asdict(point))))
    assert queue.task_id(rebuilt) == queue.task_id(point)


# -- enqueue / resume -------------------------------------------------------------
def test_enqueue_dedupes_and_is_idempotent(queue):
    points = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM")).points()
    first = queue.enqueue(list(points) + [points[0]])  # duplicate point
    assert first.enqueued == 2
    assert first.total == 2
    again = queue.enqueue(points)
    assert again.enqueued == 0
    assert again.already_queued == 2
    status = queue.status()
    assert status.total == 2 and status.pending == 2


def test_enqueue_marks_preseeded_results_done(queue):
    point = tiny_spec().points()[0]
    result = ParallelRunner(workers=1).run_points([point])[0]
    # Result stored (e.g. by a worker that died before marking): enqueue
    # notices and completes the task without any worker involvement.
    queue.results.put(point, result)
    summary = queue.enqueue([point])
    assert summary.already_done == 1
    assert queue.status().all_done


# -- leases -----------------------------------------------------------------------
def test_claim_is_exclusive(queue):
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    assert queue.try_claim(task_id, "w1")
    assert not queue.try_claim(task_id, "w2")
    queue.release(task_id)
    assert queue.try_claim(task_id, "w2")


def test_stale_lease_of_dead_local_process_is_reclaimed(queue):
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    # The holder is a (now dead) process on the coordinator's host.
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    assert queue.try_claim(task_id, "w1", host=socket.gethostname(), pid=child.pid)
    assert queue.try_claim(task_id, "w2")  # dead holder: immediate takeover
    assert queue.heartbeat(task_id, "w2")
    assert not queue.heartbeat(task_id, "w1")


def test_expired_heartbeat_is_reclaimed_live_one_is_not(serve):
    queue = serve(lease_seconds=1.0)
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    # A holder on another host: only the heartbeat age can expire the lease.
    assert queue.try_claim(task_id, "w1", host="elsewhere", pid=1)
    time.sleep(0.2)
    assert not queue.try_claim(task_id, "w2")  # heartbeat still fresh
    time.sleep(1.0)
    assert queue.try_claim(task_id, "w2")


def test_heartbeat_refreshes_only_own_lease(serve):
    queue = serve(lease_seconds=1.0)
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    assert queue.try_claim(task_id, "w1", host="elsewhere", pid=1)
    time.sleep(0.6)
    assert queue.heartbeat(task_id, "w1")
    time.sleep(0.6)  # 1.2 s after the claim, 0.6 s after the heartbeat
    assert queue.lease_state(task_id) == "running"
    assert not queue.heartbeat(task_id, "w2")  # not the holder
    time.sleep(0.6)  # w2's refusal refreshed nothing
    assert queue.lease_state(task_id) == "stale"


# -- worker -----------------------------------------------------------------------
def test_worker_drains_queue_and_results_match_local_run(queue):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM"))
    local = ParallelRunner(workers=1).run_points(spec.points())
    queue.enqueue(spec.points())
    stats = Worker(queue, worker_id="w1", poll_interval=0.05).run()
    assert stats.executed == 2 and stats.failed == 0
    assert queue.status().all_done
    stored = [queue.load_result(point) for point in spec.points()]
    assert stored == local  # bit-identical to the in-process runner


def test_worker_respects_max_tasks_and_resumes(queue):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM"))
    queue.enqueue(spec.points())
    first = Worker(queue, worker_id="w1", poll_interval=0.05).run(max_tasks=1)
    assert first.claimed == 1
    status = queue.status()
    assert status.done == 1 and status.pending == 1
    # Re-dispatching the same sweep re-enqueues only the incomplete point.
    summary = queue.enqueue(spec.points())
    assert summary.already_done == 1 and summary.already_queued == 1
    second = Worker(queue, worker_id="w2", poll_interval=0.05).run()
    assert second.executed == 1
    assert queue.status().all_done


def test_two_workers_split_the_queue_without_duplication(queue):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM", "psu_noIO+RANDOM",
                                 "psu_opt+LUM"))
    queue.enqueue(spec.points())
    stats = [None, None]

    def drain(slot):
        try:
            stats[slot] = Worker(queue, worker_id=f"w{slot}", poll_interval=0.02).run()
        finally:
            queue.close()  # this thread's connection

    threads = [threading.Thread(target=drain, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    assert queue.status().all_done
    # Every task ran exactly once across the two workers.
    assert stats[0].executed + stats[1].executed == 4
    assert stats[0].failed == stats[1].failed == 0


def test_failing_point_consumes_retry_budget(queue):
    bad = make_point(strategy="NO-SUCH-STRATEGY")
    queue.enqueue([bad], max_attempts=2)
    stats = Worker(queue, worker_id="w1", poll_interval=0.02).run()
    assert stats.failed == 2 and stats.executed == 0
    task_id = queue.task_id(bad)
    assert queue.poll_finished([task_id]) == {task_id}
    assert not queue.is_done(task_id)
    assert queue.attempts(task_id) == 2
    status = queue.status()
    assert status.failed == 1 and status.unfinished == 0
    assert "NO-SUCH-STRATEGY" in (queue.last_error(task_id) or "")
    assert "failed task" in status.render()


def test_interrupted_worker_releases_lease_without_burning_a_retry(queue, monkeypatch):
    point = make_point()
    queue.enqueue([point])
    worker = Worker(queue, worker_id="w1", poll_interval=0.02)
    monkeypatch.setattr(
        "repro.runner.worker.execute_point_checked",
        lambda _point: (_ for _ in ()).throw(SystemExit(143)),
    )
    with pytest.raises(SystemExit):
        worker.run()
    task_id = queue.task_id(point)
    assert queue.attempts(task_id) == 0  # interruption is not a failure
    status = queue.status()
    assert status.pending == 1 and status.running == 0  # lease released
    monkeypatch.undo()
    stats = Worker(queue, worker_id="w2", poll_interval=0.02).run()
    assert stats.executed == 1
    assert queue.status().all_done


# -- distributed runner -----------------------------------------------------------
def drain_in_thread(queue, **kwargs):
    """Drain ``queue`` in a new thread, which closes its connection when done."""

    def drain():
        try:
            Worker(queue, poll_interval=0.02, **kwargs).run()
        finally:
            queue.close()

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    return thread


def test_distributed_runner_matches_parallel_runner(queue):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM"))
    local = ParallelRunner(workers=2).run(spec)
    runner = DistributedRunner(queue.base_url, timeout=120.0, poll_interval=0.02)
    runner.dispatch(spec.points())
    thread = drain_in_thread(runner.queue, worker_id="w1")
    distributed = runner.run(spec)
    thread.join(timeout=60.0)
    assert [(p.series, p.x) for p in local.points] == [
        (p.series, p.x) for p in distributed.points
    ]
    for left, right in zip(local.points, distributed.points):
        assert left.result == right.result
    # Folding happens in expansion order on both drivers, so aggregates and
    # export rows are identical too.
    assert local.to_rows() == distributed.to_rows()


def test_distributed_runner_replicates_aggregate_identically(queue):
    spec = tiny_spec().with_replicates(2)
    local = ParallelRunner(workers=2).run(spec).aggregate()
    runner = DistributedRunner(queue.base_url, timeout=120.0, poll_interval=0.02)
    runner.dispatch(spec.points())
    thread = drain_in_thread(runner.queue, worker_id="w1")
    distributed = runner.run(spec).aggregate()
    thread.join(timeout=60.0)
    assert local.table() == distributed.table()
    assert local.to_rows() == distributed.to_rows()


def test_warm_rerun_makes_four_requests_for_any_sweep_size(queue, monkeypatch):
    """A finished sweep re-renders in /config, /sweeps, /poll and /results,
    however many points it has."""
    result = ParallelRunner(workers=1).run_points([make_point()])[0]
    points = [make_point(seed=seed) for seed in range(12)]
    for point in points:
        queue.results.put(point, result)  # a finished sweep
    paths = []
    call = HttpBackend._call

    def counted(backend, method, path, payload=None):
        paths.append(path)
        return call(backend, method, path, payload)

    monkeypatch.setattr(HttpBackend, "_call", counted)
    for size in (1, 12):
        paths.clear()
        runner = DistributedRunner(queue.base_url, timeout=60.0, poll_interval=0.02)
        assert runner.run_points(points[:size]) == [result] * size
        assert paths == ["/config", "/sweeps", "/poll", "/results"]
        assert (runner.cache.hits, runner.cache.misses) == (size, 0)


def test_distributed_runner_times_out_without_workers(queue):
    runner = DistributedRunner(queue.base_url, timeout=0.2, poll_interval=0.02)
    with pytest.raises(TimeoutError) as excinfo:
        runner.run(tiny_spec())
    assert "unfinished" in str(excinfo.value)


def test_distributed_runner_surfaces_exhausted_tasks(queue):
    runner = DistributedRunner(
        queue.base_url, timeout=60.0, poll_interval=0.02, max_attempts=1
    )
    bad = make_point(strategy="NO-SUCH-STRATEGY")
    runner.dispatch([bad])
    Worker(runner.queue, worker_id="w1", poll_interval=0.02).run()
    with pytest.raises(PointExecutionError) as excinfo:
        runner.run_points([bad])
    assert "retry budget" in str(excinfo.value)


def test_distributed_runner_resumes_from_partial_queue(queue):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM"))
    runner = DistributedRunner(queue.base_url, timeout=120.0, poll_interval=0.02)
    with runner.queue:
        runner.dispatch(spec.points())
        Worker(runner.queue, worker_id="w1", poll_interval=0.02).run(max_tasks=1)
    # The client restarted later: only the missing point is outstanding.
    resumed = DistributedRunner(queue.base_url, timeout=120.0, poll_interval=0.02)
    summary = resumed.dispatch(spec.points())
    assert summary.already_done == 1 and summary.already_queued == 1
    thread = drain_in_thread(resumed.queue, worker_id="w2")
    experiment = resumed.run(spec)
    thread.join(timeout=60.0)
    assert len(experiment.points) == 2


def test_task_file_with_an_invalid_point_is_not_loadable(tmp_path):
    """The journal is the coordinator's task file: a task record whose point
    is invalid refuses the whole file, naming the line and the field."""
    state = tmp_path / "state"
    coordinator = Coordinator(state_dir=state)
    with HttpBackend(coordinator.start()) as client:
        client.enqueue([make_point()])
    coordinator.stop()
    journal = state / "journal.jsonl"
    record = json.loads(journal.read_text())
    record["point"]["kind"] = "nope"
    journal.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=r"journal\.jsonl:1: .*unknown point kind 'nope'"):
        Coordinator(state_dir=state)


def test_default_max_attempts_applied_to_enqueued_tasks(queue):
    point = make_point()
    queue.enqueue([point])
    record = queue.load_task(queue.task_id(point))
    assert record is not None
    assert record.max_attempts == DEFAULT_MAX_ATTEMPTS
    assert record.point == point


# -- robustness fixes --------------------------------------------------------------
def test_unreadable_task_record_is_terminal_not_pending(queue):
    """A task id the coordinator holds no record of (e.g. after a restart
    without --state-dir) is terminal: nobody waits on it forever."""
    good = make_point()
    queue.enqueue([good])
    unknown = "f" * 64
    assert queue.load_task(unknown) is None
    assert queue.poll_finished([unknown]) == {unknown}
    status = queue.status([queue.task_id(good), unknown])
    assert status.total == 2 and status.failed == 1
    assert status.failures[0]["last_error"] == "unknown task"
    stats = Worker(queue, worker_id="w1", poll_interval=0.02).run()
    assert stats.executed == 1
    wait_for_tasks(queue, [queue.task_id(good), unknown], poll_interval=0.02, timeout=5.0)


def test_stale_claimant_cannot_stomp_reclaimed_lease(serve):
    queue = serve(lease_seconds=0.3)
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    assert queue.try_claim(task_id, "w1", host="elsewhere", pid=1)
    time.sleep(0.5)
    assert queue.try_claim(task_id, "w2")  # w1's lease expired: reclaimed
    # w1's failure must neither charge the budget nor drop w2's lease.
    assert queue.record_failure(task_id, "w1", "boom") == 0
    assert queue.attempts(task_id) == 0
    assert queue.lease_state(task_id) is not None
    queue.release(task_id, "w1")
    assert queue.lease_state(task_id) is not None  # owner check: w2 still holds it
    queue.release(task_id, "w2")
    assert queue.lease_state(task_id) is None
