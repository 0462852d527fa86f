"""Tests for the distributed work queue, worker daemon and coordinator."""

import dataclasses
import json
import subprocess
import sys
import threading
import time

import pytest

from repro.runner import (
    DistributedRunner,
    FilesystemBackend,
    ParallelRunner,
    PointExecutionError,
    PointSpec,
    ScenarioSpec,
    Sweep,
    Worker,
    point_from_payload,
)
from repro.runner.backends.base import DEFAULT_MAX_ATTEMPTS


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


def test_task_id_is_the_cache_key_and_ignores_presentation(tmp_path):
    queue = FilesystemBackend(tmp_path)
    point = make_point()
    assert queue.task_id(point) == queue.results.key(point)
    relabelled = dataclasses.replace(point, figure="g", series="other", x=99)
    assert queue.task_id(point) == queue.task_id(relabelled)
    # A JSON round trip (worker on another host) preserves the id.
    rebuilt = point_from_payload(json.loads(json.dumps(dataclasses.asdict(point))))
    assert queue.task_id(rebuilt) == queue.task_id(point)


def test_task_file_with_an_invalid_point_is_not_loadable(tmp_path):
    queue = FilesystemBackend(tmp_path)
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    path = queue._task_path(task_id)
    data = json.loads(path.read_text())
    data["point"]["kind"] = "nope"
    path.write_text(json.dumps(data))
    assert queue.load_task(task_id) is None


# -- enqueue / resume -------------------------------------------------------------
def test_enqueue_dedupes_and_is_idempotent(tmp_path):
    queue = FilesystemBackend(tmp_path)
    points = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM")).points()
    first = queue.enqueue(list(points) + [points[0]])  # duplicate point
    assert first.enqueued == 2
    assert first.total == 2
    again = queue.enqueue(points)
    assert again.enqueued == 0
    assert again.already_queued == 2
    status = queue.status()
    assert status.total == 2 and status.pending == 2


def test_enqueue_marks_preseeded_results_done(tmp_path):
    queue = FilesystemBackend(tmp_path)
    point = tiny_spec().points()[0]
    result = ParallelRunner(workers=1).run_points([point])[0]
    # Result stored (e.g. by a worker that died before marking): enqueue
    # notices and completes the task without any worker involvement.
    queue.results.put(point, result)
    summary = queue.enqueue([point])
    assert summary.already_done == 1
    assert queue.status().all_done


# -- leases -----------------------------------------------------------------------
def test_claim_is_exclusive(tmp_path):
    queue = FilesystemBackend(tmp_path)
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    assert queue.try_claim(task_id, "w1")
    assert not queue.try_claim(task_id, "w2")
    queue.release(task_id)
    assert queue.try_claim(task_id, "w2")


def test_stale_lease_of_dead_local_process_is_reclaimed(tmp_path):
    queue = FilesystemBackend(tmp_path)
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    assert queue.try_claim(task_id, "w1")
    # Rewrite the lease as if a (now dead) local process held it.
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    lease_path = queue._lease_path(task_id)
    lease = json.loads(lease_path.read_text())
    lease["pid"] = child.pid
    lease_path.write_text(json.dumps(lease))
    assert queue.try_claim(task_id, "w2")  # dead holder: immediate takeover
    lease = json.loads(lease_path.read_text())
    assert lease["worker"] == "w2"


def test_expired_heartbeat_is_reclaimed_live_one_is_not(tmp_path):
    queue = FilesystemBackend(tmp_path, lease_seconds=30.0)
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    assert queue.try_claim(task_id, "w1")
    lease_path = queue._lease_path(task_id)
    lease = json.loads(lease_path.read_text())
    lease["pid"] = 1  # not ours: fall through to the heartbeat check
    lease["host"] = "elsewhere"
    lease["heartbeat_at"] = time.time() - 5.0
    lease_path.write_text(json.dumps(lease))
    assert not queue.try_claim(task_id, "w2")  # heartbeat still fresh
    lease["heartbeat_at"] = time.time() - 60.0
    lease_path.write_text(json.dumps(lease))
    assert queue.try_claim(task_id, "w2")


def test_heartbeat_refreshes_only_own_lease(tmp_path):
    queue = FilesystemBackend(tmp_path)
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    assert queue.try_claim(task_id, "w1")
    before = json.loads(queue._lease_path(task_id).read_text())["heartbeat_at"]
    time.sleep(0.01)
    assert queue.heartbeat(task_id, "w1")
    after = json.loads(queue._lease_path(task_id).read_text())["heartbeat_at"]
    assert after > before
    assert not queue.heartbeat(task_id, "w2")  # not the holder


# -- worker -----------------------------------------------------------------------
def test_worker_drains_queue_and_results_match_local_run(tmp_path):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM"))
    local = ParallelRunner(workers=1).run_points(spec.points())
    queue = FilesystemBackend(tmp_path)
    queue.enqueue(spec.points())
    stats = Worker(queue, worker_id="w1", poll_interval=0.05).run()
    assert stats.executed == 2 and stats.failed == 0
    assert queue.status().all_done
    stored = [queue.load_result(point) for point in spec.points()]
    assert stored == local  # bit-identical to the in-process runner


def test_worker_respects_max_tasks_and_resumes(tmp_path):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM"))
    queue = FilesystemBackend(tmp_path)
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


def test_two_workers_split_the_queue_without_duplication(tmp_path):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM", "psu_noIO+RANDOM",
                                 "psu_opt+LUM"))
    queue = FilesystemBackend(tmp_path)
    queue.enqueue(spec.points())
    stats = [None, None]

    def drain(slot):
        stats[slot] = Worker(queue, worker_id=f"w{slot}", poll_interval=0.02).run()

    threads = [threading.Thread(target=drain, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert queue.status().all_done
    # Every task ran exactly once across the two workers.
    assert stats[0].executed + stats[1].executed == 4
    assert stats[0].failed == stats[1].failed == 0


def test_failing_point_consumes_retry_budget(tmp_path):
    queue = FilesystemBackend(tmp_path)
    bad = make_point(strategy="NO-SUCH-STRATEGY")
    queue.enqueue([bad], max_attempts=2)
    stats = Worker(queue, worker_id="w1", poll_interval=0.02).run()
    assert stats.failed == 2 and stats.executed == 0
    task_id = queue.task_id(bad)
    assert queue.is_failed(task_id)
    assert queue.attempts(task_id) == 2
    status = queue.status()
    assert status.failed == 1 and status.unfinished == 0
    assert "NO-SUCH-STRATEGY" in (queue.last_error(task_id) or "")
    assert "failed task" in status.render()


def test_interrupted_worker_releases_lease_without_burning_a_retry(tmp_path, monkeypatch):
    queue = FilesystemBackend(tmp_path)
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


# -- coordinator ------------------------------------------------------------------
def drain_in_thread(queue, **kwargs):
    thread = threading.Thread(
        target=lambda: Worker(queue, poll_interval=0.02, **kwargs).run(), daemon=True
    )
    thread.start()
    return thread


def test_distributed_runner_matches_parallel_runner(tmp_path):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM"))
    local = ParallelRunner(workers=2).run(spec)
    runner = DistributedRunner(tmp_path / "queue", timeout=120.0, poll_interval=0.02)
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


def test_distributed_runner_replicates_aggregate_identically(tmp_path):
    spec = tiny_spec().with_replicates(2)
    local = ParallelRunner(workers=2).run(spec).aggregate()
    runner = DistributedRunner(tmp_path / "queue", timeout=120.0, poll_interval=0.02)
    runner.dispatch(spec.points())
    thread = drain_in_thread(runner.queue, worker_id="w1")
    distributed = runner.run(spec).aggregate()
    thread.join(timeout=60.0)
    assert local.table() == distributed.table()
    assert local.to_rows() == distributed.to_rows()


def test_distributed_runner_times_out_without_workers(tmp_path):
    runner = DistributedRunner(tmp_path / "queue", timeout=0.2, poll_interval=0.02)
    with pytest.raises(TimeoutError) as excinfo:
        runner.run(tiny_spec())
    assert "unfinished" in str(excinfo.value)


def test_distributed_runner_surfaces_exhausted_tasks(tmp_path):
    runner = DistributedRunner(
        tmp_path / "queue", timeout=60.0, poll_interval=0.02, max_attempts=1
    )
    bad = make_point(strategy="NO-SUCH-STRATEGY")
    runner.dispatch([bad])
    Worker(runner.queue, worker_id="w1", poll_interval=0.02).run()
    with pytest.raises(PointExecutionError) as excinfo:
        runner.run_points([bad])
    assert "retry budget" in str(excinfo.value)


def test_distributed_runner_resumes_from_partial_queue(tmp_path):
    spec = tiny_spec(strategies=("OPT-IO-CPU", "psu_opt+RANDOM"))
    runner = DistributedRunner(tmp_path / "queue", timeout=120.0, poll_interval=0.02)
    runner.dispatch(spec.points())
    Worker(runner.queue, worker_id="w1", poll_interval=0.02).run(max_tasks=1)
    # Coordinator restarted later: only the missing point is outstanding.
    resumed = DistributedRunner(tmp_path / "queue", timeout=120.0, poll_interval=0.02)
    summary = resumed.dispatch(spec.points())
    assert summary.already_done == 1 and summary.already_queued == 1
    thread = drain_in_thread(resumed.queue, worker_id="w2")
    experiment = resumed.run(spec)
    thread.join(timeout=60.0)
    assert len(experiment.points) == 2


def test_default_max_attempts_applied_to_enqueued_tasks(tmp_path):
    queue = FilesystemBackend(tmp_path)
    point = make_point()
    queue.enqueue([point])
    record = queue.load_task(queue.task_id(point))
    assert record is not None
    assert record.max_attempts == DEFAULT_MAX_ATTEMPTS
    assert record.point == point


# -- robustness fixes --------------------------------------------------------------
def test_unreadable_task_record_is_terminal_not_pending(tmp_path):
    queue = FilesystemBackend(tmp_path)
    good = make_point()
    queue.enqueue([good])
    corrupt_path = queue.tasks_dir / ("f" * 64 + ".json")
    corrupt_path.write_text("{not json")
    assert queue.is_failed("f" * 64)
    status = queue.status()
    assert status.total == 2 and status.failed == 1
    assert "unreadable" in status.failures[0]["last_error"]
    # Workers and coordinators must not wait on it forever.
    stats = Worker(queue, worker_id="w1", poll_interval=0.02).run()
    assert stats.executed == 1
    queue.wait(queue.task_ids(), poll_interval=0.02, timeout=5.0)


def test_stale_claimant_cannot_stomp_reclaimed_lease(tmp_path):
    queue = FilesystemBackend(tmp_path)
    point = make_point()
    queue.enqueue([point])
    task_id = queue.task_id(point)
    assert queue.try_claim(task_id, "w1")
    # Simulate a reclaim: w2 now owns the lease while w1 is still running.
    lease_path = queue._lease_path(task_id)
    lease = json.loads(lease_path.read_text())
    lease["worker"] = "w2"
    lease_path.write_text(json.dumps(lease))
    # w1's failure must neither charge the budget nor drop w2's lease.
    assert queue.record_failure(task_id, "w1", "boom") == 0
    assert queue.attempts(task_id) == 0
    assert lease_path.exists()
    queue.release(task_id, "w1")
    assert lease_path.exists()  # owner check: w2 still holds it
    queue.release(task_id, "w2")
    assert not lease_path.exists()
