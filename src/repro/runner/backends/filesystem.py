"""Filesystem-backed :class:`~repro.runner.backends.base.QueueBackend`.

A queue directory (local, or a shared mount visible to several hosts) holds
one durable *task record* per unique simulation point of a dispatched
scenario.  Tasks are keyed by the existing result-cache key -- the SHA-256
of the point's execution-relevant fields -- which is host-independent, so
any worker on any machine can claim a task, run it and store the result
where every other participant finds it.

Directory layout (all files are JSON, all writes atomic via temp file +
rename)::

    <queue-dir>/
      tasks/<task-id>.json    durable task record: the PointSpec payload,
                              enqueue time and the per-task retry budget
      leases/<task-id>.json   claim of the worker currently running the task
                              (worker id, host, pid, heartbeat timestamp)
      done/<task-id>.json     completion marker (worker, attempts, time)
      failed/<task-id>.json   accumulated failed attempts and their errors
      results/<task-id>.json  the result store: a plain
                              :class:`~repro.runner.cache.ResultCache`
                              rooted inside the queue directory

Claim protocol: a lease is taken by hard-linking a fully-written unique
temp file to ``leases/<task-id>.json`` -- link creation is atomic and fails
if the lease exists, on local filesystems and NFS alike.  The claim holder
refreshes ``heartbeat_at`` while it runs (atomic replace).  A lease is
*stale* -- and may be reclaimed -- when its heartbeat is older than the
queue's ``lease_seconds``, or immediately when it was taken on this host by
a process that no longer exists.  Reclaiming renames the stale lease to a
unique tombstone first, so exactly one contender wins even when several
workers spot the same stale lease.

Completion is idempotent: results are keyed like the cache, so a task that
is executed twice (e.g. after a lease expired under a live-but-slow worker)
writes byte-identical results and the duplicate completion is harmless.
Failures consume the task's retry budget; a task whose budget is exhausted
is *failed* and is no longer claimed.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.runner.backends.base import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    QueueBackend,
    TaskRecord,
    pid_alive,
)
from repro.runner.cache import ResultCache, write_json_atomic
from repro.runner.spec import PointSpec, point_from_payload
from repro.simulation.results import SimulationResult

__all__ = ["FilesystemBackend", "TASK_FORMAT_VERSION"]

#: Bump when the task-record schema changes: older records are rejected.
TASK_FORMAT_VERSION = 1


class FilesystemBackend(QueueBackend):
    """Durable point-task queue in a (possibly shared) directory."""

    def __init__(
        self,
        root: Union[str, Path],
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ):
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        self.root = Path(root)
        self.lease_seconds = float(lease_seconds)
        self.tasks_dir = self.root / "tasks"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        self.failed_dir = self.root / "failed"
        self._results = ResultCache(self.root / "results")

    @property
    def results(self) -> ResultCache:
        return self._results

    def describe(self) -> str:
        return str(self.root)

    # -- low-level helpers ---------------------------------------------------------
    def _ensure_layout(self) -> None:
        for directory in (self.tasks_dir, self.leases_dir, self.done_dir, self.failed_dir):
            directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, object]]:
        """Parse a JSON file; unreadable or corrupt files read as ``None``."""
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    # -- task identity -------------------------------------------------------------
    def _task_path(self, task_id: str) -> Path:
        return self.tasks_dir / f"{task_id}.json"

    def _lease_path(self, task_id: str) -> Path:
        return self.leases_dir / f"{task_id}.json"

    def _done_path(self, task_id: str) -> Path:
        return self.done_dir / f"{task_id}.json"

    def _failed_path(self, task_id: str) -> Path:
        return self.failed_dir / f"{task_id}.json"

    # -- enqueue -------------------------------------------------------------------
    def enqueue(self, points: Sequence[PointSpec], max_attempts: int = DEFAULT_MAX_ATTEMPTS):
        """Persist task records for every unique point not yet enqueued.

        Re-dispatching an interrupted sweep is safe and cheap: tasks that
        already have a completion marker (or a stored result, e.g. from a
        worker that crashed between storing and marking) are counted as
        done, existing unfinished records are left untouched, and only new
        points create task files.
        """
        from repro.runner.backends.base import EnqueueSummary

        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self._ensure_layout()
        enqueued = already_queued = already_done = 0
        seen: set = set()
        for point in points:
            task_id = self.task_id(point)
            if task_id in seen:
                continue
            seen.add(task_id)
            task_path = self._task_path(task_id)
            if not task_path.exists():
                write_json_atomic(
                    task_path,
                    {
                        "version": TASK_FORMAT_VERSION,
                        "task_id": task_id,
                        "point": asdict(point),
                        "max_attempts": int(max_attempts),
                        "enqueued_at": time.time(),
                        # presentation hints for humans inspecting the queue
                        "figure": point.figure,
                        "series": point.series,
                        "x": point.x,
                    },
                )
                created = True
            else:
                created = False
            if self.is_done(task_id):
                already_done += 1
            elif self.results.get(point) is not None:
                # Result stored but never marked (a worker died in the gap,
                # or the queue was pointed at pre-computed results): mark it
                # done now so no worker wastes a slot re-running it.
                self.mark_done(task_id, worker="dispatch", attempts=0)
                already_done += 1
            elif created:
                enqueued += 1
            else:
                already_queued += 1
        return EnqueueSummary(
            enqueued=enqueued, already_queued=already_queued, already_done=already_done
        )

    # -- task inspection -----------------------------------------------------------
    def task_ids(self) -> List[str]:
        """Every enqueued task id, sorted (stable claim-scan order)."""
        try:
            names = [path.stem for path in self.tasks_dir.glob("*.json")]
        except OSError:
            return []
        return sorted(names)

    def load_task(self, task_id: str) -> Optional[TaskRecord]:
        data = self._read_json(self._task_path(task_id))
        if data is None or data.get("version") != TASK_FORMAT_VERSION:
            return None
        try:
            point = point_from_payload(data["point"])
        except (KeyError, TypeError, ValueError):
            return None
        return TaskRecord(
            task_id=str(data.get("task_id", task_id)),
            point=point,
            max_attempts=int(data.get("max_attempts", DEFAULT_MAX_ATTEMPTS)),
            enqueued_at=float(data.get("enqueued_at", 0.0)),
        )

    def is_done(self, task_id: str) -> bool:
        return self._done_path(task_id).exists()

    def attempts(self, task_id: str) -> int:
        data = self._read_json(self._failed_path(task_id))
        if data is None:
            return 0
        try:
            return int(data.get("attempts", 0))
        except (TypeError, ValueError):
            return 0

    def last_error(self, task_id: str) -> Optional[str]:
        data = self._read_json(self._failed_path(task_id))
        if not data:
            return None
        errors = data.get("errors") or []
        if not isinstance(errors, list) or not errors:
            return None
        last = errors[-1]
        return str(last.get("error")) if isinstance(last, dict) else str(last)

    # -- leases --------------------------------------------------------------------
    def _lease_is_stale(self, lease_path: Path, now: Optional[float] = None) -> bool:
        now = time.time() if now is None else now
        lease = self._read_json(lease_path)
        if lease is None:
            # Unreadable lease (external corruption): fall back to file age.
            try:
                return now - lease_path.stat().st_mtime > self.lease_seconds
            except OSError:
                return False  # vanished: nothing to reclaim
        if lease.get("host") == socket.gethostname():
            pid = lease.get("pid")
            if isinstance(pid, int) and not pid_alive(pid):
                return True
        try:
            heartbeat = float(lease.get("heartbeat_at", lease.get("claimed_at", 0.0)))
        except (TypeError, ValueError):
            heartbeat = 0.0
        return now - heartbeat > self.lease_seconds

    def lease_state(self, task_id: str, now: Optional[float] = None) -> Optional[str]:
        lease_path = self._lease_path(task_id)
        if not lease_path.exists():
            return None
        return "stale" if self._lease_is_stale(lease_path, now) else "running"

    def _lease_payload(
        self,
        task_id: str,
        worker: str,
        claimed_at: float,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> Dict[str, object]:
        return {
            "task_id": task_id,
            "worker": worker,
            "host": socket.gethostname() if host is None else host,
            "pid": os.getpid() if pid is None else pid,
            "claimed_at": claimed_at,
            "heartbeat_at": time.time(),
        }

    def try_claim(
        self,
        task_id: str,
        worker: str,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> bool:
        """Atomically take the task's lease; False when someone holds it.

        A stale lease (expired heartbeat, or dead local process) is
        tombstoned first; the rename arbitrates between concurrent
        reclaimers, then the hard-link creation arbitrates the new claim.
        """
        self._ensure_layout()
        lease_path = self._lease_path(task_id)
        if lease_path.exists():
            if not self._lease_is_stale(lease_path):
                return False
            tombstone = lease_path.with_name(
                f"{task_id}.reclaimed.{os.getpid()}.{uuid.uuid4().hex}"
            )
            try:
                os.rename(lease_path, tombstone)
            except OSError:
                return False  # another contender won the reclaim
            try:
                os.unlink(tombstone)
            except OSError:
                pass
        tmp = lease_path.with_name(f"{task_id}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        tmp.write_text(json.dumps(self._lease_payload(task_id, worker, time.time(), host, pid)))
        try:
            os.link(tmp, lease_path)
        except FileExistsError:
            return False
        except OSError:
            # Filesystem without hard links (rare): fall back to exclusive
            # creation of the final name.
            try:
                fd = os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return False
            with os.fdopen(fd, "w") as handle:
                handle.write(tmp.read_text())
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return True

    def heartbeat(self, task_id: str, worker: str) -> bool:
        """Refresh the lease's heartbeat; False when the lease is lost."""
        lease_path = self._lease_path(task_id)
        lease = self._read_json(lease_path)
        if lease is None or lease.get("worker") != worker:
            return False
        lease["heartbeat_at"] = time.time()
        write_json_atomic(lease_path, lease)
        return True

    def release(self, task_id: str, worker: Optional[str] = None) -> None:
        """Drop the task's lease (idempotent).

        With ``worker`` given, the lease is only dropped when that worker
        still holds it: a claimant whose expired lease was reclaimed must
        not drop the new holder's live lease.
        """
        lease_path = self._lease_path(task_id)
        if worker is not None:
            lease = self._read_json(lease_path)
            if lease is not None and lease.get("worker") != worker:
                return
        try:
            os.unlink(lease_path)
        except OSError:
            pass

    # -- completion / failure ------------------------------------------------------
    def mark_done(self, task_id: str, worker: str, attempts: int) -> None:
        self._ensure_layout()
        write_json_atomic(
            self._done_path(task_id),
            {
                "task_id": task_id,
                "worker": worker,
                "attempts": int(attempts),
                "completed_at": time.time(),
            },
        )

    def complete(
        self,
        task_id: str,
        point: PointSpec,
        result: Optional[SimulationResult],
        worker: str,
    ) -> None:
        """Store the result (when given), mark the task done, drop the lease."""
        if result is not None:
            self.results.put(point, result)
        self.mark_done(task_id, worker, attempts=self.attempts(task_id))
        self.release(task_id, worker)

    def record_failure(self, task_id: str, worker: str, error: str) -> int:
        """Append one failed attempt (claim holder only) and drop the lease.

        Returns the accumulated attempt count.  Only the current lease
        holder mutates the failure record, so the read-modify-write cannot
        race: a worker whose expired lease was reclaimed while it ran --
        whether the new holder still runs or has already finished and
        released -- must not double-charge the budget (the holder of each
        execution window reports its own outcome) nor drop a live lease.
        """
        lease = self._read_json(self._lease_path(task_id))
        if lease is None or lease.get("worker") != worker:
            return self.attempts(task_id)
        path = self._failed_path(task_id)
        data = self._read_json(path) or {}
        errors = data.get("errors")
        if not isinstance(errors, list):
            errors = []
        errors.append({"worker": worker, "time": time.time(), "error": str(error)})
        attempts = int(data.get("attempts", 0) or 0) + 1
        self._ensure_layout()
        write_json_atomic(
            path, {"task_id": task_id, "attempts": attempts, "errors": errors}
        )
        self.release(task_id, worker)
        return attempts

    # -- results -------------------------------------------------------------------
    def load_result(self, point: PointSpec) -> Optional[SimulationResult]:
        return self.results.get(point)
