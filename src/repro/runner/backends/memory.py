"""The coordinator's queue: an in-memory index, made durable by a journal.

``repro-lb serve`` holds one :class:`MemoryBackend`.  Every task record,
lease, retry ledger and result lives in process memory behind one
re-entrant lock, so the (threaded) HTTP handlers mutate a consistent queue
and every read is served from memory.  A result is kept once, as the JSON
bytes the coordinator serves: it is encoded when it arrives (or is
replayed), never per read.  The claim scan, the status fold and
the wait loop's probe run here, under the lock, and clients reach each of
them in one round trip.

A lease is owner-checked and refreshed by heartbeats.  It is stale once
its heartbeat is older than ``lease_seconds``, or at once when it names a
dead process on the coordinator's own host.

**Durability.**  With a ``state_dir``, every state change (enqueue, claim,
release, done, failure) appends one JSON line to ``state_dir/journal.jsonl``
under the lock.  Each line is flushed but not fsynced: the journal survives
``kill -9`` of the process, not a host crash.  Heartbeats are not journaled.
A result is written to ``state_dir/results/<task_id>.json`` in the
:class:`~repro.runner.cache.ResultCache` layout before its ``done`` line, so
that directory doubles as a result cache.  On start the journal is replayed:

* a claim comes back as a lease with a fresh heartbeat, so a live worker
  keeps its task and a dead pid on this host is stale at once;
* a ``done`` whose result file is missing or unreadable leaves its task
  pending;
* a torn final line (no newline, or not JSON) is dropped and cut off the
  file before new appends; any other unreadable line is a
  :class:`ValueError` naming the file and the line.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.runner.backends.base import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    EnqueueSummary,
    QueueStatus,
    TaskRecord,
    pid_alive,
)
from repro.runner.cache import ResultCache, point_key
from repro.runner.spec import PointSpec, point_from_payload

__all__ = ["MemoryBackend"]


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


class _Journal:
    """Append-only JSON lines, one per queue state change."""

    def __init__(self, path: Path):
        self.path = path
        self._end = 0  # byte offset just past the last complete line
        self._file = None

    def records(self) -> List[Tuple[int, object]]:
        """``(line number, decoded line)`` for every complete line."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        *lines, tail = data.split(b"\n")
        records = []
        for number, line in enumerate(lines, start=1):
            try:
                records.append((number, json.loads(line)))
            except ValueError as exc:
                if number == len(lines) and not tail:
                    break  # torn final line
                raise ValueError(f"{self.path}:{number}: unreadable journal line ({exc})") from None
            self._end += len(line) + 1
        return records

    def open(self) -> None:
        """Start appending right after the last complete line."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        self._file.truncate(self._end)

    def append(self, record: Dict[str, object]) -> None:
        self._file.write(json.dumps(record, default=asdict).encode("utf-8") + b"\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class MemoryBackend:
    """Lock-protected queue; journaled to ``state_dir`` when one is given."""

    def __init__(
        self,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        state_dir: Optional[Union[str, "os.PathLike"]] = None,
    ):
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        self.lease_seconds = float(lease_seconds)
        self._lock = threading.RLock()
        self._tasks: Dict[str, TaskRecord] = {}
        self._leases: Dict[str, Dict[str, object]] = {}
        self._done: Set[str] = set()
        self._errors: Dict[str, List[str]] = {}  # one entry per failed attempt
        self._results_json: Dict[str, bytes] = {}  # task id -> encoded result
        self._host = socket.gethostname()
        self._journal: Optional[_Journal] = None
        self._results: Optional[ResultCache] = None
        if state_dir is not None:
            self._restore(Path(state_dir))

    @property
    def lock(self) -> threading.RLock:
        """The backend's lock, shared with coordinator-level bookkeeping."""
        return self._lock

    # -- journal -------------------------------------------------------------------
    def _restore(self, root: Path) -> None:
        journal = _Journal(root / "journal.jsonl")
        self._results = ResultCache(root / "results")
        now = time.time()
        for number, record in journal.records():
            try:
                self._replay(record, now)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{journal.path}:{number}: invalid journal record "
                    f"({type(exc).__name__}: {exc})"
                ) from None
        journal.open()
        self._journal = journal

    def _replay(self, record: Dict[str, object], now: float) -> None:
        op, task_id = record["op"], str(record["task_id"])
        if op == "enqueue":
            self._tasks[task_id] = TaskRecord(
                task_id=task_id,
                point=point_from_payload(record["point"]),
                max_attempts=int(record["max_attempts"]),
                enqueued_at=float(record["at"]),
            )
        elif op == "claim":
            self._lease(task_id, str(record["worker"]), record["host"], record["pid"], now)
        elif op == "release":
            self._leases.pop(task_id, None)
        elif op == "done":
            if task_id not in self._results_json:
                payload = self._stored_result(task_id)
                if payload is not None:
                    self._results_json[task_id] = _encode(payload)
            if task_id in self._results_json:
                self._done.add(task_id)
            if self._holds(task_id, str(record["worker"])):
                del self._leases[task_id]
        elif op == "fail":
            self._charge(task_id, str(record["error"]))
        else:
            raise ValueError(f"unknown op {op!r}")

    def _stored_result(self, task_id: str) -> Optional[dict]:
        try:
            payload = json.loads((self._results.root / f"{task_id}.json").read_text())["result"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _log(self, **record) -> None:
        if self._journal is not None:
            self._journal.append(record)

    def close(self) -> None:
        """Close the journal (a no-op without a ``state_dir``)."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()

    # -- state changes shared by the live operations and the replay ---------------
    def _lease(self, task_id: str, worker: str, host: object, pid: object, now: float) -> None:
        self._leases[task_id] = {"worker": worker, "host": host, "pid": pid, "heartbeat_at": now}

    def _holds(self, task_id: str, worker: Optional[str]) -> bool:
        """Whether ``worker`` (anyone, for ``None``) holds the task's lease."""
        lease = self._leases.get(task_id)
        return lease is not None and (worker is None or lease["worker"] == worker)

    def _charge(self, task_id: str, error: str) -> int:
        errors = self._errors.setdefault(task_id, [])
        errors.append(error)
        self._leases.pop(task_id, None)
        return len(errors)

    def _mark_done(self, task_id: str, worker: str) -> None:
        self._log(op="done", task_id=task_id, worker=worker)
        self._done.add(task_id)
        if self._holds(task_id, worker):
            del self._leases[task_id]

    # -- enqueue -------------------------------------------------------------------
    def enqueue(
        self, points: Sequence[PointSpec], max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> EnqueueSummary:
        """Add a task for every unique point not enqueued yet."""
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        enqueued = already_queued = already_done = 0
        seen: set = set()
        with self._lock:
            for point in points:
                task_id = point_key(point)
                if task_id in seen:
                    continue
                seen.add(task_id)
                created = task_id not in self._tasks
                if created:
                    now = time.time()
                    self._log(op="enqueue", task_id=task_id, point=point,
                              max_attempts=int(max_attempts), at=now)
                    self._tasks[task_id] = TaskRecord(task_id, point, int(max_attempts), now)
                if task_id in self._done:
                    already_done += 1
                elif task_id in self._results_json:
                    # Pre-seeded result (e.g. a re-submitted sweep): mark it
                    # done so no worker wastes a slot re-running it.
                    self._mark_done(task_id, worker="dispatch")
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
        with self._lock:
            return sorted(self._tasks)

    def load_task(self, task_id: str) -> Optional[TaskRecord]:
        with self._lock:
            return self._tasks.get(task_id)

    def is_done(self, task_id: str) -> bool:
        with self._lock:
            return task_id in self._done

    def attempts(self, task_id: str) -> int:
        with self._lock:
            return len(self._errors.get(task_id, ()))

    def last_error(self, task_id: str) -> Optional[str]:
        with self._lock:
            errors = self._errors.get(task_id)
            return errors[-1] if errors else None

    def _is_failed(self, task_id: str) -> bool:
        """Terminal without a completion: budget spent, or unknown here."""
        record = self._tasks.get(task_id)
        return record is None or len(self._errors.get(task_id, ())) >= record.max_attempts

    def status(self, task_ids: Optional[Sequence[str]] = None) -> QueueStatus:
        """Summarise the queue (or the given subset of task ids)."""
        status = QueueStatus()
        now = time.time()
        with self._lock:
            for task_id in sorted(self._tasks if task_ids is None else task_ids):
                status.total += 1
                if task_id in self._done:
                    status.done += 1
                elif self._is_failed(task_id):
                    status.failed += 1
                    status.failures.append(
                        {
                            "task_id": task_id,
                            "attempts": self.attempts(task_id),
                            "last_error": self.last_error(task_id) or "unknown task",
                        }
                    )
                else:
                    lease = self.lease_state(task_id, now)
                    if lease == "running":
                        status.running += 1
                    elif lease == "stale":
                        status.stale += 1
                    else:
                        status.pending += 1
        return status

    def poll_finished(self, task_ids: Sequence[str]) -> Set[str]:
        """The terminal (done or failed) subset of ``task_ids``."""
        with self._lock:
            return {
                task_id
                for task_id in task_ids
                if task_id in self._done or self._is_failed(task_id)
            }

    # -- leases --------------------------------------------------------------------
    def _lease_is_stale(self, lease: Dict[str, object], now: float) -> bool:
        pid = lease["pid"]
        if lease["host"] == self._host and isinstance(pid, int) and not pid_alive(pid):
            return True
        return now - float(lease["heartbeat_at"]) > self.lease_seconds

    def lease_state(self, task_id: str, now: Optional[float] = None) -> Optional[str]:
        """``"running"``, ``"stale"`` or ``None`` when no lease is held."""
        with self._lock:
            lease = self._leases.get(task_id)
            if lease is None:
                return None
            stale = self._lease_is_stale(lease, time.time() if now is None else now)
            return "stale" if stale else "running"

    def try_claim(
        self,
        task_id: str,
        worker: str,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> bool:
        """Take the task's lease; False while someone holds a fresh one.

        ``host``/``pid`` name the claimant (a remote worker); they default
        to this process.
        """
        with self._lock:
            lease = self._leases.get(task_id)
            if lease is not None and not self._lease_is_stale(lease, time.time()):
                return False
            host = self._host if host is None else host
            pid = os.getpid() if pid is None else pid
            self._log(op="claim", task_id=task_id, worker=worker, host=host, pid=pid)
            self._lease(task_id, worker, host, pid, time.time())
            return True

    def claim_next(
        self, worker: str, host: Optional[str] = None, pid: Optional[int] = None
    ) -> Optional[TaskRecord]:
        """Claim the first runnable task in task-id order, or ``None``."""
        with self._lock:
            for task_id in sorted(self._tasks):
                if task_id in self._done or self._is_failed(task_id):
                    continue
                if self.try_claim(task_id, worker, host=host, pid=pid):
                    return self._tasks[task_id]
        return None

    def heartbeat(self, task_id: str, worker: str) -> bool:
        """Refresh the lease's heartbeat; False when ``worker`` lost it."""
        with self._lock:
            if not self._holds(task_id, worker):
                return False
            self._leases[task_id]["heartbeat_at"] = time.time()
            return True

    def release(self, task_id: str, worker: Optional[str] = None) -> None:
        """Drop the task's lease (idempotent; owner-checked when given)."""
        with self._lock:
            if self._holds(task_id, worker):
                self._log(op="release", task_id=task_id, worker=worker)
                del self._leases[task_id]

    # -- completion / failure ------------------------------------------------------
    def complete(
        self,
        task_id: str,
        worker: str,
        result: Optional[dict] = None,
        point_payload: Optional[Dict[str, object]] = None,
    ) -> None:
        """Store ``result`` (a ``to_dict()`` payload) when given, mark the task
        done and drop ``worker``'s lease.

        A durable queue writes the result file first; ``point_payload``
        names the file's point for a task not enqueued here.
        """
        with self._lock:
            if result is not None:
                if self._results is not None:
                    self._results.put_payload(self._point_of(task_id, point_payload), result)
                self._results_json[task_id] = _encode(result)
            self._mark_done(task_id, worker)

    def _point_of(self, task_id: str, payload: Optional[Dict[str, object]]) -> PointSpec:
        record = self._tasks.get(task_id)
        if record is not None:
            return record.point
        point = point_from_payload(payload)
        if point_key(point) != task_id:
            raise ValueError(f"the result's point is not the point of task {task_id}")
        return point

    def record_failure(self, task_id: str, worker: str, error: str) -> int:
        """Charge one failed attempt (lease holder only) and drop the lease."""
        with self._lock:
            if not self._holds(task_id, worker):
                return self.attempts(task_id)
            self._log(op="fail", task_id=task_id, worker=worker, error=error)
            return self._charge(task_id, error)

    def result_json(self, task_id: str) -> Optional[bytes]:
        """The stored result of ``task_id`` as JSON bytes, or ``None``."""
        with self._lock:
            return self._results_json.get(task_id)

