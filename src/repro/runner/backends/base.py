"""The ``QueueBackend`` protocol: the abstract work-distribution surface.

PR 4's distributed layer was written against one concrete class -- the
filesystem :class:`~repro.runner.backends.filesystem.FilesystemBackend`
(née ``WorkQueue``) -- which tied every consumer (worker daemon,
coordinator, CLI) to a shared mount.  This module extracts the *semantic*
surface those consumers actually rely on, so dispatch can run over any
transport that honours the same contract:

* durable **task records** keyed by the host-independent result-cache key
  (:func:`repro.runner.cache.point_key`), enqueued idempotently;
* an exclusive, heartbeat-refreshed **lease** per running task, reclaimable
  when the heartbeat expires (or immediately when the holder is a dead
  process on the same host);
* a per-task **retry budget** consumed by failing attempts, with terminal
  ``done``/``failed`` states and a result store addressed by point.

Conforming implementations: the filesystem backend (shared directory), the
in-memory backend (inside the ``repro-lb serve`` coordinator) and the HTTP
backend (workers on any machine talking to that coordinator).  A shared
conformance suite (``tests/test_backends.py``) pins the contract --
claim exclusivity, heartbeat expiry, retry budgets, interrupt-safe lease
release and resume-after-kill -- across all of them.

The generic algorithms that only need the primitive operations --
``claim_next`` scanning, ``is_failed``, ``status`` folding and the
``wait`` loop (capped exponential backoff, reset on progress) -- live here
so every backend inherits identical semantics.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.metrics.timeline import TimelineWindow
from repro.runner.spec import PointSpec
from repro.simulation.results import SimulationResult

__all__ = [
    "QueueBackend",
    "TaskRecord",
    "ClaimedTask",
    "EnqueueSummary",
    "QueueStatus",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_MAX_POLL_INTERVAL",
    "pid_alive",
]

#: Seconds without a heartbeat after which a lease may be reclaimed.  Every
#: participant of one queue must use the same value.
DEFAULT_LEASE_SECONDS = 60.0

#: Times a task may fail before the queue stops retrying it.
DEFAULT_MAX_ATTEMPTS = 3

#: Ceiling for the wait loop's exponential backoff (seconds).  Idle polls
#: double from the caller's ``poll_interval`` up to this cap and snap back
#: to the floor whenever a task finishes, so a long drain does not hammer
#: the backend while a finishing sweep is still collected promptly.
DEFAULT_MAX_POLL_INTERVAL = 5.0


@dataclass(frozen=True)
class TaskRecord:
    """One durable point task."""

    task_id: str
    point: PointSpec
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    enqueued_at: float = 0.0


@dataclass(frozen=True)
class ClaimedTask:
    """A task currently leased to this process."""

    record: TaskRecord

    @property
    def task_id(self) -> str:
        return self.record.task_id

    @property
    def point(self) -> PointSpec:
        return self.record.point


@dataclass(frozen=True)
class EnqueueSummary:
    """Outcome of one :meth:`QueueBackend.enqueue` call (unique tasks)."""

    enqueued: int = 0  # newly created task records
    already_queued: int = 0  # task record existed, not finished yet
    already_done: int = 0  # completion marker (or stored result) present

    @property
    def total(self) -> int:
        return self.enqueued + self.already_queued + self.already_done


@dataclass
class QueueStatus:
    """Aggregate view of a queue."""

    total: int = 0
    pending: int = 0  # no lease, no completion, budget left
    running: int = 0  # fresh lease held by some worker
    stale: int = 0  # lease present but its heartbeat expired (or holder dead)
    done: int = 0
    failed: int = 0  # retry budget exhausted
    failures: List[Dict[str, object]] = field(default_factory=list)

    @property
    def unfinished(self) -> int:
        return self.total - self.done - self.failed

    @property
    def all_done(self) -> bool:
        return self.total > 0 and self.done == self.total

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "pending": self.pending,
            "running": self.running,
            "stale": self.stale,
            "done": self.done,
            "failed": self.failed,
            "unfinished": self.unfinished,
            "all_done": self.all_done,
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QueueStatus":
        return cls(
            total=int(data.get("total", 0)),
            pending=int(data.get("pending", 0)),
            running=int(data.get("running", 0)),
            stale=int(data.get("stale", 0)),
            done=int(data.get("done", 0)),
            failed=int(data.get("failed", 0)),
            failures=list(data.get("failures") or []),
        )

    def render(self) -> str:
        lines = [
            f"tasks:   {self.total}",
            f"done:    {self.done}",
            f"running: {self.running}",
            f"stale:   {self.stale}",
            f"pending: {self.pending}",
            f"failed:  {self.failed}",
        ]
        for failure in self.failures:
            lines.append(
                f"  failed task {failure['task_id']} "
                f"({failure['attempts']} attempt(s)): {failure['last_error']}"
            )
        return "\n".join(lines)


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a local process id."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists (or cannot tell): assume alive
    return True


class QueueBackend(ABC):
    """Abstract work-distribution backend.

    Subclasses implement the primitive storage operations; the claim scan,
    terminal-state classification, status fold and wait loop are shared so
    every backend exposes identical semantics to workers and coordinators.
    """

    #: Lease/heartbeat timeout; all participants of one queue must agree.
    lease_seconds: float = DEFAULT_LEASE_SECONDS

    # -- identity ------------------------------------------------------------------
    def task_id(self, point: PointSpec) -> str:
        """A point's task id: its (host-independent) result-cache key."""
        from repro.runner.cache import point_key

        return point_key(point)

    def describe(self) -> str:
        """Human-readable locator (queue directory, coordinator URL, ...)."""
        return repr(self)

    # -- primitive surface ---------------------------------------------------------
    @abstractmethod
    def enqueue(
        self, points: Sequence[PointSpec], max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> EnqueueSummary:
        """Persist task records for every unique point not yet enqueued."""

    @abstractmethod
    def task_ids(self) -> List[str]:
        """Every enqueued task id, in a stable claim-scan order."""

    @abstractmethod
    def load_task(self, task_id: str) -> Optional[TaskRecord]:
        """The task's durable record, or ``None`` when unreadable/unknown."""

    @abstractmethod
    def is_done(self, task_id: str) -> bool:
        """True when the task carries a completion marker."""

    @abstractmethod
    def attempts(self, task_id: str) -> int:
        """Failed attempts recorded against the task so far."""

    @abstractmethod
    def last_error(self, task_id: str) -> Optional[str]:
        """Message of the most recent failed attempt, if any."""

    @abstractmethod
    def lease_state(self, task_id: str, now: Optional[float] = None) -> Optional[str]:
        """``"running"``, ``"stale"`` or ``None`` when no lease is held.

        A lease is stale when its heartbeat is older than ``lease_seconds``,
        or immediately when it names a dead process on this backend's host
        -- ``status`` therefore reports a crashed worker's task as ``stale``
        (reclaimable), never as ``running``.
        """

    @abstractmethod
    def try_claim(
        self,
        task_id: str,
        worker: str,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> bool:
        """Atomically take the task's lease; False when someone holds it.

        ``host``/``pid`` default to the calling process and exist so remote
        claimants (and the conformance suite) can record the real holder.
        """

    @abstractmethod
    def heartbeat(self, task_id: str, worker: str) -> bool:
        """Refresh the lease's heartbeat; False when the lease is lost."""

    def report_windows(
        self, task_id: str, worker: str, first: int, windows: Sequence[TimelineWindow]
    ) -> None:
        """Show a running task's closed windows ``first, first + 1, ...``.

        A live view only: the finished result carries every window.  Local
        backends have nobody to show them to, so this is a no-op.
        """

    @abstractmethod
    def release(self, task_id: str, worker: Optional[str] = None) -> None:
        """Drop the task's lease (idempotent; owner-checked when given)."""

    @abstractmethod
    def mark_done(self, task_id: str, worker: str, attempts: int) -> None:
        """Write the task's completion marker."""

    @abstractmethod
    def complete(
        self,
        task_id: str,
        point: PointSpec,
        result: Optional[SimulationResult],
        worker: str,
    ) -> None:
        """Store the result (when given), mark the task done, drop the lease."""

    @abstractmethod
    def record_failure(self, task_id: str, worker: str, error: str) -> int:
        """Append one failed attempt (claim holder only) and drop the lease."""

    @abstractmethod
    def load_result(self, point: PointSpec) -> Optional[SimulationResult]:
        """The stored result for ``point``, or ``None``."""

    @property
    @abstractmethod
    def results(self):
        """Result-store adapter (``get``/``put``/``hits``/``misses``/``root``).

        Doubles as the :class:`~repro.runner.distributed.DistributedRunner`'s
        cache, so coordinators inherit hit/miss accounting and pre-seeded
        results regardless of transport.
        """

    # -- shared algorithms ---------------------------------------------------------
    def is_failed(self, task_id: str) -> bool:
        """True when the task is terminal without being done.

        That covers an exhausted retry budget, and task records that cannot
        be loaded (corrupt, deleted, or an incompatible format version) --
        such a task can never run, so treating it as pending would make
        workers and coordinators wait on it forever.
        """
        if self.is_done(task_id):
            return False
        record = self.load_task(task_id)
        if record is None:
            return True
        return self.attempts(task_id) >= record.max_attempts

    def claim_next(
        self,
        worker: str,
        finished: Optional[set] = None,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> Optional[ClaimedTask]:
        """Claim the first runnable task, or ``None`` when nothing is claimable.

        ``finished`` is an optional caller-owned memo of task ids already
        known to be terminal (done, failed, unreadable); ids discovered to
        be terminal during this scan are added to it, so a worker's repeated
        scans of a large queue skip the finished tasks instead of re-reading
        every record each time.  ``host``/``pid`` identify the claimant when
        the scan runs on its behalf (the HTTP coordinator claiming for a
        remote worker); they default to the calling process.
        """
        for task_id in self.task_ids():
            if finished is not None and task_id in finished:
                continue
            if self.is_done(task_id):
                if finished is not None:
                    finished.add(task_id)
                continue
            record = self.load_task(task_id)
            if record is None:
                # Corrupt/foreign record: never runnable, terminal.
                if finished is not None:
                    finished.add(task_id)
                continue
            if self.attempts(task_id) >= record.max_attempts:
                if finished is not None:
                    finished.add(task_id)
                continue
            if not self.try_claim(task_id, worker, host=host, pid=pid):
                continue
            if self.is_done(task_id):
                # Completed between the scan and our claim of a stale lease.
                self.release(task_id, worker)
                if finished is not None:
                    finished.add(task_id)
                continue
            return ClaimedTask(record=record)
        return None

    def status(self, task_ids: Optional[Iterable[str]] = None) -> QueueStatus:
        """Summarise the queue (or the given subset of task ids)."""
        status = QueueStatus()
        now = time.time()
        for task_id in sorted(task_ids) if task_ids is not None else self.task_ids():
            status.total += 1
            if self.is_done(task_id):
                status.done += 1
                continue
            record = self.load_task(task_id)
            attempts = self.attempts(task_id)
            if record is None:
                # Unreadable record: terminal (matches is_failed), otherwise
                # workers and coordinators would wait on it forever.
                status.failed += 1
                status.failures.append(
                    {
                        "task_id": task_id,
                        "attempts": attempts,
                        "last_error": "unreadable or incompatible task record",
                    }
                )
                continue
            if attempts >= record.max_attempts:
                status.failed += 1
                status.failures.append(
                    {
                        "task_id": task_id,
                        "attempts": attempts,
                        "last_error": self.last_error(task_id) or "<unrecorded>",
                    }
                )
                continue
            lease = self.lease_state(task_id, now)
            if lease == "running":
                status.running += 1
            elif lease == "stale":
                status.stale += 1
            else:
                status.pending += 1
        return status

    def poll_finished(self, task_ids: Iterable[str]) -> Set[str]:
        """The subset of ``task_ids`` that is terminal (done or failed).

        One wait-loop probe; remote backends override it with a single
        round trip instead of two calls per task.
        """
        return {
            task_id
            for task_id in task_ids
            if self.is_done(task_id) or self.is_failed(task_id)
        }

    def wait(
        self,
        task_ids: Sequence[str],
        poll_interval: float = 0.5,
        timeout: Optional[float] = None,
        max_poll_interval: float = DEFAULT_MAX_POLL_INTERVAL,
    ) -> None:
        """Block until every given task is done or failed.

        Polls with capped exponential backoff: idle probes double the sleep
        from ``poll_interval`` up to ``max_poll_interval``, and any probe
        that observes progress (some task finished) snaps back to the floor
        -- so waiting on a long-running sweep is cheap while a draining one
        is still collected promptly.  Raises :class:`TimeoutError` (with a
        status snapshot in the message) when ``timeout`` seconds elapse
        first.
        """
        remaining = set(task_ids)
        deadline = None if timeout is None else time.monotonic() + timeout
        ceiling = max(float(max_poll_interval), float(poll_interval))
        interval = float(poll_interval)
        while remaining:
            finished = self.poll_finished(remaining)
            if finished:
                remaining -= finished
                interval = float(poll_interval)  # progress: probe quickly again
            if not remaining:
                return
            if deadline is not None and time.monotonic() > deadline:
                status = self.status(task_ids)
                raise TimeoutError(
                    f"queue {self.describe()} did not finish within {timeout:g}s "
                    f"({len(remaining)} task(s) unfinished)\n{status.render()}"
                )
            time.sleep(interval)
            interval = min(interval * 2.0, ceiling)
