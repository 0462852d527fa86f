"""What the coordinator's queue and its HTTP client share.

The queue lives in one place, the ``repro-lb serve`` coordinator
(:class:`~repro.runner.backends.memory.MemoryBackend`, optionally made
durable by a journal); workers and dispatching clients reach it through
:class:`~repro.runner.backends.http.HttpBackend`.  Both sides speak in the
records defined here:

* a **task record** per unique point, keyed by the host-independent
  result-cache key (:func:`repro.runner.cache.point_key`);
* an exclusive, heartbeat-refreshed **lease** per running task, reclaimable
  when the heartbeat expires (or at once when the holder is a dead process
  on the coordinator's host, see :func:`pid_alive`);
* a per-task **retry budget** consumed by failing attempts, with terminal
  ``done``/``failed`` states.

:func:`wait_for_tasks` is the clients' wait loop (capped exponential
backoff, reset on progress).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.runner.spec import PointSpec

__all__ = [
    "TaskRecord",
    "EnqueueSummary",
    "QueueStatus",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_MAX_POLL_INTERVAL",
    "pid_alive",
    "wait_for_tasks",
]

#: Seconds without a heartbeat after which a lease may be reclaimed.
DEFAULT_LEASE_SECONDS = 60.0

#: Times a task may fail before the queue stops retrying it.
DEFAULT_MAX_ATTEMPTS = 3

#: Ceiling for the wait loop's exponential backoff (seconds).  Idle polls
#: double from the caller's ``poll_interval`` up to this cap and snap back
#: to the floor whenever a task finishes, so a long drain does not hammer
#: the coordinator while a finishing sweep is still collected promptly.
DEFAULT_MAX_POLL_INTERVAL = 5.0


@dataclass(frozen=True)
class TaskRecord:
    """One point task."""

    task_id: str
    point: PointSpec
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    enqueued_at: float = 0.0


@dataclass(frozen=True)
class EnqueueSummary:
    """Outcome of one ``enqueue`` call (unique tasks)."""

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
    failed: int = 0  # retry budget exhausted, or a task the queue does not know
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


def wait_for_tasks(
    queue,
    task_ids: Sequence[str],
    poll_interval: float = 0.5,
    timeout: Optional[float] = None,
    max_poll_interval: float = DEFAULT_MAX_POLL_INTERVAL,
) -> None:
    """Block until every given task is done or failed.

    ``queue`` answers ``poll_finished(task_ids)`` (the terminal subset),
    ``status(task_ids)`` and ``describe()``.  Polls with capped exponential
    backoff: idle probes double the sleep from ``poll_interval`` up to
    ``max_poll_interval``, and any probe that observes progress (some task
    finished) snaps back to the floor -- so waiting on a long-running sweep
    is cheap while a draining one is still collected promptly.  Raises
    :class:`TimeoutError` (with a status snapshot in the message) when
    ``timeout`` seconds elapse first.
    """
    remaining = set(task_ids)
    deadline = None if timeout is None else time.monotonic() + timeout
    ceiling = max(float(max_poll_interval), float(poll_interval))
    interval = float(poll_interval)
    while remaining:
        finished = queue.poll_finished(remaining)
        if finished:
            remaining -= finished
            interval = float(poll_interval)  # progress: probe quickly again
        if not remaining:
            return
        if deadline is not None and time.monotonic() > deadline:
            status = queue.status(task_ids)
            raise TimeoutError(
                f"queue {queue.describe()} did not finish within {timeout:g}s "
                f"({len(remaining)} task(s) unfinished)\n{status.render()}"
            )
        time.sleep(interval)
        interval = min(interval * 2.0, ceiling)
