"""Work-queue worker daemon.

A :class:`Worker` drains a ``repro-lb serve`` coordinator's queue through
its :class:`~repro.runner.backends.http.HttpBackend` client: it claims one
task at a time, executes the point through the same
``execute_point``/``to_dict`` path as :class:`~repro.runner.runner.ParallelRunner`
(so results are bit-identical no matter which driver ran them), hands the
result to the coordinator and so marks the task done.

While a task runs, a daemon thread refreshes the lease heartbeat every
``lease_seconds / 4`` and then reports the timeline windows the run closed
since its last report (``report_windows``), so the coordinator shows a long
point's windows before the point finishes.  If the worker dies, its lease
goes stale and another worker reclaims the task (immediately when the dead
worker lived on the coordinator's host, after the lease timeout otherwise).
A task that raises consumes one unit of its retry budget and is released
for another attempt; once the budget is exhausted the queue reports it as
failed.

Interruption (SIGTERM via the CLI handler, or Ctrl-C) releases the current
lease without consuming a retry, so a killed worker's task is re-run -- not
lost, and not double-counted -- by whoever claims it next.

Transport errors are :class:`urllib.error.URLError`, an :class:`OSError`:
the heartbeat thread rides them out, so a running point survives a short
coordinator restart.  The heartbeat thread talks over its own connection
and closes it when it exits.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.metrics.timeline import TimelineWindow, live_windows
from repro.runner.backends.base import TaskRecord
from repro.runner.backends.http import HttpBackend
from repro.runner.runner import PointExecutionError, execute_point_checked

__all__ = ["Worker", "WorkerStats"]


@dataclass
class WorkerStats:
    """What one :meth:`Worker.run` call did."""

    executed: int = 0  # points simulated by this worker
    satisfied: int = 0  # tasks completed straight from the result store
    failed: int = 0  # attempts that raised (retry budget permitting)

    @property
    def claimed(self) -> int:
        return self.executed + self.satisfied + self.failed


class _Heartbeat(threading.Thread):
    """Refreshes one task's lease and reports its closed windows until stopped."""

    def __init__(self, queue: HttpBackend, task_id: str, worker_id: str, interval: float):
        super().__init__(name=f"heartbeat-{task_id[:8]}", daemon=True)
        self._queue = queue
        self._task_id = task_id
        self._worker_id = worker_id
        self._interval = interval
        self.windows: List[TimelineWindow] = []  # the run's collector appends here
        # Not named ``_stop``: that would shadow threading.Thread's internal
        # ``_stop()`` method and break ``join``.
        self._halt = threading.Event()

    def run(self) -> None:
        reported = 0
        try:
            while not self._halt.wait(self._interval):
                try:
                    if not self._queue.heartbeat(self._task_id, self._worker_id):
                        return  # lease lost (reclaimed): completion stays safe
                    closed = self.windows[reported:]
                    if closed:
                        self._queue.report_windows(
                            self._task_id, self._worker_id, reported, closed
                        )
                        reported += len(closed)
                except OSError:
                    pass  # coordinator unreachable: try again next interval
        finally:
            self._queue.close()  # this thread's connection

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self._interval + 1.0)


class Worker:
    """Claims and executes queue tasks until the queue drains."""

    def __init__(
        self,
        queue: HttpBackend,
        worker_id: Optional[str] = None,
        poll_interval: float = 0.5,
    ):
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval}")
        self.queue = queue
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_interval = poll_interval
        self.heartbeat_interval = max(0.1, queue.lease_seconds / 4.0)

    def run(self, max_tasks: Optional[int] = None) -> WorkerStats:
        """Drain the queue; returns after ``max_tasks`` claims at the latest.

        Without ``max_tasks`` the worker runs until every task is done or
        failed -- including tasks currently leased to other workers, which
        it waits on (and reclaims if their leases go stale).
        """
        if max_tasks is not None and max_tasks < 1:
            raise ValueError(f"max_tasks must be >= 1, got {max_tasks}")
        stats = WorkerStats()
        while max_tasks is None or stats.claimed < max_tasks:
            claimed = self.queue.claim_next(self.worker_id)
            if claimed is None:
                if self.queue.status().unfinished == 0:
                    break  # every task is done or failed
                time.sleep(self.poll_interval)
                continue
            self._run_claimed(claimed, stats)
        return stats

    def _run_claimed(self, task: TaskRecord, stats: WorkerStats) -> None:
        task_id = task.task_id
        cached = self.queue.load_result(task.point)
        if cached is not None:
            # Result already in the store (an interrupted worker got this
            # far, or a previous dispatch shared the point): just mark done.
            self.queue.complete(task_id, task.point, None, self.worker_id)
            stats.satisfied += 1
            return
        heartbeat = _Heartbeat(self.queue, task_id, self.worker_id, self.heartbeat_interval)
        heartbeat.start()
        token = live_windows.set(heartbeat.windows)
        try:
            data = execute_point_checked(task.point)
        except PointExecutionError as exc:
            heartbeat.stop()
            self.queue.record_failure(task_id, self.worker_id, str(exc))
            stats.failed += 1
            return
        except BaseException:
            # Interrupted (SIGTERM/SystemExit/KeyboardInterrupt): hand the
            # task back without consuming a retry.
            heartbeat.stop()
            self.queue.release(task_id, self.worker_id)
            raise
        finally:
            live_windows.reset(token)
        heartbeat.stop()
        self.queue.complete(task_id, task.point, data, self.worker_id)
        stats.executed += 1
