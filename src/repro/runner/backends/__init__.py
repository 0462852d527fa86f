"""The work queue: one store in the coordinator, one client everywhere else.

* :class:`~repro.runner.backends.memory.MemoryBackend` -- the queue the
  ``repro-lb serve`` coordinator holds: an in-memory index, journaled to a
  state directory when the coordinator is started with ``--state-dir``.
* :class:`~repro.runner.backends.http.HttpBackend` -- the client workers,
  dispatchers and the distributed runner use to reach it.
"""

from repro.runner.backends.base import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    EnqueueSummary,
    QueueStatus,
    TaskRecord,
    wait_for_tasks,
)
from repro.runner.backends.http import HttpBackend
from repro.runner.backends.memory import MemoryBackend

__all__ = [
    "MemoryBackend",
    "HttpBackend",
    "TaskRecord",
    "EnqueueSummary",
    "QueueStatus",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "wait_for_tasks",
]
