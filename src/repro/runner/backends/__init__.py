"""Pluggable work-distribution backends behind the ``QueueBackend`` protocol.

Three conforming implementations:

* :class:`~repro.runner.backends.filesystem.FilesystemBackend` -- durable
  queue in a (possibly shared) directory.
* :class:`~repro.runner.backends.memory.MemoryBackend` -- lock-protected
  in-process queue, held by the ``repro-lb serve`` coordinator.
* :class:`~repro.runner.backends.http.HttpBackend` -- client of a running
  coordinator; workers on any machine, no shared mount.

:func:`make_backend` resolves a user-facing target (queue directory or
coordinator URL) to the right implementation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.runner.backends.base import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    ClaimedTask,
    EnqueueSummary,
    QueueBackend,
    QueueStatus,
    TaskRecord,
)
from repro.runner.backends.filesystem import FilesystemBackend
from repro.runner.backends.http import HttpBackend
from repro.runner.backends.memory import MemoryBackend

__all__ = [
    "QueueBackend",
    "FilesystemBackend",
    "MemoryBackend",
    "HttpBackend",
    "TaskRecord",
    "ClaimedTask",
    "EnqueueSummary",
    "QueueStatus",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
    "make_backend",
]


def make_backend(
    target: Union[str, Path, QueueBackend],
    lease_seconds: Optional[float] = None,
) -> QueueBackend:
    """Resolve a queue target to a backend.

    An existing backend passes through untouched; an ``http(s)://`` URL
    becomes an :class:`HttpBackend` (whose lease comes from the coordinator,
    so ``lease_seconds`` is ignored); anything else is a queue directory.
    """
    if isinstance(target, QueueBackend):
        return target
    text = str(target)
    if text.startswith(("http://", "https://")):
        return HttpBackend(text)
    return FilesystemBackend(
        target,
        lease_seconds=DEFAULT_LEASE_SECONDS if lease_seconds is None else lease_seconds,
    )
