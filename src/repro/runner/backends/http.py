"""HTTP client of the ``repro-lb serve`` coordinator: the only way to a queue.

Workers and dispatching clients on any machine talk to one coordinator
(see :mod:`repro.service.coordinator`) over plain JSON HTTP -- no shared
mount required.  Every operation is one round trip; the scan-shaped ones
(``claim_next``, ``status``, ``poll_finished``) run on the coordinator, so
a claim is one request instead of one per task, and ``load_results`` reads
a whole sweep's results in one request.

Transport notes:

* every calling thread keeps one :mod:`http.client` connection alive
  between its requests (a worker's heartbeat thread has its own), so a
  request is one round trip on an open socket instead of a TCP handshake
  and a fresh coordinator thread; :meth:`HttpBackend.close` (or leaving a
  ``with HttpBackend(...)`` block) closes the calling thread's connection,
  and the next call opens a new one;
* transport failures surface as :class:`urllib.error.URLError`, which
  subclasses :class:`OSError` -- exactly what the worker's heartbeat thread
  already tolerates, so a running worker rides out a short coordinator
  restart; a kept-alive connection that a restarted coordinator dropped
  fails one attempt, and the retry opens a fresh one;
* ``lease_seconds`` is fetched from ``GET /config`` at construction, so
  every participant of one queue agrees on the lease without repeating it
  on the command line (and a bad URL fails fast, before a worker loop
  starts);
* results travel as their ``to_dict()`` payloads -- the same JSON
  representation the on-disk cache stores -- so a result drained through
  HTTP is field-identical (and, exported, byte-identical) to a local run.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import threading
import time
import urllib.error
import urllib.parse
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.runner.backends.base import (
    DEFAULT_MAX_ATTEMPTS,
    EnqueueSummary,
    QueueStatus,
    TaskRecord,
)
from repro.runner.cache import point_key
from repro.runner.spec import PointSpec, point_from_payload

if TYPE_CHECKING:
    from repro.metrics.timeline import TimelineWindow
    from repro.simulation.results import SimulationResult

__all__ = ["HttpBackend"]

#: Per-request timeout: generous enough for a coordinator busy expanding a
#: sweep, far below any lease, so a hung request never masks a dead server.
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Transient-failure retry budget: a claim/heartbeat/status round trip is
#: attempted this many times before the error surfaces.  Total added delay
#: stays under ~1 s (see ``_RETRY_BASE_SECONDS``), far below any lease.
RETRY_ATTEMPTS = 3

#: Backoff base for attempt ``i`` (0-indexed): ``0.1 * 8**i`` seconds with
#: +/-50% jitter -- roughly 0.1 s after the first failure, 0.8 s after the
#: second, so two workers that lost the same coordinator don't reconnect
#: in lockstep.
_RETRY_BASE_SECONDS = 0.1

#: Statuses worth retrying: a proxy in front of a restarting or briefly
#: overloaded coordinator.  Any other 4xx/5xx is the server *answering* --
#: a 4xx means the request itself is wrong and retrying cannot help.
_RETRY_STATUSES = (502, 503)

_HEADERS = {"Content-Type": "application/json"}


def _task_record(payload: Dict[str, object]) -> TaskRecord:
    return TaskRecord(
        task_id=str(payload["task_id"]),
        point=point_from_payload(payload["point"]),
        max_attempts=int(payload.get("max_attempts", DEFAULT_MAX_ATTEMPTS)),
        enqueued_at=float(payload.get("enqueued_at", 0.0)),
    )


class _RemoteResults:
    """Result-store adapter over ``POST /results`` and ``POST /complete``.

    Quacks like :class:`~repro.runner.cache.ResultCache` (``put``/``key``/
    ``hits``/``misses``/``root``) so the distributed runner and the CLI
    cache-stats line work unchanged over HTTP.
    """

    def __init__(self, backend: "HttpBackend"):
        self._backend = backend
        self.hits = 0
        self.misses = 0

    @property
    def root(self) -> str:
        return self._backend.base_url

    def key(self, point: PointSpec) -> str:
        return point_key(point)

    def get_many(self, points: Sequence[PointSpec]) -> List[Optional[SimulationResult]]:
        """Every stored result of ``points`` in one request; ``None`` where
        the store has none (one hit per result returned)."""
        from repro.simulation.results import SimulationResult

        task_ids = [self.key(point) for point in points]
        response = self._backend._call(
            "POST", "/results", {"task_ids": list(dict.fromkeys(task_ids))}
        )
        stored = (response or {}).get("results") or {}
        self.hits += len(stored)
        results = {task_id: SimulationResult.from_dict(data) for task_id, data in stored.items()}
        return [results.get(task_id) for task_id in task_ids]

    def put(self, point: PointSpec, result: SimulationResult) -> str:
        # A direct put (outside the claim protocol) completes the task; a
        # later enqueue of the point finds it done.
        self._backend.complete(self.key(point), point, result.to_dict(), worker="put")
        return self.key(point)


class HttpBackend:
    """Client of a ``repro-lb serve`` coordinator's queue.

    Safe to share between threads: each thread talks over its own
    connection, and each closes it (:meth:`close`, or a ``with`` block)
    when done.
    """

    def __init__(
        self,
        url: str,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ):
        self.base_url = url.rstrip("/")
        if not self.base_url.startswith(("http://", "https://")):
            raise ValueError(f"coordinator URL must be http(s)://..., got {url!r}")
        parts = urllib.parse.urlsplit(self.base_url)
        self._https = parts.scheme == "https"
        self._netloc = parts.netloc
        self._prefix = parts.path
        self.request_timeout = float(request_timeout)
        self._local = threading.local()  # .connection: the calling thread's
        self._results = _RemoteResults(self)
        # Fail fast on a bad URL and agree on the lease with the server.
        try:
            config = self._call("GET", "/config")
            self.lease_seconds = float(config["lease_seconds"])
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "HttpBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def results(self) -> _RemoteResults:
        return self._results

    def describe(self) -> str:
        return self.base_url

    def task_id(self, point: PointSpec) -> str:
        """A point's task id: its (host-independent) result-cache key."""
        return point_key(point)

    # -- transport -----------------------------------------------------------------
    def close(self) -> None:
        """Close the calling thread's connection (the next call opens a new one)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            self._local.connection = None
            connection.close()

    def _call(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Optional[dict]:
        """One JSON round trip; 404 reads as ``None``, other errors raise.

        Transient failures (connection reset/refused, HTTP 502/503) are
        retried up to :data:`RETRY_ATTEMPTS` times with jittered backoff;
        other 4xx/5xx statuses stay fatal on the first response.
        """
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        for attempt in range(RETRY_ATTEMPTS):
            last = attempt + 1 == RETRY_ATTEMPTS
            try:
                status, data = self._exchange(method, path, body)
            except OSError as exc:
                if last:
                    raise urllib.error.URLError(exc) from exc
                self._backoff(attempt)
                continue
            if status == 404:
                return None
            if status in _RETRY_STATUSES and not last:
                self._backoff(attempt)
                continue
            if status >= 400:
                raise urllib.error.URLError(
                    f"coordinator {self.base_url}{path} returned {status}: "
                    f"{data.decode('utf-8', 'replace')}"
                )
            return json.loads(data.decode("utf-8")) if data else None
        raise AssertionError("unreachable: retry loop exits by return or raise")

    def _exchange(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
        """Send one request on this thread's connection: (status, body)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            factory = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
            connection = factory(self._netloc, timeout=self.request_timeout)
            self._local.connection = connection
        try:
            connection.request(method, self._prefix + path, body=body, headers=_HEADERS)
            response = connection.getresponse()
            return response.status, response.read()
        except BaseException:
            # A half-used connection cannot carry the next request.
            self.close()
            raise

    @staticmethod
    def _backoff(attempt: int) -> None:
        base = _RETRY_BASE_SECONDS * (8**attempt)
        time.sleep(base * (0.5 + random.random()))

    def _get(self, path: str) -> Optional[dict]:
        return self._call("GET", path)

    # -- queue operations ----------------------------------------------------------
    def enqueue(
        self, points: Sequence[PointSpec], max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> EnqueueSummary:
        from dataclasses import asdict

        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        response = self._call(
            "POST",
            "/sweeps",
            {
                "points": [asdict(point) for point in points],
                "max_attempts": int(max_attempts),
            },
        )
        summary = (response or {}).get("summary") or {}
        return EnqueueSummary(
            enqueued=int(summary.get("enqueued", 0)),
            already_queued=int(summary.get("already_queued", 0)),
            already_done=int(summary.get("already_done", 0)),
        )

    def task_ids(self) -> List[str]:
        response = self._get("/tasks") or {}
        return [str(task_id) for task_id in response.get("task_ids", [])]

    def load_task(self, task_id: str) -> Optional[TaskRecord]:
        """The task's record, or ``None`` when the coordinator has none."""
        payload = self._get(f"/tasks/{task_id}")
        return None if payload is None else _task_record(payload)

    def _state(self, task_id: str) -> Dict[str, object]:
        return self._get(f"/tasks/{task_id}/state") or {}

    def is_done(self, task_id: str) -> bool:
        return bool(self._state(task_id).get("done"))

    def attempts(self, task_id: str) -> int:
        return int(self._state(task_id).get("attempts", 0) or 0)

    def last_error(self, task_id: str) -> Optional[str]:
        error = self._state(task_id).get("last_error")
        return None if error is None else str(error)

    def lease_state(self, task_id: str) -> Optional[str]:
        lease = self._state(task_id).get("lease")
        return None if lease is None else str(lease)

    def try_claim(
        self,
        task_id: str,
        worker: str,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> bool:
        response = self._call(
            "POST",
            "/try_claim",
            {
                "task_id": task_id,
                "worker": worker,
                "host": socket.gethostname() if host is None else host,
                "pid": os.getpid() if pid is None else pid,
            },
        )
        return bool((response or {}).get("claimed"))

    def claim_next(
        self,
        worker: str,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> Optional[TaskRecord]:
        """Claim the first runnable task (the coordinator runs the scan)."""
        response = self._call(
            "POST",
            "/claim",
            {
                "worker": worker,
                "host": socket.gethostname() if host is None else host,
                "pid": os.getpid() if pid is None else pid,
            },
        )
        payload = (response or {}).get("task")
        return None if payload is None else _task_record(payload)

    def heartbeat(self, task_id: str, worker: str) -> bool:
        response = self._call(
            "POST", "/heartbeat", {"task_id": task_id, "worker": worker}
        )
        return bool((response or {}).get("ok"))

    def report_windows(
        self, task_id: str, worker: str, first: int, windows: Sequence[TimelineWindow]
    ) -> None:
        from dataclasses import asdict

        report = {"task_id": task_id, "worker": worker, "first": first}
        self._call("POST", "/windows", dict(report, windows=[asdict(w) for w in windows]))

    def release(self, task_id: str, worker: Optional[str] = None) -> None:
        self._call("POST", "/release", {"task_id": task_id, "worker": worker})

    def complete(
        self,
        task_id: str,
        point: PointSpec,
        result: Dict[str, object],
        worker: str,
    ) -> None:
        """Store ``result`` (a ``to_dict()`` payload) and mark the task done."""
        from dataclasses import asdict

        self._call(
            "POST",
            "/complete",
            {"task_id": task_id, "point": asdict(point), "result": result, "worker": worker},
        )

    def record_failure(self, task_id: str, worker: str, error: str) -> int:
        response = self._call(
            "POST", "/fail", {"task_id": task_id, "worker": worker, "error": error}
        )
        return int((response or {}).get("attempts", 0) or 0)

    def load_results(self, points: Sequence[PointSpec]) -> List[Optional[SimulationResult]]:
        """The stored results of ``points`` (``None`` where none is), in one request."""
        return self._results.get_many(points)

    # -- scans run by the coordinator ----------------------------------------------
    def status(self, task_ids=None) -> QueueStatus:
        response = self._call(
            "POST",
            "/status",
            {"task_ids": None if task_ids is None else sorted(task_ids)},
        )
        return QueueStatus.from_dict(response or {})

    def poll_finished(self, task_ids) -> Set[str]:
        response = self._call("POST", "/poll", {"task_ids": sorted(task_ids)})
        return {str(task_id) for task_id in (response or {}).get("finished", [])}
