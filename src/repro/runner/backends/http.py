"""HTTP :class:`~repro.runner.backends.base.QueueBackend`: a coordinator client.

Workers and dispatching clients on any machine talk to one ``repro-lb
serve`` coordinator (see :mod:`repro.service.coordinator`) over plain JSON
HTTP -- no shared mount required.  The client implements the protocol
primitives as single round trips and overrides the scan-shaped operations
(``claim_next``, ``status``, ``poll_finished``) with their server-side
endpoints, so a claim is one request instead of one per task.

Transport notes:

* everything uses :mod:`urllib.request`; transport failures surface as
  :class:`urllib.error.URLError`, which subclasses :class:`OSError` --
  exactly what the worker's heartbeat thread already tolerates, so a
  worker rides out a coordinator restart the same way it rides out a
  flaky mount;
* ``lease_seconds`` is fetched from ``GET /config`` at construction, so
  every participant of one queue agrees on the lease without repeating it
  on the command line (and a bad URL fails fast, before a worker loop
  starts);
* results travel as their ``to_dict()`` payloads -- the same JSON
  representation the on-disk cache stores -- so a result drained through
  HTTP is field-identical (and, exported, byte-identical) to a local run.
"""

from __future__ import annotations

import json
import os
import random
import socket
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence, Set

from repro.runner.backends.base import (
    DEFAULT_MAX_ATTEMPTS,
    ClaimedTask,
    EnqueueSummary,
    QueueBackend,
    QueueStatus,
    TaskRecord,
)
from repro.runner.cache import point_key
from repro.runner.spec import PointSpec, point_from_payload
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


def _retryable(exc: BaseException) -> bool:
    """Whether a transport failure is worth retrying.

    Retry covers a restarting or briefly overloaded coordinator: connection
    resets and refusals (``URLError``/``OSError``), plus the proxy-shaped
    502/503 responses.  Any other HTTP status is the server *answering* --
    a 4xx means the request itself is wrong and retrying cannot help.
    """
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code in (502, 503)
    return isinstance(exc, OSError)  # URLError subclasses OSError


class _RemoteResults:
    """Result-store adapter over ``GET /results`` / ``POST /complete``-free puts.

    Quacks like :class:`~repro.runner.cache.ResultCache` (``get``/``put``/
    ``key``/``hits``/``misses``/``root``) so the distributed runner and the
    CLI cache-stats line work unchanged over HTTP.
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

    def get(self, point: PointSpec) -> Optional[SimulationResult]:
        payload = self._backend._get(f"/results/{self.key(point)}")
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return SimulationResult.from_dict(payload["result"])

    def put(self, point: PointSpec, result: SimulationResult) -> str:
        # A direct put (outside the claim protocol) completes the task: the
        # coordinator marks stored-result tasks done exactly like the
        # filesystem backend's enqueue-time preseeding.
        self._backend.complete(self.key(point), point, result, worker="put")
        return self.key(point)


class HttpBackend(QueueBackend):
    """Queue backend speaking to a ``repro-lb serve`` coordinator."""

    def __init__(
        self,
        url: str,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ):
        self.base_url = url.rstrip("/")
        if not self.base_url.startswith(("http://", "https://")):
            raise ValueError(f"coordinator URL must be http(s)://..., got {url!r}")
        self.request_timeout = float(request_timeout)
        self._results = _RemoteResults(self)
        # Fail fast on a bad URL and agree on the lease with the server.
        config = self._call("GET", "/config")
        self.lease_seconds = float(config["lease_seconds"])
        self.server_max_attempts = int(config.get("max_attempts", DEFAULT_MAX_ATTEMPTS))

    @property
    def results(self) -> _RemoteResults:
        return self._results

    def describe(self) -> str:
        return self.base_url

    # -- transport -----------------------------------------------------------------
    def _call(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Optional[dict]:
        """One JSON round trip; 404 reads as ``None``, other errors raise.

        Transient failures (connection reset/refused, HTTP 502/503) are
        retried up to :data:`RETRY_ATTEMPTS` times with jittered backoff;
        other 4xx/5xx statuses stay fatal on the first response.
        """
        request = urllib.request.Request(
            self.base_url + path,
            data=None if payload is None else json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method=method,
        )
        for attempt in range(RETRY_ATTEMPTS):
            try:
                with urllib.request.urlopen(
                    request, timeout=self.request_timeout
                ) as response:
                    body = response.read()
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    return None
                if _retryable(exc) and attempt + 1 < RETRY_ATTEMPTS:
                    self._backoff(attempt)
                    continue
                detail = ""
                try:
                    detail = exc.read().decode("utf-8", "replace")
                except OSError:
                    pass
                raise urllib.error.URLError(
                    f"coordinator {self.base_url}{path} returned {exc.code}: {detail}"
                ) from exc
            except OSError:
                # URLError (connection refused/reset, DNS) subclasses OSError.
                if attempt + 1 < RETRY_ATTEMPTS:
                    self._backoff(attempt)
                    continue
                raise
            return json.loads(body.decode("utf-8")) if body else None
        raise AssertionError("unreachable: retry loop exits by return or raise")

    @staticmethod
    def _backoff(attempt: int) -> None:
        base = _RETRY_BASE_SECONDS * (8**attempt)
        time.sleep(base * (0.5 + random.random()))

    def _get(self, path: str) -> Optional[dict]:
        return self._call("GET", path)

    # -- protocol primitives -------------------------------------------------------
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
        payload = self._get(f"/tasks/{task_id}")
        if payload is None:
            return None
        try:
            point = point_from_payload(payload["point"])
        except (KeyError, TypeError, ValueError):
            return None
        return TaskRecord(
            task_id=str(payload.get("task_id", task_id)),
            point=point,
            max_attempts=int(payload.get("max_attempts", DEFAULT_MAX_ATTEMPTS)),
            enqueued_at=float(payload.get("enqueued_at", 0.0)),
        )

    def _state(self, task_id: str) -> Dict[str, object]:
        return self._get(f"/tasks/{task_id}/state") or {}

    def is_done(self, task_id: str) -> bool:
        return bool(self._state(task_id).get("done"))

    def attempts(self, task_id: str) -> int:
        return int(self._state(task_id).get("attempts", 0) or 0)

    def last_error(self, task_id: str) -> Optional[str]:
        error = self._state(task_id).get("last_error")
        return None if error is None else str(error)

    def lease_state(self, task_id: str, now: Optional[float] = None) -> Optional[str]:
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
        finished: Optional[set] = None,
        host: Optional[str] = None,
        pid: Optional[int] = None,
    ) -> Optional[ClaimedTask]:
        # One round trip: the coordinator runs the claim scan server-side
        # (the ``finished`` memo is a local-scan optimisation; the server
        # skips terminal tasks itself).
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
        if payload is None:
            return None
        return ClaimedTask(
            record=TaskRecord(
                task_id=str(payload["task_id"]),
                point=point_from_payload(payload["point"]),
                max_attempts=int(payload.get("max_attempts", DEFAULT_MAX_ATTEMPTS)),
                enqueued_at=float(payload.get("enqueued_at", 0.0)),
            )
        )

    def heartbeat(self, task_id: str, worker: str) -> bool:
        response = self._call(
            "POST", "/heartbeat", {"task_id": task_id, "worker": worker}
        )
        return bool((response or {}).get("ok"))

    def release(self, task_id: str, worker: Optional[str] = None) -> None:
        self._call("POST", "/release", {"task_id": task_id, "worker": worker})

    def mark_done(self, task_id: str, worker: str, attempts: int) -> None:
        self._call(
            "POST",
            "/complete",
            {"task_id": task_id, "point": None, "result": None, "worker": worker},
        )

    def complete(
        self,
        task_id: str,
        point: PointSpec,
        result: Optional[SimulationResult],
        worker: str,
    ) -> None:
        from dataclasses import asdict

        self._call(
            "POST",
            "/complete",
            {
                "task_id": task_id,
                "point": asdict(point),
                "result": None if result is None else result.to_dict(),
                "worker": worker,
            },
        )

    def record_failure(self, task_id: str, worker: str, error: str) -> int:
        response = self._call(
            "POST", "/fail", {"task_id": task_id, "worker": worker, "error": error}
        )
        return int((response or {}).get("attempts", 0) or 0)

    def load_result(self, point: PointSpec) -> Optional[SimulationResult]:
        return self._results.get(point)

    # -- scan-shaped overrides -----------------------------------------------------
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
