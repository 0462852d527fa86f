"""The ``repro-lb serve`` coordinator: an HTTP face on the one work queue.

A single long-lived process (stdlib ``http.server``, threaded) holds a
:class:`~repro.runner.backends.memory.MemoryBackend` -- task records,
leases, retry ledgers and the result store, all served from process
memory -- and exposes it over JSON endpoints, so workers on any machine
drain sweeps through :class:`~repro.runner.backends.http.HttpBackend`
without a shared mount.

With ``state_dir`` (``repro-lb serve --state-dir DIR``) the queue journals
every state change and stores every result under that directory, and a
restarted coordinator replays them: tasks, leases, failures and results
survive a restart (even ``kill -9``), while the window gauges, worker
liveness and counters below are soft state and start empty.

Beyond the queue protocol the coordinator adds the service features:

* **Sweep submission** -- ``POST /sweeps`` accepts either expanded point
  payloads (``{"points": [...]}``, rebuilt via
  :func:`~repro.runner.spec.point_from_payload`) or a registered scenario
  by name (``{"scenario": "figure5", "kwargs": {...}}``), expanded
  server-side through the scenario registry.
* **Live windows** -- while a timeline point runs, its worker reports the
  windows closed so far after each heartbeat (``POST /windows``), so the
  window gauges fill in before the point finishes.
* **Prometheus metrics** -- ``GET /metrics`` renders task states, worker
  liveness (from claim/heartbeat traffic) and per-window
  throughput/response-time/availability gauges in text exposition format,
  updated as windows are reported and when each result lands.

Endpoints (JSON unless noted)::

    GET  /health               liveness probe
    GET  /config               lease/retry settings of this queue
    GET  /tasks                every task id
    GET  /tasks/<id>           task record
    GET  /tasks/<id>/state     done/attempts/last_error/lease of one task
    GET  /results/<id>         stored result payload
    GET  /metrics              Prometheus text format (0.0.4)
    POST /sweeps               submit points or a registered scenario
    POST /claim                claim-next on behalf of a worker
    POST /try_claim            targeted claim (conformance/diagnostics)
    POST /heartbeat            refresh a held lease
    POST /windows              closed timeline windows of a running task
    POST /release              drop a lease
    POST /complete             store a result + completion marker
    POST /fail                 charge a failed attempt
    POST /status               queue status (optionally for a task subset)
    POST /poll                 terminal subset of the given task ids
    POST /results              every stored result of the given task ids

Connections are kept alive between requests (HTTP/1.1).  An error response
(4xx/5xx) closes its connection, so a request body the handler did not
read can never be parsed as the next request; :meth:`Coordinator.stop`
shuts every open connection, so a stopped coordinator answers nothing.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.metrics.prometheus import MetricFamily, render_families
from repro.runner.backends.base import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    TaskRecord,
)
from repro.runner.backends.memory import MemoryBackend
from repro.runner.cache import point_key
from repro.runner.spec import PointSpec, point_from_payload

__all__ = ["Coordinator", "DEFAULT_PORT"]

#: Default port of ``repro-lb serve``.
DEFAULT_PORT = 8723

#: A worker is considered up while its last claim/heartbeat/completion is
#: younger than this many lease periods.
_LIVENESS_LEASES = 2.0

#: The top-level fields of a ``POST /sweeps`` body.
_SUBMISSION_FIELDS = ("points", "scenario", "kwargs", "replicates", "max_attempts")


def _count_field(payload: Dict[str, object], name: str, default: int) -> int:
    """An integer >= 1 from a sweep submission; ``default`` when absent."""
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"sweep field {name!r} must be an integer >= 1, got {value!r}")
    return value


def _task_ids(body: Dict[str, object], optional: bool = False) -> Optional[List[str]]:
    """The ``task_ids`` list of a request body (``None`` when optional and absent)."""
    value = body.get("task_ids")
    if value is None and optional:
        return None
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ValueError(f"'task_ids' must be a list of task id strings, got {value!r}")
    return value


def _record_payload(record: TaskRecord) -> Dict[str, object]:
    return {
        "task_id": record.task_id,
        "point": asdict(record.point),
        "max_attempts": record.max_attempts,
        "enqueued_at": record.enqueued_at,
    }


class Coordinator:
    """The work queue + metrics, served over HTTP.

    ``state_dir`` makes the queue durable; a journal found there is replayed
    first, and an unreadable one raises :class:`ValueError` naming the line.
    """

    def __init__(
        self,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        state_dir: Optional[Union[str, "os.PathLike"]] = None,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.state_dir = state_dir
        self.backend = MemoryBackend(lease_seconds=lease_seconds, state_dir=state_dir)
        self.max_attempts = int(max_attempts)
        self._lock = self.backend.lock
        self._workers: Dict[str, Dict[str, object]] = {}
        #: (figure, series, x, replicate) -> window index -> gauge values.
        self._window_gauges: Dict[Tuple[str, str, float, int], Dict[int, Dict[str, float]]] = {}
        self._counters = {
            "sweeps_submitted": 0,
            "results_received": 0,
            "windows_streamed": 0,
        }
        self._started_at = time.time()
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- worker liveness -----------------------------------------------------------
    def touch_worker(
        self, worker: object, host: object = None, pid: object = None
    ) -> None:
        if not worker:
            return
        with self._lock:
            entry = self._workers.setdefault(str(worker), {})
            entry["last_seen"] = time.time()
            if host is not None:
                entry["host"] = str(host)
            if pid is not None:
                entry["pid"] = pid

    # -- sweep submission ----------------------------------------------------------
    def submit_sweep(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Enqueue a sweep: expanded points, or a registered scenario by name.

        Unknown top-level fields and a ``replicates``/``max_attempts`` that is
        not an integer >= 1 raise :class:`ValueError` naming the field.
        """
        unknown = sorted(set(payload) - set(_SUBMISSION_FIELDS))
        if unknown:
            raise ValueError(f"unknown sweep field(s): {', '.join(map(repr, unknown))}")
        max_attempts = _count_field(payload, "max_attempts", self.max_attempts)
        points = self._points_from_submission(payload, _count_field(payload, "replicates", 1))
        if not points:
            raise ValueError("sweep submission contains no points")
        task_ids = [point_key(point) for point in points]
        with self._lock:
            summary = self.backend.enqueue(points, max_attempts=max_attempts)
            self._counters["sweeps_submitted"] += 1
        return {
            "summary": {
                "enqueued": summary.enqueued,
                "already_queued": summary.already_queued,
                "already_done": summary.already_done,
                "total": summary.total,
            },
            "task_ids": task_ids,
        }

    @staticmethod
    def _points_from_submission(payload: Dict[str, object], replicates: int) -> List[PointSpec]:
        if "points" in payload:
            raw = payload["points"]
            if not isinstance(raw, list):
                raise ValueError("'points' must be a list of point payloads")
            return [point_from_payload(entry) for entry in raw]
        if "scenario" in payload:
            from repro.runner.registry import build_scenario
            from repro.runner.spec import expand

            kwargs = payload.get("kwargs") or {}
            if not isinstance(kwargs, dict):
                raise ValueError("'kwargs' must be an object")
            spec = build_scenario(str(payload["scenario"]), **kwargs)
            if replicates > 1:
                spec = spec.with_replicates(replicates)
            return list(expand(spec))
        raise ValueError("sweep submission needs 'points' or 'scenario'")

    # -- results + streaming metrics -----------------------------------------------
    def record_completion(
        self,
        task_id: str,
        point_payload: Optional[Dict[str, object]],
        result_payload: Dict[str, object],
        worker: str,
    ) -> None:
        """Store a finished task's result and fold it into the gauges."""
        if not isinstance(result_payload, dict):
            raise ValueError("'result' must be a result object")
        with self._lock:
            self.backend.complete(task_id, worker, result_payload, point_payload)
            self._counters["results_received"] += 1
            timeline = result_payload.get("timeline")
            if timeline and point_payload:
                self._fold_windows(point_payload, 0, timeline.get("windows") or [])

    def record_windows(self, task_id: str, first: object, windows: object) -> bool:
        """Fold a running task's windows ``first, first + 1, ...`` (False: unknown task)."""
        if isinstance(first, bool) or not isinstance(first, int) or first < 0:
            raise ValueError(f"'first' must be an integer >= 0, got {first!r}")
        if not isinstance(windows, list) or not all(isinstance(w, dict) for w in windows):
            raise ValueError("'windows' must be a list of window objects")
        with self._lock:
            record = self.backend.load_task(task_id)
            if record is None:
                return False
            self._fold_windows(asdict(record.point), first, windows)
            return True

    def _fold_windows(
        self, point: Dict[str, object], first: int, windows: List[Dict[str, object]]
    ) -> None:
        """Fold windows ``first, first + 1, ...`` of one point into its gauges."""
        key = (
            str(point.get("figure", "")),
            str(point.get("series", "")),
            float(point.get("x", 0.0) or 0.0),
            int(point.get("replicate", 0) or 0),
        )
        gauges = self._window_gauges.setdefault(key, {})
        for index, window in enumerate(windows, start=first):
            if index not in gauges:
                self._counters["windows_streamed"] += 1
            joins = float(window.get("joins_completed", 0) or 0)
            gauges[index] = {
                "start": float(window.get("start", 0.0)),
                "end": float(window.get("end", 0.0)),
                "throughput": float(window.get("join_throughput", 0.0)),
                # A window in which nothing completed has no mean response
                # time -- expose NaN, not a filler zero.
                "rt_mean_ms": (
                    float(window.get("join_rt_mean", 0.0)) * 1e3 if joins else float("nan")
                ),
                "rt_p95_ms": (
                    float(window.get("join_rt_p95", 0.0)) * 1e3 if joins else float("nan")
                ),
                "availability": float(window.get("availability", 1.0)),
            }

    # -- metrics -------------------------------------------------------------------
    def render_metrics(self) -> str:
        with self._lock:
            now = time.time()
            status = self.backend.status()
            families = []
            uptime = MetricFamily(
                "repro_coordinator_uptime_seconds",
                "gauge",
                "Seconds since the coordinator started.",
            )
            uptime.add({}, now - self._started_at)
            families.append(uptime)

            tasks = MetricFamily(
                "repro_queue_tasks",
                "gauge",
                "Tasks currently in each queue state.",
            )
            for state in ("pending", "running", "stale", "done", "failed"):
                tasks.add({"state": state}, getattr(status, state))
            families.append(tasks)

            total = MetricFamily(
                "repro_queue_tasks_total", "gauge", "Tasks known to the queue."
            )
            total.add({}, status.total)
            families.append(total)

            for name, help_text in (
                ("sweeps_submitted", "Sweep submissions accepted."),
                ("results_received", "Task completions received."),
                ("windows_streamed", "Distinct timeline windows first observed."),
            ):
                counter = MetricFamily(f"repro_{name}_total", "counter", help_text)
                counter.add({}, self._counters[name])
                families.append(counter)

            up = MetricFamily(
                "repro_worker_up",
                "gauge",
                "1 while the worker claimed/heartbeat within two lease periods.",
            )
            age = MetricFamily(
                "repro_worker_last_seen_seconds",
                "gauge",
                "Seconds since the worker was last heard from.",
            )
            horizon = _LIVENESS_LEASES * self.backend.lease_seconds
            for worker in sorted(self._workers):
                seen = float(self._workers[worker].get("last_seen", 0.0))
                up.add({"worker": worker}, 1.0 if now - seen <= horizon else 0.0)
                age.add({"worker": worker}, now - seen)
            families.extend([up, age])

            window_families = {
                "throughput": MetricFamily(
                    "repro_window_join_throughput",
                    "gauge",
                    "Join throughput (joins/s) of one finished timeline window.",
                ),
                "rt_mean_ms": MetricFamily(
                    "repro_window_join_rt_ms",
                    "gauge",
                    "Mean join response time (ms) of one finished timeline window.",
                ),
                "rt_p95_ms": MetricFamily(
                    "repro_window_join_rt_p95_ms",
                    "gauge",
                    "95th percentile join response time (ms) of one window.",
                ),
                "availability": MetricFamily(
                    "repro_window_availability",
                    "gauge",
                    "Fraction of the expected processor pool alive in the window.",
                ),
            }
            for (figure, series, x, replicate), gauges in sorted(self._window_gauges.items()):
                for index in sorted(gauges):
                    labels = {
                        "figure": figure,
                        "series": series,
                        "x": f"{x:g}",
                        "replicate": replicate,
                        "window": index,
                    }
                    values = gauges[index]
                    for field_name, family in window_families.items():
                        family.add(labels, values[field_name])
            families.extend(window_families.values())
            return render_families(families)

    # -- HTTP plumbing -------------------------------------------------------------
    def start(self, host: str = "127.0.0.1", port: int = 0) -> str:
        """Serve in a daemon thread; returns the bound base URL."""
        self._server = _make_server(self, host, port)
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-lb-serve", daemon=True
        )
        self._thread.start()
        return self.url

    @property
    def url(self) -> str:
        if self._server is None:
            raise RuntimeError("coordinator is not serving")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        """Stop serving: no open connection is answered after this returns."""
        if self._server is not None:
            self._server.shutdown()
            self._server.close_connections()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.backend.close()

    def serve_forever(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        """Blocking serve loop for the CLI (Ctrl-C / SIGTERM to stop)."""
        server = _make_server(self, host, port)
        self._server = server
        bound_host, bound_port = server.server_address[:2]
        print(f"repro-lb coordinator serving on http://{bound_host}:{bound_port}", flush=True)
        print(
            f"  lease={self.backend.lease_seconds:g}s retries={self.max_attempts} "
            f"state={self.state_dir or 'memory only'}",
            flush=True,
        )
        try:
            server.serve_forever()
        finally:
            server.server_close()
            self._server = None
            self.backend.close()


class _Server(ThreadingHTTPServer):
    """A thread per connection; remembers its open connections."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], handler: type):
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        # Registered in the accept loop, so once ``shutdown()`` has returned
        # every connection is known to ``close_connections``.
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut every open connection; its handler reads EOF and exits."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it meanwhile


def _make_server(coordinator: Coordinator, host: str, port: int) -> _Server:
    handler = type("CoordinatorHandler", (_Handler,), {"coordinator": coordinator})
    return _Server((host, port), handler)


def _results_body(backend: MemoryBackend, task_ids: Sequence[str]) -> bytes:
    """``{"results": {id: result, ...}}`` for every stored result, spliced
    from the stored JSON bytes without decoding them."""
    parts: List[bytes] = []
    for task_id in dict.fromkeys(task_ids):
        data = backend.result_json(task_id)
        if data is not None:
            parts += (b", " if parts else b"", json.dumps(task_id).encode("utf-8"), b": ", data)
    return b"".join([b'{"results": {', *parts, b"}}"])


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs to coordinator/backend operations."""

    coordinator: Coordinator  # bound via subclassing in _make_server
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm the
    # second waits for the client's delayed ACK (~40 ms per request).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        pass  # per-request logging would swamp worker polling

    # -- plumbing ------------------------------------------------------------------
    def _send(self, code: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if code >= 400:
            # The request may have left bytes unread (a body behind a bad
            # Content-Length): never parse them as the next request.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _json(self, payload: object, code: int = 200) -> None:
        self._send(code, json.dumps(payload).encode("utf-8"))

    def _error(self, code: int, message: str) -> None:
        self._json({"error": message}, code=code)

    def _body(self) -> Dict[str, object]:
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:  # checked before reading: -1 would read to EOF
            raise ValueError(f"Content-Length must be an integer >= 0, got {declared!r}")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- GET -----------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib handler name
        backend = self.coordinator.backend
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/health":
                self._json({"ok": True})
            elif path == "/config":
                self._json(
                    {
                        "lease_seconds": backend.lease_seconds,
                        "max_attempts": self.coordinator.max_attempts,
                        "started_at": self.coordinator._started_at,
                    }
                )
            elif path == "/tasks":
                self._json({"task_ids": backend.task_ids()})
            elif path == "/metrics":
                body = self.coordinator.render_metrics().encode("utf-8")
                self._send(200, body, content_type="text/plain; version=0.0.4; charset=utf-8")
            elif path.startswith("/tasks/") and path.endswith("/state"):
                task_id = path[len("/tasks/"):-len("/state")]
                self._json(
                    {
                        "task_id": task_id,
                        "done": backend.is_done(task_id),
                        "attempts": backend.attempts(task_id),
                        "last_error": backend.last_error(task_id),
                        "lease": backend.lease_state(task_id),
                    }
                )
            elif path.startswith("/tasks/"):
                record = backend.load_task(path[len("/tasks/"):])
                if record is None:
                    self._error(404, "no such task")
                else:
                    self._json(_record_payload(record))
            elif path.startswith("/results/"):
                task_id = path[len("/results/"):]
                data = backend.result_json(task_id)
                if data is None:
                    self._error(404, "no result stored")
                else:
                    key = json.dumps(task_id).encode("utf-8")
                    self._send(200, b'{"task_id": ' + key + b', "result": ' + data + b"}")
            else:
                self._error(404, f"unknown endpoint {path}")
        except Exception as exc:  # pragma: no cover - defensive 500
            self._error(500, f"{type(exc).__name__}: {exc}")

    # -- POST ----------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib handler name
        coordinator = self.coordinator
        backend = coordinator.backend
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            body = self._body()
            if path == "/sweeps":
                self._json(coordinator.submit_sweep(body))
            elif path == "/claim":
                worker = str(body["worker"])
                coordinator.touch_worker(worker, body.get("host"), body.get("pid"))
                record = backend.claim_next(worker, host=body.get("host"), pid=body.get("pid"))
                self._json({"task": _record_payload(record) if record else None})
            elif path == "/try_claim":
                worker = str(body["worker"])
                coordinator.touch_worker(worker, body.get("host"), body.get("pid"))
                claimed = backend.try_claim(
                    str(body["task_id"]),
                    worker,
                    host=body.get("host"),
                    pid=body.get("pid"),
                )
                self._json({"claimed": bool(claimed)})
            elif path == "/heartbeat":
                worker = str(body["worker"])
                coordinator.touch_worker(worker)
                ok = backend.heartbeat(str(body["task_id"]), worker)
                self._json({"ok": bool(ok)})
            elif path == "/windows":
                coordinator.touch_worker(str(body["worker"]))
                if coordinator.record_windows(str(body["task_id"]), body["first"], body["windows"]):
                    self._json({"ok": True})
                else:
                    self._error(404, "no such task")
            elif path == "/release":
                worker = body.get("worker")
                backend.release(
                    str(body["task_id"]), None if worker is None else str(worker)
                )
                self._json({"ok": True})
            elif path == "/complete":
                worker = str(body["worker"])
                coordinator.touch_worker(worker)
                coordinator.record_completion(
                    str(body["task_id"]),
                    body.get("point"),
                    body.get("result"),
                    worker,
                )
                self._json({"ok": True})
            elif path == "/fail":
                worker = str(body["worker"])
                coordinator.touch_worker(worker)
                attempts = backend.record_failure(
                    str(body["task_id"]), worker, str(body.get("error", ""))
                )
                self._json({"attempts": attempts})
            elif path == "/status":
                self._json(backend.status(_task_ids(body, optional=True)).to_dict())
            elif path == "/poll":
                self._json({"finished": sorted(backend.poll_finished(_task_ids(body)))})
            elif path == "/results":
                self._send(200, _results_body(backend, _task_ids(body)))
            else:
                self._error(404, f"unknown endpoint {path}")
        except (KeyError, TypeError, ValueError) as exc:
            self._error(400, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # pragma: no cover - defensive 500
            self._error(500, f"{type(exc).__name__}: {exc}")
