"""The ``repro-lb serve`` coordinator: an HTTP face on the in-memory queue.

A single long-lived process (stdlib ``http.server``, threaded) holds a
:class:`~repro.runner.backends.memory.MemoryBackend` -- task records,
leases, retry ledgers and the result store all in process memory -- and
exposes the full :class:`~repro.runner.backends.base.QueueBackend` surface
over JSON endpoints, so workers on any machine drain sweeps through
:class:`~repro.runner.backends.http.HttpBackend` without a shared mount.

Beyond the queue protocol the coordinator adds the service features:

* **Sweep submission** -- ``POST /sweeps`` accepts either expanded point
  payloads (``{"points": [...]}``, rebuilt via
  :func:`~repro.runner.spec.point_from_payload`) or a registered scenario
  by name (``{"scenario": "figure5", "kwargs": {...}}``), expanded
  server-side through the scenario registry.
* **Timeline sharding** -- long ``timeline`` points are split into
  prefix-run window-range subtasks
  (:func:`~repro.runner.spec.shard_timeline_point`); the per-sweep shard
  map lets the coordinator stitch finished prefixes back in expansion
  order, streaming a long point's windows while it is still running.  The
  final shard *is* the original point, so the stitched result is
  byte-identical to an unsharded run by construction.
* **Prometheus metrics** -- ``GET /metrics`` renders task states, worker
  liveness (from claim/heartbeat traffic) and per-window
  throughput/response-time/availability gauges in text exposition format,
  updated the moment each result (or shard prefix) lands.

Endpoints (JSON unless noted)::

    GET  /health               liveness probe
    GET  /config               lease/retry/shard settings of this queue
    GET  /tasks                every task id
    GET  /tasks/<id>           durable task record
    GET  /tasks/<id>/state     done/attempts/last_error/lease of one task
    GET  /results/<id>         stored result payload
    GET  /timelines            stitched window prefixes per sharded point
    GET  /metrics              Prometheus text format (0.0.4)
    POST /sweeps               submit points or a registered scenario
    POST /claim                claim-next on behalf of a worker
    POST /try_claim            targeted claim (conformance/diagnostics)
    POST /heartbeat            refresh a held lease
    POST /release              drop a lease
    POST /complete             store a result + completion marker
    POST /fail                 charge a failed attempt
    POST /status               queue status (optionally for a task subset)
    POST /poll                 terminal subset of the given task ids
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.metrics.prometheus import MetricFamily, render_families
from repro.runner.backends.base import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    TaskRecord,
)
from repro.runner.backends.memory import MemoryBackend
from repro.runner.spec import PointSpec, point_from_payload, shard_timeline_point

__all__ = ["Coordinator", "DEFAULT_PORT"]

#: Default port of ``repro-lb serve``.
DEFAULT_PORT = 8723

#: A worker is considered up while its last claim/heartbeat/completion is
#: younger than this many lease periods.
_LIVENESS_LEASES = 2.0


def _record_payload(record: TaskRecord) -> Dict[str, object]:
    return {
        "task_id": record.task_id,
        "point": asdict(record.point),
        "max_attempts": record.max_attempts,
        "enqueued_at": record.enqueued_at,
    }


class Coordinator:
    """In-memory queue + sweep registry + metrics, served over HTTP."""

    def __init__(
        self,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        shard_windows: int = 0,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if shard_windows < 0:
            raise ValueError(f"shard_windows must be >= 0, got {shard_windows}")
        self.backend = MemoryBackend(lease_seconds=lease_seconds)
        self.max_attempts = int(max_attempts)
        self.shard_windows = int(shard_windows)
        self._lock = self.backend.lock
        self._workers: Dict[str, Dict[str, object]] = {}
        self._sweeps: List[Dict[str, object]] = []
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

        Timeline points longer than ``shard_windows`` windows additionally
        enqueue their prefix-run shards; the summary and the returned
        ``task_ids`` describe the *original* points (what a dispatching
        client waits on), ``shards`` maps each sharded point to its subtask
        ids in expansion order.
        """
        points = self._points_from_submission(payload)
        if not points:
            raise ValueError("sweep submission contains no points")
        max_attempts = int(payload.get("max_attempts") or self.max_attempts)
        shard_windows = payload.get("shard_windows")
        shard_windows = self.shard_windows if shard_windows is None else int(shard_windows)
        prefixes: List[PointSpec] = []
        shards: Dict[str, List[str]] = {}
        original_ids: List[str] = []
        for point in points:
            task_id = self.backend.task_id(point)
            original_ids.append(task_id)
            parts = shard_timeline_point(point, shard_windows)
            if len(parts) > 1:
                shards[task_id] = [self.backend.task_id(part) for part in parts]
                prefixes.extend(parts[:-1])
        with self._lock:
            summary = self.backend.enqueue(points, max_attempts=max_attempts)
            if prefixes:
                self.backend.enqueue(prefixes, max_attempts=max_attempts)
            self._sweeps.append(
                {
                    "id": len(self._sweeps) + 1,
                    "task_ids": original_ids,
                    "shards": shards,
                    "submitted_at": time.time(),
                }
            )
            self._counters["sweeps_submitted"] += 1
        return {
            "summary": {
                "enqueued": summary.enqueued,
                "already_queued": summary.already_queued,
                "already_done": summary.already_done,
                "total": summary.total,
            },
            "task_ids": original_ids,
            "shards": shards,
        }

    @staticmethod
    def _points_from_submission(payload: Dict[str, object]) -> List[PointSpec]:
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
            replicates = int(payload.get("replicates") or 1)
            if replicates > 1:
                spec = spec.with_replicates(replicates)
            return list(expand(spec))
        raise ValueError("sweep submission needs 'points' or 'scenario'")

    # -- results + streaming metrics -----------------------------------------------
    def record_completion(
        self,
        task_id: str,
        point_payload: Optional[Dict[str, object]],
        result_payload: Optional[Dict[str, object]],
        worker: str,
    ) -> None:
        """Store a finished task's result and fold it into the gauges."""
        with self._lock:
            if result_payload is not None:
                self.backend.complete_payload(task_id, result_payload, worker)
            else:
                self.backend.mark_done(
                    task_id, worker, attempts=self.backend.attempts(task_id)
                )
                self.backend.release(task_id, worker)
            self._counters["results_received"] += 1
            self._observe_timeline(point_payload, result_payload)

    def _observe_timeline(
        self,
        point_payload: Optional[Dict[str, object]],
        result_payload: Optional[Dict[str, object]],
    ) -> None:
        timeline = (result_payload or {}).get("timeline")
        if not timeline or not point_payload:
            return
        key = (
            str(point_payload.get("figure", "")),
            str(point_payload.get("series", "")),
            float(point_payload.get("x", 0.0) or 0.0),
            int(point_payload.get("replicate", 0) or 0),
        )
        gauges = self._window_gauges.setdefault(key, {})
        for index, window in enumerate(timeline.get("windows") or []):
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

    def stitched_windows(self, task_id: str) -> Optional[List[Dict[str, object]]]:
        """The longest finished window prefix of a sharded timeline point.

        Walks the point's shards in expansion order (increasing horizon)
        and extends the stitched list with each finished shard's windows
        beyond what earlier shards already covered -- the prefix property
        guarantees the overlap is identical, so this is a pure
        concatenation in expansion order.
        """
        with self._lock:
            for sweep in self._sweeps:
                shard_ids = sweep["shards"].get(task_id)  # type: ignore[union-attr]
                if not shard_ids:
                    continue
                stitched: List[Dict[str, object]] = []
                for shard_id in shard_ids:
                    payload = self.backend.result_payload(shard_id)
                    timeline = (payload or {}).get("timeline")
                    if not timeline:
                        continue
                    windows = timeline.get("windows") or []
                    if len(windows) > len(stitched):
                        stitched.extend(windows[len(stitched):])
                return stitched
        return None

    def timelines_view(self) -> List[Dict[str, object]]:
        with self._lock:
            view = []
            for sweep in self._sweeps:
                for task_id in sweep["shards"]:  # type: ignore[union-attr]
                    record = self.backend.load_task(task_id)
                    windows = self.stitched_windows(task_id) or []
                    view.append(
                        {
                            "task_id": task_id,
                            "figure": record.point.figure if record else None,
                            "series": record.point.series if record else None,
                            "x": record.point.x if record else None,
                            "done": self.backend.is_done(task_id),
                            "shards": sweep["shards"][task_id],  # type: ignore[index]
                            "windows": windows,
                        }
                    )
            return view

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
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def serve_forever(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        """Blocking serve loop for the CLI (Ctrl-C / SIGTERM to stop)."""
        server = _make_server(self, host, port)
        self._server = server
        bound_host, bound_port = server.server_address[:2]
        print(f"repro-lb coordinator serving on http://{bound_host}:{bound_port}", flush=True)
        print(
            f"  lease={self.backend.lease_seconds:g}s retries={self.max_attempts} "
            f"shard_windows={self.shard_windows or 'off'}",
            flush=True,
        )
        try:
            server.serve_forever()
        finally:
            server.server_close()
            self._server = None


def _make_server(coordinator: Coordinator, host: str, port: int) -> ThreadingHTTPServer:
    handler = type("CoordinatorHandler", (_Handler,), {"coordinator": coordinator})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs to coordinator/backend operations."""

    coordinator: Coordinator  # bound via subclassing in _make_server
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        pass  # per-request logging would swamp worker polling

    # -- plumbing ------------------------------------------------------------------
    def _send(self, code: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, payload: object, code: int = 200) -> None:
        self._send(code, json.dumps(payload).encode("utf-8"))

    def _error(self, code: int, message: str) -> None:
        self._json({"error": message}, code=code)

    def _body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
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
                        "shard_windows": self.coordinator.shard_windows,
                        "started_at": self.coordinator._started_at,
                    }
                )
            elif path == "/tasks":
                self._json({"task_ids": backend.task_ids()})
            elif path == "/metrics":
                body = self.coordinator.render_metrics().encode("utf-8")
                self._send(200, body, content_type="text/plain; version=0.0.4; charset=utf-8")
            elif path == "/timelines":
                self._json({"timelines": self.coordinator.timelines_view()})
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
                payload = backend.result_payload(path[len("/results/"):])
                if payload is None:
                    self._error(404, "no result stored")
                else:
                    self._json({"task_id": path[len("/results/"):], "result": payload})
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
                claimed = backend.claim_next(
                    worker,
                    host=body.get("host"),
                    pid=body.get("pid"),
                )
                self._json(
                    {"task": _record_payload(claimed.record) if claimed else None}
                )
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
                task_ids = body.get("task_ids")
                status = backend.status(None if task_ids is None else list(task_ids))
                self._json(status.to_dict())
            elif path == "/poll":
                task_ids = [str(task_id) for task_id in body.get("task_ids") or []]
                self._json({"finished": sorted(backend.poll_finished(task_ids))})
            else:
                self._error(404, f"unknown endpoint {path}")
        except (KeyError, TypeError, ValueError) as exc:
            self._error(400, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # pragma: no cover - defensive 500
            self._error(500, f"{type(exc).__name__}: {exc}")
