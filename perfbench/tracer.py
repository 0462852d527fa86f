"""Per-layer span tracer, installed from outside the simulator.

The tracer wraps public functions of each layer of ``repro`` (kernel,
hardware servers, engine, execution, scheduling, workload, metrics, faults,
allocation, runner and HTTP client) at run time.  Nothing under ``src/``
changes: :meth:`Tracer.install` swaps class attributes and module globals
for timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.

A span is open while a wrapped call runs.  A generator (a simulated
process or a ``yield from`` helper) is timed per resume: each ``send`` or
``throw`` into it is one span, so the time a process spends blocked on
simulated events is never charged.  A layer's self time is the sum of its
spans minus the time covered by spans opened inside them; the root span
(:meth:`Tracer.open_root`) collects what no wrapped call covers, so the
self times of all layers add up to the root's duration.

Only spans inside the root are recorded; a generator finalised by the
garbage collector after the root closed cannot add time to any layer.
Only the thread that installed the tracer records spans.  The worker's
heartbeat thread still goes through the HTTP wrappers; it is counted, not
timed, so it cannot corrupt the span stack.

Tracing is pure: wrappers forward arguments, return values, exceptions,
``throw`` and ``close`` unchanged and never touch simulated state.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

__all__ = ["Tracer", "SPANS", "ROOT"]

#: Layer name of the root span: time inside it that no wrapped call covers.
ROOT = "untraced"

#: (layer, target, counter).  ``target`` is ``module:attr`` for a module
#: function or ``module:Class.attr`` for a method; ``counter`` (or None)
#: is incremented once per call.
SPANS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    # sim (core, resources)
    ("sim", "repro.sim.core:Environment.run", None),
    ("sim", "repro.sim.resources:Resource.request", "sim.resource_requests"),
    ("sim", "repro.sim.resources:Resource.release", None),
    # hardware
    ("hardware.cpu", "repro.hardware.cpu:CpuServer.consume", "hardware.cpu.calls"),
    ("hardware.disk.random", "repro.hardware.disk:DiskArray.read_random", "hardware.disk.ios"),
    ("hardware.disk.random", "repro.hardware.disk:DiskArray.write_random", "hardware.disk.ios"),
    ("hardware.disk.seq", "repro.hardware.disk:DiskArray.read_sequential", "hardware.disk.ios"),
    ("hardware.disk.seq", "repro.hardware.disk:DiskArray.write_sequential", "hardware.disk.ios"),
    ("hardware.disk.snapshot", "repro.hardware.disk:DiskArray.snapshot",
     "hardware.disk.snapshot_calls"),
    ("hardware.disk.snapshot", "repro.hardware.disk:DiskArray.utilization", None),
    ("hardware.disk.snapshot", "repro.hardware.disk:DiskArray.utilization_since", None),
    ("hardware.network", "repro.hardware.network:Network.transfer",
     "hardware.network.transfers"),
    ("hardware.network", "repro.hardware.network:Network.transfer_chain",
     "hardware.network.transfers"),
    # engine
    ("engine.lock", "repro.engine.lock:LockManager.acquire", "engine.lock.acquires"),
    ("engine.lock", "repro.engine.lock:LockManager.release_all", None),
    ("engine.lock", "repro.engine.lock:LockManager.abort_waiter", None),
    ("engine.lock", "repro.engine.lock:LockManager.purge_txn", None),
    ("engine.buffer", "repro.engine.buffer:BufferManager.reserve", "engine.buffer.calls"),
    ("engine.buffer", "repro.engine.buffer:BufferManager.release", "engine.buffer.calls"),
    ("engine.buffer", "repro.engine.buffer:BufferManager.grow", "engine.buffer.calls"),
    ("engine.buffer", "repro.engine.buffer:BufferManager.shrink", "engine.buffer.calls"),
    ("engine.buffer", "repro.engine.buffer:BufferManager.ensure_oltp_footprint",
     "engine.buffer.calls"),
    ("engine.buffer", "repro.engine.buffer:BufferManager.release_oltp_footprint",
     "engine.buffer.calls"),
    ("engine.buffer", "repro.engine.buffer:BufferManager.purge_owner", "engine.buffer.calls"),
    ("engine.transaction", "repro.engine.transaction:TransactionManager.admit",
     "engine.transaction.admits"),
    ("engine.transaction", "repro.engine.transaction:TransactionManager.finish", None),
    ("engine.twopc", "repro.engine.twopc:run_commit", "engine.twopc.commits"),
    ("engine.deadlock", "repro.engine.deadlock:DeadlockDetector.detect_and_resolve",
     "engine.deadlock.sweeps"),
    # execution
    ("execution.oltp", "repro.simulation.system:ParallelSystem._run_oltp", None),
    ("execution.oltp", "repro.execution.oltp:execute_oltp_transaction",
     "execution.oltp.txns"),
    ("execution.join", "repro.simulation.system:ParallelSystem._run_join", None),
    ("execution.join", "repro.execution.parallel_join:execute_join_query",
     "execution.join.queries"),
    ("execution.join", "repro.execution.pphj:PPHJExecutor.acquire_memory", None),
    ("execution.join", "repro.execution.pphj:PPHJExecutor.build_phase", None),
    ("execution.join", "repro.execution.pphj:PPHJExecutor.probe_phase", None),
    ("execution.join", "repro.execution.operators:scan_fragment", None),
    # scheduling
    ("scheduling.control_node", "repro.scheduling.control_node:ControlNode.collect_reports",
     "scheduling.control_node.reports"),
    ("scheduling.control_node", "repro.scheduling.control_node:ControlNode.nodes_by_cpu", None),
    ("scheduling.control_node", "repro.scheduling.control_node:ControlNode.avail_memory", None),
    ("scheduling.strategy", "repro.scheduling.strategy:IsolatedStrategy.plan_join",
     "scheduling.plans"),
    ("scheduling.strategy", "repro.scheduling.integrated:MinIOStrategy.plan_join",
     "scheduling.plans"),
    ("scheduling.strategy", "repro.scheduling.integrated:MinIOSuOptStrategy.plan_join",
     "scheduling.plans"),
    ("scheduling.strategy", "repro.scheduling.integrated:OptIOCpuStrategy.plan_join",
     "scheduling.plans"),
    # workload
    ("workload", "repro.workload.generator:WorkloadGenerator._arrivals", None),
    ("workload", "repro.simulation.system:ParallelSystem.submit", "workload.arrivals"),
    # metrics observers
    ("metrics.timeline", "repro.metrics.timeline:TimelineCollector._close_window",
     "metrics.timeline.windows"),
    ("metrics.collector", "repro.metrics.collector:MetricsCollector.record_join", None),
    ("metrics.collector", "repro.metrics.collector:MetricsCollector.record_oltp", None),
    ("metrics.collector", "repro.metrics.collector:MetricsCollector.snapshot", None),
    ("metrics.collector", "repro.metrics.collector:MetricsCollector.start_measurement", None),
    # faults
    ("faults", "repro.faults.injector:FaultRuntime._apply", None),
    ("faults", "repro.faults.injector:FaultRuntime.on_submit", None),
    ("faults", "repro.faults.injector:FaultRuntime.track", None),
    ("faults", "repro.faults.injector:FaultRuntime.note_plan", None),
    ("faults", "repro.faults.injector:FaultRuntime.eligible_processors", None),
    ("faults", "repro.faults.injector:FaultRuntime.window_stats", None),
    ("faults", "repro.faults.injector:FaultRuntime.data_availability", None),
    ("faults", "repro.faults.injector:FaultRuntime._kill_record", None),
    ("faults", "repro.faults.injector:FaultRuntime._resubmit", None),
    # database.allocation
    ("database", "repro.database.allocation:failover_scan_sites", "database.failover_calls"),
    # simulation, runner
    ("simulation.build", "repro.simulation.system:ParallelSystem.__init__", None),
    ("simulation.to_dict", "repro.simulation.results:SimulationResult.to_dict", None),
    ("runner.expand", "repro.runner.spec:expand", None),
    ("runner.point_key", "repro.runner.cache:point_key", None),
    ("runner.from_dict", "repro.simulation.results:SimulationResult.from_dict", None),
)

#: Modules that import a traced function by name; loaded before patching
#: so their copies of the reference are found and replaced too.
_PRELOAD = (
    "repro.experiments",
    "repro.runner",
    "repro.runner.backends.http",
    "repro.runner.distributed",
    "repro.runner.worker",
    "repro.simulation.driver",
)

#: HTTP client paths grouped into the timed request kinds.
_HTTP_KINDS = (("/claim", "claim"), ("/complete", "complete"), ("/results/", "load_result"),
               ("/poll", "poll"))


def _resolve(target: str):
    """(owner, attribute name, raw attribute) for a ``module:path`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    """Span stack, per-layer self times and counters for one process."""

    def __init__(self):
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Open spans: [layer, start, time covered by child spans].
        self._stack: List[list] = []
        self._thread = threading.get_ident()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------
    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, covered = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_time[layer] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def open_root(self) -> None:
        self.enter(ROOT)

    def close_root(self) -> float:
        """Close the root span; returns its duration."""
        layer, start, _ = self._stack[-1]
        if layer != ROOT or len(self._stack) != 1:
            raise RuntimeError(f"unbalanced spans at root close: {self._stack!r}")
        before = self.self_time[ROOT]
        covered = self._stack[-1][2]
        self.exit()
        return self.self_time[ROOT] - before + covered

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrappers ------------------------------------------------------------------
    def _traced_generator(self, layer: str, generator):
        """Forward a generator, timing each resume as one ``layer`` span."""
        stack = self._stack
        clock = time.perf_counter
        self_time = self.self_time
        send = generator.send
        value = None
        error: Optional[BaseException] = None
        while True:
            stack.append([layer, clock(), 0.0])
            try:
                if error is None:
                    event = send(value)
                else:
                    self.counts["trace.throws"] += 1
                    event = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                _, start, covered = stack.pop()
                if stack:  # spans outside the root (finalizers) are dropped
                    duration = clock() - start
                    self_time[layer] += duration - covered
                    stack[-1][2] += duration
            error = None
            try:
                value = yield event
            except GeneratorExit:
                self.counts["trace.closes"] += 1
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                error = exc

    def _wrap(self, layer: str, fn, counter: Optional[str]):
        stack = self._stack
        clock = time.perf_counter
        self_time = self.self_time
        counts = self.counts
        traced_generator = self._traced_generator
        generator_type = types.GeneratorType

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            stack.append([layer, clock(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                _, start, covered = stack.pop()
                if stack:  # spans outside the root (finalizers) are dropped
                    duration = clock() - start
                    self_time[layer] += duration - covered
                    stack[-1][2] += duration
            if type(result) is generator_type:
                return traced_generator(layer, result)
            return result

        return wrapper

    def _wrap_http_call(self, fn):
        """``HttpBackend._call``: count every request, time main-thread ones."""
        tracer = self
        wrapped = self._wrap("http", fn, None)

        @functools.wraps(fn)
        def wrapper(backend, method, path, payload=None):
            tracer.count("http.requests")
            if threading.get_ident() != tracer._thread:
                return fn(backend, method, path, payload)
            start = time.perf_counter()
            try:
                return wrapped(backend, method, path, payload)
            finally:
                for prefix, kind in _HTTP_KINDS:
                    if path.startswith(prefix):
                        tracer.samples[f"http.{kind}_ms"].append(
                            (time.perf_counter() - start) * 1e3
                        )
                        break

        return wrapper

    # -- install / uninstall -----------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                           else getattr(owner, name)))
        setattr(owner, name, value)

    def _patch(self, owner, name: str, raw, replacement) -> None:
        """Install ``replacement`` for ``raw`` on its owner and every importer."""
        if isinstance(raw, classmethod):
            self._set(owner, name, classmethod(replacement))
            return
        self._set(owner, name, replacement)
        if isinstance(owner, types.ModuleType):
            # ``from module import fn`` copies the reference: patch the copies.
            for module in list(sys.modules.values()):
                if (
                    module is not owner
                    and getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is raw
                ):
                    self._set(module, name, replacement)

    def install(self) -> "Tracer":
        """Wrap every target in :data:`SPANS` plus the special-cased hooks."""
        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        deadlock = sys.modules["repro.engine.deadlock"]
        http = sys.modules["repro.runner.backends.http"]
        special = {
            "repro.sim.resources:Resource.request": self._queued_counter(
                "sim.resource_queued"),
            "repro.engine.lock:LockManager.acquire": self._queued_counter("engine.lock.waits"),
        }
        for layer, target, counter in SPANS:
            owner, name, raw = _resolve(target)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(layer, fn, counter)
            if target in special:
                wrapped = special[target](wrapped)
            self._patch(owner, name, raw, wrapped)

        detect = deadlock.DeadlockDetector.detect_and_resolve
        tracer = self

        @functools.wraps(detect)
        def detect_and_resolve(detector):
            victims = detect(detector)
            tracer.counts["engine.deadlock.aborts"] += len(victims)
            return victims

        self._set(deadlock.DeadlockDetector, "detect_and_resolve", detect_and_resolve)
        self._set(http.HttpBackend, "_call", self._wrap_http_call(http.HttpBackend._call))
        backoff = http.HttpBackend.__dict__["_backoff"].__func__

        def _backoff(attempt):
            tracer.count("http.retries")
            return backoff(attempt)

        self._set(http.HttpBackend, "_backoff", staticmethod(_backoff))
        heartbeat = http.HttpBackend.heartbeat

        @functools.wraps(heartbeat)
        def heartbeat_counted(backend, task_id, worker):
            tracer.count("worker.heartbeats")
            return heartbeat(backend, task_id, worker)

        self._set(http.HttpBackend, "heartbeat", heartbeat_counted)
        return self

    def _queued_counter(self, name: str):
        counts = self.counts

        def decorate(wrapped):
            @functools.wraps(wrapped)
            def wrapper(*args, **kwargs):
                event = wrapped(*args, **kwargs)
                if not event.triggered:
                    counts[name] += 1
                return event

            return wrapper

        return decorate

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
