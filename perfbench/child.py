"""One benchmark repetition, run in a fresh process by ``run.py``.

The repetition boots a ``repro-lb serve`` coordinator on a free port,
submits the workload's sweep, drains it with one in-process HTTP
:class:`~repro.runner.worker.Worker` (the write path: enqueue, claim,
heartbeat, complete), then re-runs the same sweep against the warm
coordinator with fresh :class:`~repro.runner.distributed.DistributedRunner`
clients up to the rendered tables (the read path: poll, ``is_done``,
``load_result``, fold).  The coordinator is always terminated, also when
the repetition fails.

It prints one JSON line: host timings, peak RSS of this process and of the
coordinator, per-task digests of the simulated outputs and, with
``--trace 1``, the per-layer span totals.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/child.py --workload mixed_oltp --seed 42 --trace 0 \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
import types
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: Warm re-runs per repetition; ``refold_s`` is the fastest of them.  A
#: re-run takes 5-100 ms, shorter than the second-long phases in which a
#: shared host runs slow, so the runs are spaced out and the best one
#: taken (the ``timeit`` convention) instead of a median that a single slow
#: phase can cover entirely.
REFOLDS = 21
#: Pause between warm re-runs (not timed).
REFOLD_GAP_S = 0.05
#: Seconds the coordinator may take to print its URL and answer /health.
BOOT_TIMEOUT = 60.0


class Coordinator:
    """A ``repro-lb serve`` subprocess on an ephemeral port."""

    def __init__(self, env: Dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0"],
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.url: Optional[str] = None

    def wait_ready(self) -> str:
        """Read the bound URL from the banner, then poll ``/health``."""
        deadline = time.monotonic() + BOOT_TIMEOUT
        while self.url is None:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError(
                    f"coordinator exited or printed no URL (exit {self.proc.poll()})"
                )
            if "serving on " in line:
                self.url = line.rsplit("serving on ", 1)[1].strip()
        while True:
            try:
                with urllib.request.urlopen(self.url + "/health", timeout=1.0) as response:
                    if json.loads(response.read()).get("ok"):
                        return self.url
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"coordinator at {self.url} never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """VmHWM (peak resident set) of the coordinator process."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class _CountingTime(types.ModuleType):
    """Stand-in for a module's ``time`` that counts ``sleep`` calls."""

    def __init__(self):
        super().__init__("time")
        self.sleeps = 0

    def sleep(self, seconds: float) -> None:
        self.sleeps += 1
        time.sleep(seconds)

    def __getattr__(self, name: str):
        return getattr(time, name)


class Probe:
    """Cheap hooks active in every run: first event, per-task records, sleeps."""

    def __init__(self):
        self.first_event: Optional[float] = None
        self.env = None
        self.system = None
        #: One record per executed task, in execution order: its point, a
        #: digest of the result the worker computed, model counts and time.
        self.tasks: List[Dict[str, object]] = []
        self.worker_sleeps = _CountingTime()
        self.wait_sleeps = _CountingTime()

    def install(self) -> "Probe":
        import repro.runner.backends.base as base
        import repro.runner.worker as worker
        from repro.sim.core import Environment
        from repro.simulation.driver import SimulationDriver

        probe = self
        run = Environment.run

        def env_run(env, until=None):
            if probe.first_event is None:
                probe.first_event = time.monotonic()
            probe.env = env
            return run(env, until)

        Environment.run = env_run
        init = SimulationDriver.__init__

        def driver_init(driver, *args, **kwargs):
            init(driver, *args, **kwargs)
            probe.system = driver.system

        SimulationDriver.__init__ = driver_init
        execute = worker.execute_point_checked

        def execute_point_checked(point):
            start = time.monotonic()
            data = execute(point)
            task = {
                "point": point,
                "result_sha": _sha(data),
                "events_dispatched": probe.env.events_dispatched,
                "events_coalesced": probe.env.events_coalesced,
                **_model_counts(probe.system),
            }
            probe.env = probe.system = None  # keep no simulated state alive
            # The finished simulation is garbage now.  Collect it inside the
            # execute window, so that the automatic full collections it would
            # trigger cannot land in the next task's queue traffic.  One
            # collection frees only part of it; a second frees the rest, and
            # a third finds nothing.
            gc.collect()
            gc.collect()
            task["execute_s"] = time.monotonic() - start
            probe.tasks.append(task)
            return data

        worker.execute_point_checked = execute_point_checked
        worker.time = self.worker_sleeps
        base.time = self.wait_sleeps
        return self


def _sha(value) -> str:
    """sha256 of a result's canonical JSON, wall-clock fields included."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def _render(spec, experiment) -> str:
    """The tables ``repro-lb experiment`` prints for this sweep."""
    aggregated = experiment.aggregate() if experiment.has_replicates else None
    rendered = aggregated if aggregated is not None else experiment
    parts = [rendered.table()]
    parts.extend(extra(rendered) for extra in spec.extra_tables)
    return "\n\n".join(parts)


def _model_counts(system) -> Dict[str, int]:
    """Model activity read from a simulated system after its task ended."""
    faults = system.faults
    return {
        "cache_hits": sum(pe.disks.cache.hits for pe in system.pes),
        "cache_misses": sum(pe.disks.cache.misses for pe in system.pes),
        "faults.injected": faults.injected if faults is not None else 0,
        "faults.kills": faults.kills if faults is not None else 0,
        "faults.resubmits": faults.resubmits if faults is not None else 0,
    }


def _task_totals(tasks: List[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer counts summed over a repetition's tasks."""
    def total(name: str) -> int:
        return sum(task[name] for task in tasks)

    accesses = total("cache_hits") + total("cache_misses")
    return {
        "hardware.disk.cache_hit_ratio": total("cache_hits") / accesses if accesses else 0.0,
        "faults.injected": total("faults.injected"),
        "faults.kills": total("faults.kills"),
        "faults.resubmits": total("faults.resubmits"),
        "sim.events_dispatched": total("events_dispatched"),
        "sim.events_coalesced": total("events_coalesced"),
    }


def _median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_repetition(workload: str, seed: int, trace: bool, spawned_at: float) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    coordinator = Coordinator(env)  # boots while this process imports
    try:
        from tracer import Tracer
        from workloads import build_spec, task_digest

        tracer = Tracer().install() if trace else None
        probe = Probe().install()

        from repro.runner.backends.http import HttpBackend
        from repro.runner.cache import point_key
        from repro.runner.distributed import DistributedRunner
        from repro.runner.worker import Worker

        if tracer is not None:
            tracer.open_root()
        spec = build_spec(workload, seed)
        points = spec.points()
        url = coordinator.wait_ready()
        backend = HttpBackend(url)
        backend.enqueue(points)

        claim_next = backend.claim_next
        claims: List[float] = []

        def timed_claim_next(*args, **kwargs):
            start = time.monotonic()
            claimed = claim_next(*args, **kwargs)
            claims.append(time.monotonic() - start)
            return claimed

        backend.claim_next = timed_claim_next
        task_walls: List[float] = []

        class TimedWorker(Worker):
            def _run_claimed(self, task, stats):
                start = time.monotonic()
                super()._run_claimed(task, stats)
                task_walls.append(claims[-1] + time.monotonic() - start)

        worker = TimedWorker(backend, worker_id=f"perfbench-{os.getpid()}")
        stats = worker.run()
        drain_end = time.monotonic()
        drain_requests = tracer.counts["http.requests"] if tracer is not None else 0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        refolds: List[float] = []
        experiment = None
        gc.collect()
        for _ in range(REFOLDS):
            start = time.monotonic()
            experiment = DistributedRunner(url, timeout=60.0).run(spec)
            table = _render(spec, experiment)
            refolds.append(time.monotonic() - start)
            time.sleep(REFOLD_GAP_S)
        if tracer is not None:
            tracer.close_root()
        coordinator_rss_mb = coordinator.peak_rss_mb()
    finally:
        coordinator.stop()

    # -- correctness: digests, transport integrity, no retries or sleeps ------------
    for wall, task in zip(task_walls, probe.tasks):
        task["overhead_ms"] = (wall - task["execute_s"]) * 1e3
    by_key = {point_key(task["point"]): task for task in probe.tasks}
    digests: List[str] = []
    failed: List[int] = []
    for index, (point, folded) in enumerate(zip(points, experiment.points)):
        task = by_key.get(point_key(point))
        if task is None:
            digests.append("missing")
            failed.append(index)
            continue
        result = folded.result.to_dict()
        digests.append(
            task_digest(result, task["events_dispatched"], task["events_coalesced"])
        )
        if _sha(result) != task["result_sha"]:
            failed.append(index)  # the coordinator returned something else
    if stats.failed or stats.satisfied or len(probe.tasks) != len(points) or not table:
        failed = list(range(len(points)))
    record: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "tasks": len(points),
        "digests": digests,
        "failed": sorted(set(failed)),
        "idle_sleeps": probe.worker_sleeps.sleeps,
        "wait_sleeps": probe.wait_sleeps.sleeps,
        "setup_s": probe.first_event - spawned_at,
        "wall_s": drain_end - probe.first_event,
        "peak_rss_mb": peak_rss_mb,
        # In expansion order, so repetitions can be compared task by task.
        "task_overheads_ms": [by_key[point_key(point)]["overhead_ms"] for point in points],
        "refold_s": min(refolds),
        "coordinator_rss_mb": coordinator_rss_mb,
    }
    if tracer is not None:
        layers = dict(tracer.self_time)
        counts = dict(tracer.counts)
        counts.update(_task_totals(probe.tasks))
        acquires = counts.get("engine.lock.acquires", 0)
        counts["engine.lock.wait_ratio"] = (
            counts.get("engine.lock.waits", 0) / acquires if acquires else 0.0
        )
        counts["worker.idle_sleeps"] = probe.worker_sleeps.sleeps
        counts["http.requests_per_task"] = drain_requests / len(points)
        for name, values in tracer.samples.items():
            counts[name] = _median_or_zero(values)
        record["trace"] = {"self_s": layers, "counts": counts}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin this process and its coordinator to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})  # inherited by the coordinator
    record = run_repetition(args.workload, args.seed, bool(args.trace), args.spawned_at)
    print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
