"""Repository benchmark: one workload, several fresh-process repetitions.

Usage::

    python3 perfbench/run.py --workload mixed_oltp --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --workload failover_sweep --trace 1
    python3 perfbench/run.py --workload mixed_oltp --write-references

Each repetition is a fresh ``child.py`` process (allocator and import state
never carry over); on a machine with two CPUs they run in pinned pairs
(:func:`measurement_cpus`).  Pairs start while the previous ones have left
room within ``--seconds``, and at least ``MIN_REPETITIONS`` repetitions
run.  See :func:`end_to_end_metrics` for how repetitions are folded.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``END_TO_END``); with ``--trace 1`` it carries the
per-layer metrics (``PER_LAYER``) of a traced run instead.  Lines before it
start with ``#`` and record the sweep digest and, for traced runs, the
traced ``wall_s`` (the tracing overhead is its ratio to an untraced run).

Correctness: every task's simulated outputs are digested.  At the default
seed the digests must equal ``references.json``; at any seed they must
agree across repetitions, the coordinator must hand back exactly what the
worker computed, no task may fail or be retried, and the measured drain
and re-runs may not sleep.  A task that breaks any of these counts as
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFERENCES_PATH,
    WORKLOADS,
    check_digests,
    load_references,
    sweep_digest,
)

#: (name, unit) of every end-to-end metric, reported by every workload.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("task_overhead_p50_ms", "ms"),
    ("task_overhead_p75_ms", "ms"),
    ("refold_s", "s"),
    ("coordinator_rss_mb", "MB"),
)

#: (name, unit, source) of every per-layer metric.  ``source`` is
#: ``self:<layer>`` for a tracer self time or ``count:<name>`` for a counter.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events_dispatched", "count", "count:sim.events_dispatched"),
    ("sim.events_coalesced", "count", "count:sim.events_coalesced"),
    ("sim.resource_requests", "count", "count:sim.resource_requests"),
    ("sim.resource_queued", "count", "count:sim.resource_queued"),
    ("sim.self_s", "s", "self:sim"),
    ("hardware.cpu.calls", "count", "count:hardware.cpu.calls"),
    ("hardware.cpu.self_s", "s", "self:hardware.cpu"),
    ("hardware.disk.ios", "count", "count:hardware.disk.ios"),
    ("hardware.disk.random_self_s", "s", "self:hardware.disk.random"),
    ("hardware.disk.seq_self_s", "s", "self:hardware.disk.seq"),
    ("hardware.disk.snapshot_calls", "count", "count:hardware.disk.snapshot_calls"),
    ("hardware.disk.snapshot_self_s", "s", "self:hardware.disk.snapshot"),
    ("hardware.disk.cache_hit_ratio", "ratio", "count:hardware.disk.cache_hit_ratio"),
    ("hardware.network.transfers", "count", "count:hardware.network.transfers"),
    ("hardware.network.self_s", "s", "self:hardware.network"),
    ("engine.lock.acquires", "count", "count:engine.lock.acquires"),
    ("engine.lock.waits", "count", "count:engine.lock.waits"),
    ("engine.lock.wait_ratio", "ratio", "count:engine.lock.wait_ratio"),
    ("engine.lock.self_s", "s", "self:engine.lock"),
    ("engine.buffer.calls", "count", "count:engine.buffer.calls"),
    ("engine.buffer.self_s", "s", "self:engine.buffer"),
    ("engine.transaction.admits", "count", "count:engine.transaction.admits"),
    ("engine.transaction.self_s", "s", "self:engine.transaction"),
    ("engine.twopc.commits", "count", "count:engine.twopc.commits"),
    ("engine.twopc.self_s", "s", "self:engine.twopc"),
    ("engine.deadlock.sweeps", "count", "count:engine.deadlock.sweeps"),
    ("engine.deadlock.aborts", "count", "count:engine.deadlock.aborts"),
    ("execution.oltp.txns", "count", "count:execution.oltp.txns"),
    ("execution.oltp.self_s", "s", "self:execution.oltp"),
    ("execution.join.queries", "count", "count:execution.join.queries"),
    ("execution.join.self_s", "s", "self:execution.join"),
    ("scheduling.control_node.reports", "count", "count:scheduling.control_node.reports"),
    ("scheduling.control_node.self_s", "s", "self:scheduling.control_node"),
    ("scheduling.plans", "count", "count:scheduling.plans"),
    ("scheduling.plan_self_s", "s", "self:scheduling.strategy"),
    ("workload.arrivals", "count", "count:workload.arrivals"),
    ("workload.self_s", "s", "self:workload"),
    ("metrics.timeline.windows", "count", "count:metrics.timeline.windows"),
    ("metrics.timeline.self_s", "s", "self:metrics.timeline"),
    ("metrics.collector.self_s", "s", "self:metrics.collector"),
    ("faults.injected", "count", "count:faults.injected"),
    ("faults.kills", "count", "count:faults.kills"),
    ("faults.resubmits", "count", "count:faults.resubmits"),
    ("faults.self_s", "s", "self:faults"),
    ("database.failover_calls", "count", "count:database.failover_calls"),
    ("database.self_s", "s", "self:database"),
    ("simulation.build_s", "s", "self:simulation.build"),
    ("simulation.to_dict_s", "s", "self:simulation.to_dict"),
    ("runner.expand_s", "s", "self:runner.expand"),
    ("runner.point_key_s", "s", "self:runner.point_key"),
    ("runner.from_dict_s", "s", "self:runner.from_dict"),
    ("http.requests", "count", "count:http.requests"),
    ("http.retries", "count", "count:http.retries"),
    ("http.requests_per_task", "req/task", "count:http.requests_per_task"),
    ("http.claim_ms", "ms", "count:http.claim_ms"),
    ("http.complete_ms", "ms", "count:http.complete_ms"),
    ("http.load_result_ms", "ms", "count:http.load_result_ms"),
    ("http.poll_ms", "ms", "count:http.poll_ms"),
    ("worker.heartbeats", "count", "count:worker.heartbeats"),
    ("worker.idle_sleeps", "count", "count:worker.idle_sleeps"),
)

#: Whole-run limit: the benchmark must end within 180 s.
RUN_LIMIT = 170.0
#: Repetitions per run at least, whatever ``--seconds`` says: host times
#: are the best of the repetitions.  Two pairs, so that ``failover_sweep``
#: (a pair takes 18-30 s) has as many samples on a slow host as on a fast
#: one: with the time budget alone, a slow host left room for one pair, and
#: the fewer samples made slow runs read slower still.
MIN_REPETITIONS = 4


def child_env() -> Dict[str, str]:
    """Environment of a repetition: repository sources, fixed hashing, and
    none of the ``REPRO_*`` knobs that change what the simulator does."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_children(workload: str, seed: int, trace: bool, timeout: float,
                 cpus: Sequence[Optional[int]] = (None,)) -> List[Dict[str, object]]:
    """Run one repetition per entry of ``cpus`` at the same time.

    A repetition given a CPU is pinned to it together with its coordinator.
    Each repetition gets its own process group, killed when the repetition
    ends or ``timeout`` passes, so no coordinator outlives its repetition.
    """
    deadline = time.monotonic() + max(1.0, timeout)
    procs = []
    try:
        for cpu in cpus:
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "1" if trace else "0",
                 "--spawned-at", repr(time.monotonic())]
                + (["--cpu", str(cpu)] if cpu is not None else []),
                cwd=str(ROOT),
                env=child_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            ))
        outputs = []
        for proc in procs:
            try:
                outputs.append(proc.communicate(timeout=max(0.0, deadline - time.monotonic())))
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"repetition of {workload} exceeded {timeout:.0f} s")
    finally:
        for proc in procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if proc.returncode is None:
                proc.communicate()
    records = []
    for proc, (stdout, stderr) in zip(procs, outputs):
        if proc.returncode != 0:
            raise RuntimeError(
                f"repetition of {workload} exited {proc.returncode}:\n{stderr[-4000:]}"
            )
        records.append(json.loads(stdout.strip().splitlines()[-1]))
    return records


def measurement_cpus() -> Tuple[Optional[int], ...]:
    """CPUs that run repetitions side by side: two when there are two.

    On the shared host this benchmark was written on, each virtual CPU has
    phases of up to ~45 % slowdown lasting tens of seconds, independently of
    the other CPU.  Two pinned repetitions at once cost no extra wall time,
    and the best of them (see :func:`end_to_end_metrics`) rarely lands in
    a slow phase.
    """
    available = sorted(os.sched_getaffinity(0))
    return tuple(available[:2]) if len(available) >= 2 else (None,)


def _percentiles(values: List[float]) -> Tuple[float, float]:
    """(p50, p75) of per-task overheads."""
    if len(values) == 1:
        return values[0], values[0]
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[1], quartiles[2]


def end_to_end_metrics(records: List[Dict[str, object]]) -> Dict[str, float]:
    """Host times are the best over the repetitions, sizes their median.

    The host this benchmark was written on runs up to ~45 % slower for
    seconds at a time; the fastest repetition (the convention
    ``benchmarks/perf/harness.py`` also follows) is far steadier than a
    median of two or three.  A task's overhead is likewise its best over the
    repetitions before the percentiles are taken across tasks.  ``setup_s``
    is the median of the repetitions' set-up times: over five seeds on that
    host it was steadier than their minimum (interquartile spread 0.14
    against 0.16 on ``mixed_oltp``, 0.30 against 0.35 on ``failover_sweep``).
    """
    best_per_task = [min(samples) for samples in zip(*(r["task_overheads_ms"] for r in records))]
    p50, p75 = _percentiles(best_per_task)
    return {
        "wall_s": min(record["wall_s"] for record in records),
        "setup_s": statistics.median(record["setup_s"] for record in records),
        "peak_rss_mb": statistics.median(record["peak_rss_mb"] for record in records),
        "task_overhead_p50_ms": p50,
        "task_overhead_p75_ms": p75,
        "refold_s": min(record["refold_s"] for record in records),
        "coordinator_rss_mb": statistics.median(r["coordinator_rss_mb"] for r in records),
    }


def _layer_value(record: Dict[str, object], source: str) -> float:
    kind, _, name = source.partition(":")
    return record["trace"]["self_s" if kind == "self" else "counts"].get(name, 0)


def per_layer_metrics(records: List[Dict[str, object]]) -> Dict[str, float]:
    return {
        name: statistics.median(_layer_value(record, source) for record in records)
        for name, _, source in PER_LAYER
    }


def failed_tasks(records: List[Dict[str, object]], reference) -> int:
    """Tasks that failed, were retried, slept, or produced unexpected outputs."""
    failed = 0
    first = records[0]["digests"]
    for record in records:
        bad = set(record["failed"])
        bad.update(check_digests(record["digests"], reference))
        bad.update(
            index for index, (got, want) in enumerate(zip(record["digests"], first))
            if got != want
        )
        if record["idle_sleeps"] or record["wait_sleeps"]:
            bad.update(range(record["tasks"]))
        failed += len(bad)
    return failed


def write_references(workload: str, seed: int) -> int:
    if seed != DEFAULT_SEED:
        print(f"references are pinned at seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2
    (record,) = run_children(workload, seed, trace=False, timeout=RUN_LIMIT)
    if record["failed"]:
        print(f"repetition failed tasks {record['failed']}", file=sys.stderr)
        return 1
    references = load_references()
    references[workload] = {
        "seed": seed,
        "digest": sweep_digest(record["digests"]),
        "tasks": record["digests"],
    }
    REFERENCES_PATH.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(f"# pinned {workload}: {references[workload]['digest']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measurement budget; repetitions start while they fit "
                             f"(at least {MIN_REPETITIONS} run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help=f"pin this workload's digests at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.write_references:
        return write_references(args.workload, args.seed)

    start = time.monotonic()
    cpus = measurement_cpus()
    records: List[Dict[str, object]] = []
    while True:
        began = time.monotonic()
        records.extend(run_children(args.workload, args.seed, bool(args.trace),
                                    timeout=RUN_LIMIT - (began - start), cpus=cpus))
        took = time.monotonic() - began
        if (len(records) >= MIN_REPETITIONS
                and time.monotonic() - start + took > args.seconds):
            break

    reference = (
        load_references().get(args.workload) if args.seed == DEFAULT_SEED else None
    )
    failed = failed_tasks(records, reference)
    digest = sweep_digest(records[0]["digests"])
    status = "unpinned seed" if reference is None else (
        "matches reference" if digest == reference["digest"] else "DIFFERS from reference")
    print(f"# {args.workload} seed={args.seed} repetitions={len(records)} "
          f"digest={digest} ({status})")
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = per_layer_metrics(records)
        traced_wall = min(record["wall_s"] for record in records)
        print(f"# traced wall_s={traced_wall:.4f} (compare with an untraced run's wall_s)")
    else:
        units = dict(END_TO_END)
        values = end_to_end_metrics(records)
    attempted = sum(record["tasks"] for record in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
