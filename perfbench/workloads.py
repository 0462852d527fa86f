"""Workload definitions and simulated-output digests.

Each workload is a sweep (a :class:`~repro.runner.spec.ScenarioSpec`) whose
base seed is the benchmark's ``--seed``; the seed reaches the simulator
only through the spec.  Every workload is submitted to a ``repro-lb serve``
coordinator and drained by one in-process HTTP worker (see ``child.py``).

Digests pin the simulated outputs: for each task, the canonical JSON of
``SimulationResult.to_dict()`` (timeline windows included, wall-clock
fields dropped) plus the kernel's ``events_dispatched`` and
``events_coalesced``.  ``references.json`` holds the digests at the
default seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

__all__ = [
    "DEFAULT_SEED",
    "WORKLOADS",
    "REFERENCES_PATH",
    "build_spec",
    "task_digest",
    "sweep_digest",
    "load_references",
    "check_digests",
]

#: The paper's fixed seed; the only seed with pinned references.
DEFAULT_SEED = 42

REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"

#: Workload names; why each exists is in ``BENCHMARK.json`` and the README.
WORKLOADS = ("mixed_oltp", "failover_sweep")


def build_spec(workload: str, seed: int):
    """The sweep a workload submits, seeded with ``seed``."""
    import dataclasses

    import repro.experiments  # noqa: F401 - populate the scenario registry
    from repro.experiments import figure9, replication

    if workload == "mixed_oltp":
        # figure9b point 14's configuration over a fixed horizon.  The
        # figure stops after 40 measured joins, which takes 13 to 29
        # simulated seconds depending on the seed (and as much host time);
        # a fixed 16 s -- the seed-42 point's own horizon -- keeps the work
        # per seed nearly constant.  Warm-up is the point's 8 joins; there
        # is no join target.
        spec = dataclasses.replace(
            figure9.build_spec(
                oltp_placement="B", system_sizes=(40,), strategies=("OPT-IO-CPU",)
            ),
            warmup_joins=8,
            measured_joins=1_000_000,
            max_simulated_time=16.0,
        )
    elif workload == "failover_sweep":
        # 40 simulated s cover the crash at 15 s, the recovery at 30 s and
        # ten seconds of drain after it.
        spec = replication.build_spec(system_sizes=(8,), max_simulated_time=40.0)
        spec = spec.with_replicates(2)
        # Every task draws its own arrivals.  The scenario's first replicate
        # shares the base seed across all 24 points, so one seed's draws
        # would drive half the sweep and swing host time with them.
        spec = dataclasses.replace(spec, sweeps=tuple(
            dataclasses.replace(sweep, reseed_per_point=True) for sweep in spec.sweeps
        ))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    return dataclasses.replace(spec, seed=int(seed))


def _strip_wall_clock(value):
    """Drop every mapping key naming a wall-clock quantity, recursively."""
    if isinstance(value, Mapping):
        return {
            key: _strip_wall_clock(item)
            for key, item in value.items()
            if "wall" not in str(key).lower()
        }
    if isinstance(value, (list, tuple)):
        return [_strip_wall_clock(item) for item in value]
    return value


def task_digest(result: Mapping[str, object], events_dispatched: int,
                events_coalesced: int) -> str:
    """sha256 of one task's simulated outputs."""
    payload = {
        "result": _strip_wall_clock(result),
        "events_dispatched": int(events_dispatched),
        "events_coalesced": int(events_coalesced),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_digest(task_digests: Sequence[str]) -> str:
    """sha256 over the task digests in expansion order."""
    return hashlib.sha256("\n".join(task_digests).encode("utf-8")).hexdigest()


def load_references() -> Dict[str, Dict[str, object]]:
    if not REFERENCES_PATH.exists():
        return {}
    return json.loads(REFERENCES_PATH.read_text())


def check_digests(
    task_digests: Sequence[str], reference: Optional[Mapping[str, object]]
) -> List[int]:
    """Indices of tasks whose digest differs from ``reference``.

    ``reference`` is ``{"digest": ..., "tasks": [...]}``; ``None`` (a seed
    without a pinned reference) checks nothing.  A task-count mismatch
    flags every task.
    """
    if reference is None:
        return []
    expected = list(reference["tasks"])
    if len(expected) != len(task_digests):
        return list(range(len(task_digests)))
    return [
        index for index, (got, want) in enumerate(zip(task_digests, expected)) if got != want
    ]
