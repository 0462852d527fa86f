"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table/figure of the paper through the
declarative scenario engine (:mod:`repro.runner`): the figure's points fan
out over ``REPRO_BENCH_WORKERS`` worker processes (default: one per CPU
core), so the suite scales with the machine.  The simulated workload sizes
are kept modest so the whole suite completes in minutes; set
``REPRO_BENCH_JOINS`` (measured join completions per point) and
``REPRO_BENCH_TIME_LIMIT`` (simulated-seconds cap per point) to increase
fidelity.  The reproduced tables are printed and written to
``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.base import default_measured_joins, default_time_limit
from repro.runner import ParallelRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_report(name: str, text: str) -> None:
    """Persist a reproduced figure/table and echo it to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def bench_joins(default: int) -> int:
    """Measured joins per point for benchmarks (env-overridable)."""
    return default_measured_joins(default)


def bench_time_limit(default: float) -> float:
    return default_time_limit(default)


def bench_workers(default: int | None = None) -> int:
    """Worker processes per figure run (``REPRO_BENCH_WORKERS``-overridable).

    Defaults to one worker per CPU core so the independent points of a sweep
    run concurrently; benchmarks stay deterministic because every point is
    fully described by its spec (results are bit-identical at any worker
    count).
    """
    fallback = default if default is not None else (os.cpu_count() or 1)
    try:
        value = int(os.environ.get("REPRO_BENCH_WORKERS", fallback))
    except ValueError:
        value = fallback
    if value == 0:  # same contract as --workers 0 / ParallelRunner(workers=0)
        value = os.cpu_count() or 1
    return max(1, value)


def bench_runner() -> ParallelRunner:
    """The runner every figure benchmark uses: :func:`bench_workers`
    processes and no result cache, so each run simulates every point."""
    return ParallelRunner(workers=bench_workers())


@pytest.fixture
def report_writer():
    return write_report
