"""Declarative scenario engine and parallel experiment runner.

The experiment layer is split into three pieces:

* :mod:`repro.runner.spec` -- :class:`ScenarioSpec`/:class:`Sweep`
  dataclasses that declare a figure (or an ad-hoc sweep) as *data*: axes
  (strategies, system sizes, arrival rates, selectivities, OLTP placement),
  per-point configuration overrides and run limits.
* :mod:`repro.runner.registry` -- a named registry mapping scenario names
  (``figure5``, ``figure9a``, ...) to spec builders, populated by the
  modules under :mod:`repro.experiments`.
* :mod:`repro.runner.runner` -- :class:`ParallelRunner`, which expands a
  spec into independent points and fans them out over a
  ``ProcessPoolExecutor`` (serial fallback for ``workers=1``), with an
  optional on-disk :class:`~repro.runner.cache.ResultCache`.
* :mod:`repro.runner.backends` / :mod:`repro.runner.worker` /
  :mod:`repro.runner.distributed` -- the multi-host layer: the
  coordinator's queue (in memory, journaled with ``--state-dir``) and its
  HTTP client, the :class:`~repro.runner.worker.Worker` daemon that claims
  and executes tasks through that client, and the
  :class:`~repro.runner.distributed.DistributedRunner` that enqueues a
  spec on the coordinator and folds the results in expansion order.

:class:`~repro.runner.config.RunnerConfig` is the single construction path
from user-facing options (CLI flags, test fixtures, figure wrappers) to the
serial / process-pool / distributed runner they describe.
"""

from repro.runner.backends import HttpBackend, MemoryBackend
from repro.runner.cache import ResultCache, default_cache_dir, point_key
from repro.runner.config import RunnerConfig
from repro.runner.distributed import DistributedRunner
from repro.runner.registry import (
    available_scenarios,
    build_scenario,
    get_scenario,
    register_scenario,
)
from repro.runner.runner import (
    ParallelRunner,
    PointExecutionError,
    execute_point,
    execute_point_checked,
)
from repro.runner.spec import (
    PointSpec,
    ScenarioSpec,
    Sweep,
    derive_seed,
    expand,
    point_from_payload,
)
from repro.runner.worker import Worker, WorkerStats

__all__ = [
    "DistributedRunner",
    "HttpBackend",
    "MemoryBackend",
    "ParallelRunner",
    "PointExecutionError",
    "PointSpec",
    "ResultCache",
    "RunnerConfig",
    "ScenarioSpec",
    "Sweep",
    "Worker",
    "WorkerStats",
    "available_scenarios",
    "build_scenario",
    "default_cache_dir",
    "derive_seed",
    "execute_point",
    "execute_point_checked",
    "expand",
    "get_scenario",
    "point_from_payload",
    "point_key",
    "register_scenario",
]
