"""Declarative scenario engine and parallel experiment runner.

The experiment layer is split into these pieces:

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
"""

from repro import _lazy_exports

# Defining module -> the names this package re-exports from it.  They
# resolve on first access (PEP 562), so importing the queue-side modules
# (``spec``, ``cache``, ``backends``) loads no simulator code.
__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.runner.backends": ("HttpBackend", "MemoryBackend"),
    "repro.runner.cache": ("ResultCache", "default_cache_dir", "point_key"),
    "repro.runner.distributed": ("DistributedRunner",),
    "repro.runner.registry": (
        "available_scenarios",
        "build_scenario",
        "get_scenario",
        "register_scenario",
    ),
    "repro.runner.runner": (
        "ParallelRunner",
        "PointExecutionError",
        "execute_point",
        "execute_point_checked",
    ),
    "repro.runner.spec": (
        "PointSpec",
        "ScenarioSpec",
        "Sweep",
        "derive_seed",
        "expand",
        "point_from_payload",
    ),
    "repro.runner.worker": ("Worker", "WorkerStats"),
})
