"""Reproduction of "Dynamic Multi-Resource Load Balancing in Parallel Database
Systems" (Rahm & Marek, VLDB 1995).

The package simulates a Shared Nothing parallel database system executing
parallel hash joins and OLTP transactions, and implements the paper's family
of static, dynamic, isolated and integrated load balancing strategies.

Typical usage::

    from repro import SystemConfig, SimulationDriver

    config = SystemConfig(num_pe=40)
    driver = SimulationDriver(config, strategy="OPT-IO-CPU")
    result = driver.run_multi_user(measured_joins=100)
    print(result.row())

The names exported here resolve lazily (PEP 562): each one imports its
defining module on first access.  Importing a submodule such as
:mod:`repro.runner.spec` therefore loads no simulator code, which keeps the
``repro-lb serve`` coordinator and ``repro-lb status`` free of it.
"""

import importlib
import sys
from typing import Dict, Tuple

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: Dict[str, Tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for a package that re-exports
    ``exports`` (defining module -> names), each imported on first access."""
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        return getattr(importlib.import_module(module), name)

    def __dir__():
        return sorted({*vars(sys.modules[package]), *origin})

    return list(origin), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.config": (
        "BufferConfig",
        "ControlConfig",
        "CpuConfig",
        "DiskConfig",
        "InstructionCosts",
        "JoinQueryConfig",
        "NetworkConfig",
        "OltpConfig",
        "RelationConfig",
        "SystemConfig",
    ),
    "repro.scheduling": (
        "STRATEGIES",
        "ControlNode",
        "CostModel",
        "JoinPlan",
        "LoadBalancingStrategy",
        "SchedulingContext",
        "make_strategy",
        "strategy_names",
    ),
    "repro.simulation": ("ParallelSystem", "SimulationDriver", "SimulationResult"),
    "repro.workload": ("JoinQuery", "OltpTransaction", "WorkloadSpec"),
})
__all__.append("__version__")
