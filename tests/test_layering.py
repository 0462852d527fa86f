"""The queue side of the service loads no simulator module.

``repro-lb serve`` holds the queue, the leases and the results, and
``repro-lb status`` only asks the coordinator; neither runs a simulation,
so neither should import one.  The check runs in a fresh interpreter (this
test process has long since imported everything), on whichever ``repro``
this test imports -- the source tree or an installed wheel.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Packages that hold the simulator, or expand scenarios into it.
SIMULATOR_PACKAGES = (
    "repro.sim",
    "repro.hardware",
    "repro.engine",
    "repro.execution",
    "repro.scheduling",
    "repro.database",
    "repro.simulation",
    "repro.experiments",
)

#: Simulator modules inside packages the queue side uses.
SIMULATOR_MODULES = (
    "repro.metrics.timeline",
    "repro.metrics.collector",
    "repro.faults.injector",
    "repro.workload.generator",
)

_SCRIPT = """
import contextlib
import io
import json
import sys

import repro.cli

parser = repro.cli.build_parser()
parser.parse_args(["serve"])
parser.parse_args(["status", "--url", "http://x"])
# Rendering help expands every help string of a subcommand, as newer
# argparse versions already do in add_argument.
for command in ("experiment", "dispatch", "profile"):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        parser.parse_args([command, "--help"])
import repro.service.coordinator
import repro.runner.backends.http

loaded = sorted(name for name in sys.modules if name.split(".")[0] == "repro")

from repro import SimulationDriver, SystemConfig, strategy_names
from repro.metrics import Timeline
from repro.runner import DistributedRunner, ParallelRunner, Worker
from repro.workload import JoinQuery

exports = [
    f"{value.__module__}.{value.__name__}"
    for value in (SimulationDriver, SystemConfig, strategy_names, Timeline,
                  DistributedRunner, ParallelRunner, Worker, JoinQuery)
]
print(json.dumps({"loaded": loaded, "exports": exports}))
"""


def _is_simulator(name: str) -> bool:
    return name in SIMULATOR_MODULES or any(
        name == package or name.startswith(package + ".") for package in SIMULATOR_PACKAGES
    )


def test_serve_and_status_boot_without_the_simulator():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(proc.stdout)
    loaded = report["loaded"]
    assert "repro.service.coordinator" in loaded and "repro.runner.backends.http" in loaded
    assert [name for name in loaded if _is_simulator(name)] == []
    # The package re-exports still resolve, to their defining modules.
    assert report["exports"] == [
        "repro.simulation.driver.SimulationDriver",
        "repro.config.parameters.SystemConfig",
        "repro.scheduling.strategy.strategy_names",
        "repro.metrics.timeline.Timeline",
        "repro.runner.distributed.DistributedRunner",
        "repro.runner.runner.ParallelRunner",
        "repro.runner.worker.Worker",
        "repro.workload.query.JoinQuery",
    ]


def test_every_lazy_export_resolves():
    import repro.metrics
    import repro.runner
    import repro.workload

    for package in (repro, repro.runner, repro.metrics, repro.workload):
        for name in package.__all__:
            assert getattr(package, name) is not None, f"{package.__name__}.{name}"
            assert name in dir(package)
