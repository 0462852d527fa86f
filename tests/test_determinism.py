"""Golden-file determinism tests for the kernel overhauls (PR 5 / PR 6).

The golden CSV under ``tests/data/`` was exported with the pre-overhaul
kernel; the refactored kernel must reproduce it byte for byte, at any worker
count -- the PR's "no simulation outcome changes" guarantee, checked on every
run.  PR 6 extends the pin: the event-coalescing layer must be invisible,
so the export is also byte-identical with coalescing disabled
(``REPRO_COALESCE=0``), and a dynamic timeline run agrees field for field
between the two modes.  Regenerate (only after an *intentional* outcome
change) with::

    PYTHONPATH=src python -m repro.cli experiment figure5 \
        --sizes 10 --joins 8 --time-limit 40 --replicates 2 --workers 1 \
        --no-cache --export csv --output tests/data/figure5_golden.csv
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "figure5_golden.csv"

GOLDEN_ARGS = [
    "experiment", "figure5",
    "--sizes", "10", "--joins", "8", "--time-limit", "40",
    "--replicates", "2", "--no-cache", "--export", "csv",
]


@pytest.mark.parametrize("workers", [1, 2])
def test_figure5_export_matches_golden(tmp_path, workers):
    out = tmp_path / "figure5.csv"
    code = main(GOLDEN_ARGS + ["--workers", str(workers), "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_figure5_export_identical_with_coalescing_off(tmp_path, monkeypatch):
    """Macro-event coalescing must not change any simulation outcome."""
    monkeypatch.setenv("REPRO_COALESCE", "0")
    out = tmp_path / "figure5_uncoalesced.csv"
    code = main(GOLDEN_ARGS + ["--workers", "1", "--output", str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_dynamic_timeline_identical_with_coalescing_off(monkeypatch):
    """A windowed (dynamic) run agrees field for field between modes --
    coalescing must be invisible to open-workload timelines, not just to
    the closed figure sweeps."""
    from repro.experiments.scenarios import homogeneous_config
    from repro.simulation.driver import SimulationDriver

    def run():
        config = homogeneous_config(4, seed=42)
        driver = SimulationDriver(config, strategy="OPT-IO-CPU")
        return driver.run_timed(10.0, timeline_window=2.0).to_dict()

    batched = run()
    monkeypatch.setenv("REPRO_COALESCE", "0")
    unbatched = run()
    assert batched == unbatched


def _run_figure9_mixed_point():
    """One small Fig. 9b-style point: OLTP on the B nodes preempting joins."""
    from repro.experiments.base import run_scenario

    experiment = run_scenario(
        "figure9b",
        system_sizes=(10,),
        strategies=("OPT-IO-CPU",),
        measured_joins=6,
        max_simulated_time=20.0,
    )
    return experiment.value("OPT-IO-CPU", 10).result.to_dict()


def test_figure9_mixed_point_identical_with_coalescing_off(monkeypatch):
    """Mixed OLTP+join workloads exercise the OLTP-preemption split/relay
    path of the coalescing layer, which neither the figure5 sweep nor the
    timeline scenario reaches -- pin batched == unbatched there too."""
    batched = _run_figure9_mixed_point()
    monkeypatch.setenv("REPRO_COALESCE", "0")
    unbatched = _run_figure9_mixed_point()
    assert batched == unbatched


_HASH_SEED_SCRIPT = """\
import json
from repro.experiments.base import run_scenario

experiment = run_scenario(
    "figure9b",
    system_sizes=(10,),
    strategies=("OPT-IO-CPU",),
    measured_joins=6,
    max_simulated_time=20.0,
)
print(json.dumps(experiment.value("OPT-IO-CPU", 10).result.to_dict(), sort_keys=True))
"""


def test_figure9_mixed_point_invariant_under_hash_randomisation():
    """Simulation outcomes must not depend on PYTHONHASHSEED (regression:
    LockManager tracked each transaction's held locks in a set keyed by
    string-bearing tuples, so commit-time release -- and with it the waiter
    wake-up order of conflicting OLTP transactions -- followed the
    interpreter's string-hash order, making the Fig. 9 mixed-workload tables
    vary from run to run)."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]


def test_empty_fault_plan_is_byte_invisible(monkeypatch):
    """PR 8: the fault layer is wired into every run, but an empty plan must
    construct no injector and take the exact historical code paths -- field
    for field, with coalescing on and off."""
    from repro.experiments.scenarios import mixed_workload_config
    from repro.simulation.driver import SimulationDriver

    def run(faults):
        driver = SimulationDriver(
            mixed_workload_config(6), strategy="OPT-IO-CPU", faults=faults
        )
        return driver.run_timed(10.0, timeline_window=2.0).to_dict()

    for mode in ("1", "0"):
        monkeypatch.setenv("REPRO_COALESCE", mode)
        assert run(None) == run(())
