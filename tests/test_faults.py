"""Fault-injection & elasticity subsystem (PR 8).

Covers the declarative plan layer (parse / encode / canonicalise), the
``failures`` sweep axis (expansion, labels, cache keys, JSON and pickle
round-trips), and the runtime injector end to end: crashes kill and
resubmit in-flight work, recovery drains held transactions, stragglers
swap hardware speeds deterministically, membership changes model explicit
rebalancing work, and scheduling excludes dead PEs.  Determinism is pinned
the same way the kernel PRs pin it: exact ``==`` on serialised results,
across coalescing modes and hash seeds.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.scenarios import homogeneous_config, mixed_workload_config
from repro.faults.plan import (
    FaultEvent,
    canonical_failures,
    decode_failures,
    encode_failures,
    expand_events,
    failures_label,
    parse_fault,
)
from repro.runner import ResultCache, ScenarioSpec, Sweep
from repro.runner.spec import point_from_payload
from repro.simulation.driver import SimulationDriver


# -- plan layer ---------------------------------------------------------------------
def test_fault_event_encode_decode_round_trip():
    events = (
        FaultEvent(time=15.0, kind="pe_crash", pe=1, duration=15.0),
        FaultEvent(time=20.0, kind="degrade", pe=2, factor=0.25, duration=10.0),
    )
    entry = encode_failures(events)
    assert decode_failures(entry) == events
    assert canonical_failures(entry) == entry
    assert canonical_failures(None) is None
    assert encode_failures(()) is None


def test_fault_event_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultEvent(time=1.0, kind="meteor")
    with pytest.raises(ValueError, match="time"):
        FaultEvent(time=-1.0, kind="pe_crash")
    with pytest.raises(ValueError, match="factor"):
        FaultEvent(time=1.0, kind="degrade", factor=0.0)
    with pytest.raises(ValueError, match="duration"):
        FaultEvent(time=1.0, kind="pe_add", duration=5.0)
    with pytest.raises(ValueError, match="duration"):
        FaultEvent(time=1.0, kind="pe_crash", duration=-2.0)


def test_parse_fault_aliases_and_keys():
    assert parse_fault("crash@15:pe=1:duration=15") == FaultEvent(
        time=15.0, kind="pe_crash", pe=1, duration=15.0
    ).encode()
    assert parse_fault("degrade@5:pe=2:factor=0.5") == FaultEvent(
        time=5.0, kind="degrade", pe=2, factor=0.5
    ).encode()
    assert parse_fault("add@10:pe=3:pages=64") == FaultEvent(
        time=10.0, kind="pe_add", pe=3, pages=64
    ).encode()
    for bad in ("bogus@5", "crash", "crash@x", "crash@5:pe=", "crash@5:wat=1"):
        with pytest.raises(ValueError):
            parse_fault(bad)


def test_parse_fault_rack_surge_drain_keys():
    assert parse_fault("crash@15:rack=1:duration=15") == FaultEvent(
        time=15.0, kind="pe_crash", rack=1, duration=15.0
    ).encode()
    assert parse_fault("crash@15:pe=1:surge=3") == FaultEvent(
        time=15.0, kind="pe_crash", pe=1, surge=3.0
    ).encode()
    assert parse_fault("remove@20:pe=5:drain=true") == FaultEvent(
        time=20.0, kind="pe_remove", pe=5, drain=True
    ).encode()
    assert parse_fault("remove@20:pe=5:drain=no") == FaultEvent(
        time=20.0, kind="pe_remove", pe=5, drain=False
    ).encode()


def test_parse_fault_is_strict_and_names_the_offending_token():
    # Unknown keys name themselves and the full token.
    with pytest.raises(ValueError, match=r"malformed fault option 'wat=1'"):
        parse_fault("crash@5:wat=1")
    # Duplicate keys are rejected, naming the key and the token.
    with pytest.raises(ValueError, match=r"duplicate fault option 'pe'.*crash@5:pe=1:pe=2"):
        parse_fault("crash@5:pe=1:pe=2")
    # Negative time / duration / restart_delay are rejected with the token.
    with pytest.raises(ValueError, match=r"invalid fault 'crash@-5:pe=1'"):
        parse_fault("crash@-5:pe=1")
    with pytest.raises(ValueError, match=r"invalid fault 'crash@5:pe=1:duration=-1'"):
        parse_fault("crash@5:pe=1:duration=-1")
    with pytest.raises(ValueError, match=r"restart_delay"):
        parse_fault("remove@5:pe=1:restart_delay=-2")
    # Keys only valid for specific kinds stay rejected through the parser.
    with pytest.raises(ValueError, match=r"invalid fault 'degrade@5:pe=1:surge=2'"):
        parse_fault("degrade@5:pe=1:surge=2")
    with pytest.raises(ValueError, match=r"drain"):
        parse_fault("crash@5:pe=1:drain=true")
    with pytest.raises(ValueError, match=r"drain"):
        parse_fault("remove@5:pe=1:drain=maybe")


def test_duration_sugar_expands_to_inverse_events():
    declared = (FaultEvent(time=15.0, kind="pe_crash", pe=1, duration=15.0),)
    expanded = expand_events(declared)
    kinds = [(event.time, event.kind) for event in expanded]
    assert kinds == [(15.0, "pe_crash"), (30.0, "pe_recover")]
    # Derived events sort after declared ones at the same instant.
    pair = expand_events(
        (
            FaultEvent(time=10.0, kind="degrade", pe=0, factor=0.5, duration=5.0),
            FaultEvent(time=15.0, kind="pe_crash", pe=1),
        )
    )
    assert [(e.time, e.kind) for e in pair] == [
        (10.0, "degrade"),
        (15.0, "pe_crash"),
        (15.0, "restore"),
    ]


def test_failures_label_is_stable_and_compact():
    assert failures_label(None) == "none"
    entry = encode_failures(
        (
            FaultEvent(time=15.0, kind="pe_crash", pe=1, duration=15.0),
            FaultEvent(time=20.0, kind="degrade", pe=2, factor=0.5),
        )
    )
    assert failures_label(entry) == "crash1@15+deg2@20"


# -- sweep axis ---------------------------------------------------------------------
def _tiny_faulted_spec(failures_axis):
    sweep = Sweep(
        kind="timeline",
        scenario="homogeneous",
        strategies=("OPT-IO-CPU",),
        system_sizes=(4,),
        rates=(0.25,),
        timeline_window=2.0,
        failures=failures_axis,
        series="{strategy} [{failures}]",
    )
    return ScenarioSpec(
        name="t", title="t", x_label="# PE", sweeps=(sweep,), max_simulated_time=8.0
    )


CRASH_PLAN = encode_failures((FaultEvent(time=2.0, kind="pe_crash", pe=1, duration=3.0),))


def test_failures_axis_expands_labels_and_cache_keys(tmp_path):
    points = _tiny_faulted_spec((None, CRASH_PLAN)).points()
    assert [point.series for point in points] == [
        "OPT-IO-CPU [none]",
        "OPT-IO-CPU [crash1@2]",
    ]
    assert points[0].failures is None
    assert points[1].failures == CRASH_PLAN
    cache = ResultCache(root=tmp_path)
    assert cache.key(points[0]) != cache.key(points[1])
    # Fault-free points canonicalise to None: their key is unchanged by the
    # axis joining the payload (same expansion as a spec without the axis).
    legacy = _tiny_faulted_spec((None,)).points()
    assert cache.key(points[0]) == cache.key(legacy[0])


def test_faulted_points_survive_pickle_and_json():
    points = _tiny_faulted_spec((CRASH_PLAN,)).points()
    assert pickle.loads(pickle.dumps(points)) == points
    payload = json.loads(json.dumps(dataclasses.asdict(points[0])))
    assert point_from_payload(payload) == points[0]


def test_sweep_rejects_malformed_failures_entries():
    with pytest.raises(ValueError):
        _tiny_faulted_spec(((("time", -5.0), ("kind", "pe_crash")),)).points()
    with pytest.raises(ValueError):
        _tiny_faulted_spec(((("kind", "meteor"),),)).points()


@pytest.mark.parametrize("kind", ["single", "fixed-degree", "analytic"])
def test_sweep_rejects_fault_plans_on_kinds_that_would_ignore_them(kind):
    # Single-user and fixed-degree joins run past the fault runtime, and
    # analytic points simulate nothing: a plan there would change only the
    # label.
    axis = {"strategies": ("OPT-IO-CPU",)} if kind == "single" else {"degrees": (2,)}
    with pytest.raises(ValueError, match=f"not '{kind}' \\(plan 'crash1@2'\\)"):
        Sweep(kind=kind, system_sizes=(4,), failures=(None, CRASH_PLAN), **axis)
    Sweep(kind=kind, system_sizes=(4,), failures=(None, ()), **axis)


# -- runtime ------------------------------------------------------------------------
def test_single_user_run_rejects_a_fault_plan():
    # The closed loop bypasses the runtime's gates and registry, so a crash
    # would neither kill nor hold anything.
    driver = SimulationDriver(
        homogeneous_config(4), faults=(FaultEvent(time=0.2, kind="pe_crash", pe=1),)
    )
    with pytest.raises(ValueError, match="single-user run takes no fault plan"):
        driver.run_single_user(3)


@pytest.mark.parametrize("kind", ["single", "fixed-degree", "analytic"])
def test_point_execution_refuses_a_plan_on_kinds_that_would_ignore_it(kind):
    # A hand-built point (as posted straight to ``POST /sweeps``) skips the
    # Sweep check: executing it must fail, not return a clean result under
    # a faulted label.
    from repro.runner.runner import PointExecutionError, execute_point_checked
    from repro.runner.spec import PointSpec

    point = PointSpec(
        figure="adhoc", series="s", x=8.0, kind=kind, scenario="homogeneous",
        num_pe=8, seed=42, strategy="OPT-IO-CPU" if kind == "single" else None,
        degree=None if kind == "single" else 4, num_queries=2,
        failures=canonical_failures(CRASH_PLAN),
    )
    with pytest.raises(PointExecutionError) as excinfo:
        execute_point_checked(point)
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert "takes no fault plan" in str(excinfo.value.__cause__)


def test_fault_runtime_accepts_empty_plan_and_rejects_bad_pe():
    from repro.faults.injector import FaultRuntime

    driver = SimulationDriver(homogeneous_config(4))
    env = driver.env
    before = (env._eid, len(env._queue), len(env._lane))
    FaultRuntime(driver.system, ()).start()  # nothing to inject: no process, no event
    assert (env._eid, len(env._queue), len(env._lane)) == before
    with pytest.raises(ValueError, match="PE 9"):
        SimulationDriver(
            homogeneous_config(4),
            faults=(FaultEvent(time=1.0, kind="pe_crash", pe=9),),
        )


@pytest.mark.parametrize("crashed_pe", [1, 5, None], ids=["crash", "crash-oltp-home", "clean"])
def test_in_flight_registry_stays_bounded(crashed_pe, record_calls):
    # Every run tracks its transactions; finished records are pruned as the
    # registry grows, not only when a fault fires, so neither a clean run
    # nor a faulted run after its last event keeps one per submission.
    # PE 5 is an OLTP home: its crash kills and resubmits transactions.
    from repro.faults.injector import FaultRuntime

    faults = (
        ()
        if crashed_pe is None
        else (FaultEvent(time=1.0, kind="pe_crash", pe=crashed_pe, duration=1.0),)
    )
    driver = SimulationDriver(mixed_workload_config(8, oltp_placement="B"), faults=faults)
    submitted = record_calls(driver.system, "submit")
    driver.run_timed(6.0)
    system = driver.system
    runtime = system.faults
    assert isinstance(runtime, FaultRuntime)
    assert runtime.injected == len(runtime.events)
    if crashed_pe == 5:
        assert runtime.kills > 0 and runtime.resubmits > 0
    assert len(submitted) > 3000
    assert len(runtime._records) <= 256


def test_crash_kills_resubmits_and_recovers():
    driver = SimulationDriver(
        homogeneous_config(4),
        faults=decode_failures(CRASH_PLAN),
    )
    runtime = driver.system.faults
    held = []

    def probe():
        yield driver.env.timeout(4.9)  # just before PE 1 recovers at 5 s
        held.append(len(runtime._held))

    driver.env.process(probe())
    result = driver.run_timed(10.0, timeline_window=2.0)
    assert runtime.injected == 2  # crash + derived recover
    assert runtime.kills >= 1
    assert runtime.resubmits >= 1
    # New arrivals during the outage are held (data on the dead PE), then
    # drained at recovery.
    assert held[0] >= 1
    assert not runtime._held
    # Availability dips only while the PE is down ([2, 5) of a 4-PE pool).
    availability = [window.availability for window in result.timeline]
    assert availability[0] == 1.0
    assert availability[1] == pytest.approx(0.75)  # [2,4): fully down
    assert availability[2] == pytest.approx(0.875)  # [4,6): down half the window
    assert availability[3:] == [1.0, 1.0]
    anomalies = [window.anomaly for window in result.timeline]
    assert anomalies[1] == "pe_crash:pe1"
    assert anomalies[3] == ""


def test_crash_differs_from_clean_run_and_is_deterministic():
    def run(faults):
        driver = SimulationDriver(homogeneous_config(4), faults=faults)
        return driver.run_timed(10.0, timeline_window=2.0).to_dict()

    clean = run(None)
    faulted = run(decode_failures(CRASH_PLAN))
    assert faulted != clean
    assert run(decode_failures(CRASH_PLAN)) == faulted


def test_degrade_is_identical_across_coalescing_modes(monkeypatch):
    plan = (FaultEvent(time=2.0, kind="degrade", pe=1, factor=0.25, duration=3.0),)

    def run():
        driver = SimulationDriver(mixed_workload_config(4), faults=plan)
        return driver.run_timed(8.0, timeline_window=2.0).to_dict()

    monkeypatch.setenv("REPRO_COALESCE", "1")
    batched = run()
    monkeypatch.setenv("REPRO_COALESCE", "0")
    assert run() == batched


def test_crash_is_identical_across_coalescing_modes(monkeypatch):
    def run():
        driver = SimulationDriver(
            mixed_workload_config(4), faults=decode_failures(CRASH_PLAN)
        )
        return driver.run_timed(8.0, timeline_window=2.0).to_dict()

    monkeypatch.setenv("REPRO_COALESCE", "1")
    batched = run()
    monkeypatch.setenv("REPRO_COALESCE", "0")
    assert run() == batched


def test_dead_pe_leaves_scheduling_pool():
    driver = SimulationDriver(
        homogeneous_config(4),
        faults=(FaultEvent(time=1.0, kind="pe_crash", pe=2),),  # never recovers
    )
    driver.system.start()
    driver.env.run(until=2.0)
    runtime = driver.system.faults
    assert runtime.eligible_processors() == (0, 1, 3)
    control = driver.system.control_node
    assert not control.status_of(2).available
    assert 2 not in [status.pe_id for status in control.nodes_by_cpu()]


def test_degraded_pe_is_down_weighted_not_excluded():
    driver = SimulationDriver(
        homogeneous_config(4),
        faults=(FaultEvent(time=1.0, kind="degrade", pe=2, factor=0.25),),
    )
    driver.system.start()
    driver.env.run(until=2.0)
    control = driver.system.control_node
    status = control.status_of(2)
    assert status.available
    assert status.speed_factor == 0.25
    ranked = [s.pe_id for s in control.nodes_by_cpu()]
    assert set(ranked) == {0, 1, 2, 3}
    assert ranked[-1] == 2  # slowest effective capacity ranks last


def test_membership_changes_model_rebalancing_work(record_calls):
    # pe_add: the target starts outside the pool and joins after shipping
    # pages; pe_remove: leaves immediately and drains pages out.
    add = SimulationDriver(
        homogeneous_config(4),
        faults=(FaultEvent(time=1.0, kind="pe_add", pe=3, pages=32),),
    )
    shipped_in = record_calls(add.system.faults, "_ship_pages")
    add.system.start()
    assert add.system.faults.eligible_processors() == (0, 1, 2)
    add.env.run(until=5.0)
    assert add.system.faults.eligible_processors() == (0, 1, 2, 3)
    assert [(dst, pages) for _, dst, pages in shipped_in] == [(3, 32)]

    remove = SimulationDriver(
        homogeneous_config(4),
        faults=(FaultEvent(time=1.0, kind="pe_remove", pe=3, pages=32),),
    )
    shipped_out = record_calls(remove.system.faults, "_ship_pages")
    remove.system.start()
    remove.env.run(until=0.5)
    assert remove.system.faults.eligible_processors() == (0, 1, 2, 3)
    remove.env.run(until=5.0)
    assert remove.system.faults.eligible_processors() == (0, 1, 2)
    assert [(src, pages) for src, _, pages in shipped_out] == [(3, 32)]


def test_window_stats_empty_pool_availability_guard():
    # All PEs out of the pool -> 0/0 availability folds to 1.0 (nothing was
    # expected of an empty pool), not ZeroDivisionError.
    driver = SimulationDriver(
        homogeneous_config(2),
        faults=(
            FaultEvent(time=1.0, kind="pe_remove", pe=0, pages=0),
            FaultEvent(time=1.0, kind="pe_remove", pe=1, pages=0),
        ),
    )
    driver.system.start()
    driver.env.run(until=3.0)
    availability, _ = driver.system.faults.window_stats(2.0, 3.0)
    assert availability == 1.0
    # The (instantaneous, zero-page) removes do label the window they
    # happened in.
    _, anomaly = driver.system.faults.window_stats(0.5, 1.5)
    assert "pe_remove:pe0" in anomaly


# -- scenario + hash-seed determinism -----------------------------------------------
def test_faults_scenario_registered_with_expected_series():
    from repro.experiments.faults import build_spec

    spec = build_spec(system_sizes=(4,), max_simulated_time=20.0)
    series = {point.series for point in spec.points()}
    assert series == {
        "OPT-IO-CPU [none]",
        "OPT-IO-CPU [crash1@15]",
        "OPT-IO-CPU [deg1@15]",
        "psu_opt+RANDOM [none]",
        "psu_opt+RANDOM [crash1@15]",
        "psu_opt+RANDOM [deg1@15]",
    }
    with pytest.raises(ValueError, match="unknown fault plan"):
        build_spec(fault_names=("meteor",))


_HASH_SEED_SCRIPT = """\
import json
from repro.faults.plan import FaultEvent
from repro.experiments.scenarios import mixed_workload_config
from repro.simulation.driver import SimulationDriver

driver = SimulationDriver(
    mixed_workload_config(4),
    faults=(FaultEvent(time=2.0, kind="pe_crash", pe=1, duration=3.0),),
)
print(json.dumps(driver.run_timed(8.0, timeline_window=2.0).to_dict(), sort_keys=True))
"""


def test_faulted_run_invariant_under_hash_randomisation():
    """Crash cleanup iterates registries (records, lock tables, buffer
    queues); none of that may leak interpreter hash order into outcomes."""
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
