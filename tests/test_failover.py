"""Replication & failover subsystem (PR 10).

Covers replica placement (mirror pairing, chained declustering), the
failover scan-site computation (balanced single-failure split, whole
fragment fallback, unreachability), and the runtime end to end: reads
fail over to surviving copies while single-copy runs hold every join,
rack-scoped crashes take down exactly the rack's PEs (and defeat chained
declustering when primary+backup share the rack), crash-coupled arrival
surges model cascading overload, permanent losses trigger re-replication
work, and planned drains remove a PE with zero aborts.  Determinism is
pinned the usual way: exact ``==`` on serialised results across hash
seeds and worker counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config.parameters import TopologyConfig
from repro.database.allocation import (
    allocate_paper_database,
    assign_replicas,
    decluster,
    failover_scan_sites,
)
from repro.experiments.scenarios import homogeneous_config, mixed_workload_config
from repro.faults.plan import FaultEvent
from repro.simulation.driver import SimulationDriver


def _relations(num_pe=8, replication=None):
    config = homogeneous_config(num_pe)
    if replication is not None:
        config = config.with_overrides(replication=replication)
    return config, allocate_paper_database(config)


# -- replica placement --------------------------------------------------------------
def test_chained_placement_is_next_ring_pe():
    _, relations = _relations(replication="chained")
    a, b = relations["A"], relations["B"]
    assert a.node_ids == [0, 1] and b.node_ids == [2, 3, 4, 5, 6, 7]
    assert a.backups == {0: 1, 1: 0}
    assert b.backups == {2: 3, 3: 4, 4: 5, 5: 6, 6: 7, 7: 2}
    assert b.backup_of(5) == 6 and b.backup_of(9) is None


def test_mirror_placement_pairs_adjacent_ring_pes():
    config, relations = _relations(replication="mirror")
    assert relations["B"].backups == {2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}
    # Odd-sized ring: the unpaired last position wraps to ring[0].
    odd = decluster(config.relation_a, [0, 1, 2])
    assign_replicas(odd, "mirror")
    assert odd.backups == {0: 1, 1: 0, 2: 0}
    # Single-PE ring: nowhere disjoint to place a copy.
    single = decluster(config.relation_a, [4])
    assign_replicas(single, "mirror")
    assert single.backups == {}
    with pytest.raises(ValueError, match="unknown replication policy"):
        assign_replicas(single, "raid")


# -- failover scan sites ------------------------------------------------------------
def test_all_alive_sites_are_the_primaries():
    _, relations = _relations(replication="chained")
    b = relations["B"]
    sites = failover_scan_sites(b, frozenset())
    assert sites == [(pe, b.fragment_on(pe), 1.0) for pe in b.node_ids]


def test_chained_single_failure_balances_load_across_survivors():
    _, relations = _relations(replication="chained")
    b = relations["B"]
    sites = failover_scan_sites(b, frozenset({3}))
    assert all(pe != 3 for pe, _, _ in sites)
    # Every fragment is read exactly once in total...
    coverage = {pe: 0.0 for pe in b.node_ids}
    for _, fragment, fraction in sites:
        owner = next(pe for pe in b.node_ids if b.fragment_on(pe) is fragment)
        coverage[owner] += fraction
    assert all(total == pytest.approx(1.0) for total in coverage.values())
    # ...and every survivor carries the same n/(n-1) share of the scan load.
    load = {pe: 0.0 for pe in b.node_ids if pe != 3}
    for pe, _, fraction in sites:
        load[pe] += fraction
    assert all(total == pytest.approx(6 / 5) for total in load.values())
    # The dead PE's own fragment is served entirely by its chained backup.
    assert (4, b.fragment_on(3), 1.0) in sites


def test_multi_failure_falls_back_to_whole_fragment_failover():
    _, relations = _relations(replication="chained")
    b = relations["B"]
    sites = failover_scan_sites(b, frozenset({3, 5}))  # non-adjacent pair
    assert all(fraction == 1.0 for _, _, fraction in sites)
    assert (4, b.fragment_on(3), 1.0) in sites
    assert (6, b.fragment_on(5), 1.0) in sites


def test_unreachable_data_returns_none():
    # Chained: adjacent primary+backup both dead -> the fragment is gone.
    _, relations = _relations(replication="chained")
    assert failover_scan_sites(relations["B"], frozenset({3, 4})) is None
    # Mirror: a dead pair takes both copies.
    _, mirrored = _relations(replication="mirror")
    assert failover_scan_sites(mirrored["B"], frozenset({2, 3})) is None
    # No replication at all: any ring death is unreachable.
    _, single = _relations(replication=None)
    assert failover_scan_sites(single["B"], frozenset({2})) is None


# -- runtime: failover vs outage ----------------------------------------------------
CRASH_PE1 = (FaultEvent(time=5.0, kind="pe_crash", pe=1, duration=10.0),)


def _crash_run(replication):
    """Run CRASH_PE1; also return how many transactions the fault runtime
    holds just before PE 1 recovers at 15 s."""
    config = homogeneous_config(8)
    if replication is not None:
        config = config.with_overrides(replication=replication)
    driver = SimulationDriver(config, faults=CRASH_PE1)
    held = []

    def probe():
        yield driver.env.timeout(14.9)
        held.append(len(driver.system.faults._held))

    driver.env.process(probe())
    result = driver.run_timed(20.0, timeline_window=5.0)
    return driver, result, held[0]


def test_single_copy_crash_is_a_total_outage():
    driver, result, held = _crash_run(None)
    windows = list(result.timeline)
    outage = windows[1:3]  # [5,10) and [10,15): PE 1 down
    assert [window.joins_completed for window in outage] == [0, 0]
    # A's fragment on PE 1 (125k of 1.25M tuples) is unreachable: 0.9.
    assert [window.effective_availability for window in outage] == [
        pytest.approx(0.9),
        pytest.approx(0.9),
    ]
    assert held > 0 and not driver.system.faults._held  # drained at recovery
    assert windows[3].joins_completed > 0  # held burst completes


def test_chained_crash_degrades_gracefully():
    _, result, held = _crash_run("chained")
    windows = list(result.timeline)
    outage = windows[1:3]
    # Reads failed over to surviving copies: joins keep completing and no
    # data ever became unreachable.
    assert all(window.joins_completed > 0 for window in outage)
    assert all(window.effective_availability == 1.0 for window in result.timeline)
    assert held == 0
    # Pool availability still shows the crash (7 of 8 PEs): the two
    # availability notions separate exactly here.
    assert windows[1].availability == pytest.approx(7 / 8)


def test_crash_contrast_none_vs_chained_differs_and_is_deterministic():
    _, none_result, _ = _crash_run(None)
    _, chained_result, _ = _crash_run("chained")
    assert none_result.to_dict() != chained_result.to_dict()
    _, again, _ = _crash_run("chained")
    assert again.to_dict() == chained_result.to_dict()


# -- rack-scoped correlated failures ------------------------------------------------
RACKED = {
    "topology": TopologyConfig(racks=4, cross_rack_latency_factor=2.0),
}


def test_rack_crash_kills_exactly_the_racks_pes():
    config = homogeneous_config(8).with_overrides(replication="chained", **RACKED)
    driver = SimulationDriver(
        config,
        faults=(FaultEvent(time=1.0, kind="pe_crash", rack=1, duration=2.0),),
    )
    driver.system.start()
    driver.env.run(until=2.0)
    runtime = driver.system.faults
    assert runtime.dead_pes() == frozenset({2, 3})  # rack 1 of 4 on 8 PEs
    assert runtime.eligible_processors() == (0, 1, 4, 5, 6, 7)
    driver.env.run(until=4.0)
    assert runtime.dead_pes() == frozenset()
    # Chained declustering places the backup on the *next* ring PE -- the
    # same rack -- so the correlated failure takes both copies down.
    assert failover_scan_sites(
        driver.system.catalog.relation("B"), frozenset({2, 3})
    ) is None


def test_rack_fault_validates_against_topology():
    config = homogeneous_config(8).with_overrides(**RACKED)
    with pytest.raises(ValueError, match="rack 7"):
        SimulationDriver(
            config, faults=(FaultEvent(time=1.0, kind="pe_crash", rack=7),)
        )


# -- cascading overload (crash-coupled surge) ---------------------------------------
def test_crash_surge_scales_arrivals_and_retracts_at_recovery(record_calls):
    def run(surge):
        # Busy arrivals: the scale applies to delays *sampled* while the
        # surge is active (RNG streams stay untouched), so the window must
        # contain draws for the coupling to bite.
        config = homogeneous_config(4, arrival_rate_per_pe=1.0).with_overrides(
            replication="chained"
        )
        driver = SimulationDriver(
            config,
            faults=(
                FaultEvent(time=2.0, kind="pe_crash", pe=1, duration=3.0, surge=surge),
            ),
        )
        submitted = record_calls(driver.system, "submit")
        driver.run_timed(12.0, timeline_window=3.0)
        return driver, len(submitted)

    base_driver, base_arrivals = run(None)
    surged_driver, surged_arrivals = run(4.0)
    assert surged_arrivals > base_arrivals
    # The surge is retracted by the matching recover: the generator is back
    # to the nominal rate (and the surge bookkeeping is empty) at the end.
    assert surged_driver.system.workload_generator.rate_scale == 1.0
    assert not surged_driver.system.faults._surges
    assert base_driver.system.workload_generator.rate_scale == 1.0


# -- re-replication after permanent loss --------------------------------------------
def test_permanent_loss_re_replicates_the_fragment(record_calls):
    config = homogeneous_config(8).with_overrides(replication="chained")
    driver = SimulationDriver(
        config,
        faults=(FaultEvent(time=2.0, kind="pe_crash", pe=3),),  # never recovers
    )
    shipped = record_calls(driver.system.faults, "_ship_pages")
    driver.system.start()
    driver.env.run(until=10.0)
    assert shipped == []  # the background copy is in flight
    # Shipping and rewriting the 8k-page fragment takes the backup's disk
    # about a minute of simulated time; run past it.
    driver.env.run(until=120.0)
    b = driver.system.catalog.relation("B")
    assert [pages for _, _, pages in shipped] == [b.fragment_on(3).pages]


def test_temporary_crash_does_not_re_replicate(record_calls):
    from repro.faults.injector import FaultRuntime

    shipped = record_calls(FaultRuntime, "_ship_pages")
    _crash_run("chained")
    assert shipped == []


# -- replica-maintenance writes (OLTP) ----------------------------------------------
def test_oltp_replica_maintenance_changes_the_run():
    def run(replication):
        # 8 PEs: ACCT spans two OLTP nodes, so each has a distinct backup
        # (at 4 PEs the single-node ACCT ring keeps no copy at all).
        config = mixed_workload_config(8)
        if replication is not None:
            config = config.with_overrides(replication=replication)
        return SimulationDriver(config).run_timed(8.0, timeline_window=2.0)

    base = run(None)
    mirrored = run("mirror")
    assert sum(w.oltp_completed for w in mirrored.timeline) > 0
    # Shipping every log write to the backup PE costs CPU + network + a
    # random write there: the run cannot be byte-identical to single-copy.
    assert mirrored.to_dict() != base.to_dict()
    assert run("mirror").to_dict() == mirrored.to_dict()  # but is deterministic


# -- planned drain ------------------------------------------------------------------
def test_drain_removes_pe_with_zero_aborts(record_calls):
    config = homogeneous_config(4)
    driver = SimulationDriver(
        config,
        faults=(FaultEvent(time=1.0, kind="pe_remove", pe=3, pages=32, drain=True),),
    )
    runtime = driver.system.faults
    shipped = record_calls(runtime, "_ship_pages")
    driver.run_timed(12.0, timeline_window=3.0)
    assert runtime.kills == 0  # nothing aborted: that is the point of drain
    # Pages still shipped out, later.
    assert [(src, pages) for src, _, pages in shipped] == [(3, 32)]
    assert runtime.eligible_processors() == (0, 1, 2)


def test_held_joins_keep_arrival_order():
    driver = SimulationDriver(
        homogeneous_config(8),
        faults=(FaultEvent(time=2.0, kind="pe_crash", pe=1, duration=10.0),),
    )
    driver.run_timed(10.0, timeline_window=5.0)  # ends mid-outage
    held = driver.system.faults._held
    assert len(held) >= 2
    txn_ids = [transaction.txn_id for transaction in held]
    assert txn_ids == sorted(txn_ids)  # arrival order, ready for release


# -- determinism: hash seeds and worker counts --------------------------------------
_HASH_SEED_SCRIPT = """\
import json
from repro.config.parameters import TopologyConfig
from repro.faults.plan import FaultEvent
from repro.experiments.scenarios import homogeneous_config
from repro.simulation.driver import SimulationDriver

config = homogeneous_config(8).with_overrides(
    replication="chained",
    topology=TopologyConfig(racks=4, cross_rack_latency_factor=2.0),
)
driver = SimulationDriver(
    config,
    faults=(
        FaultEvent(time=2.0, kind="pe_crash", pe=1, duration=3.0, surge=2.0),
        FaultEvent(time=3.0, kind="pe_remove", pe=6, pages=16, drain=True),
    ),
)
print(json.dumps(driver.run_timed(12.0, timeline_window=3.0).to_dict(), sort_keys=True))
"""


def test_failover_run_invariant_under_hash_randomisation():
    """Failover sites, surge retraction and drain polling iterate sets and
    dicts; none of that may leak interpreter hash order into outcomes."""
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


def test_replication_scenario_expands_and_is_worker_count_invariant():
    from repro.experiments.replication import build_spec
    from repro.runner import ParallelRunner

    spec = build_spec(
        system_sizes=(8,),
        strategies=("OPT-IO-CPU",),
        fault_names=("crash",),
        replication=("none", "chained"),
        max_simulated_time=20.0,
    )
    points = spec.points()
    assert [point.series for point in points] == [
        "OPT-IO-CPU none [crash1@15]",
        "OPT-IO-CPU chained [crash1@15]",
    ]
    assert points[0].replication is None  # "none" canonicalises away
    assert points[1].replication == "chained"
    serial = ParallelRunner(workers=1).run_points(points)
    parallel = ParallelRunner(workers=2).run_points(points)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
