"""Replication & failover scenario: availability versus throughput.

PR 8 showed that in the paper's single-copy Shared Nothing system a PE
crash is a *total-loss* event: every declustered join is held until the
crashed PE recovers.  This scenario exercises the PR 10 replication
subsystem (:mod:`repro.database.allocation`): the same homogeneous join
workload runs across the replica-placement axis (``none`` / ``mirror`` /
``chained``) and a set of failure plans on a racked topology, for a
dynamic load-balancing strategy (OPT-IO-CPU) against a tuned static
baseline.

Named fault plans (injected at t=15 of the default 60 s run):

* ``clean`` -- no fault plan at all; the replication policies differ only
  by their replica-maintenance overhead (none here: the join workload is
  read-only).
* ``crash`` -- PE 1 crashes at 15 s and recovers at 30 s.  Under ``none``
  every join is held for the outage (PE 1 holds a fragment of relation A);
  under ``chained`` reads fail over and spread across the decluster ring,
  so joins keep completing and ``effective_availability`` stays at 1.0;
  ``mirror`` also survives but doubles the partner's load.
* ``rack`` -- every PE of topology rack 1 crashes at 15 s (correlated
  failure).  Chained declustering places each backup on the *next* ring
  PE, which usually shares the rack -- so a whole-rack loss takes adjacent
  primary+backup pairs down together and even ``chained`` loses data
  reachability: the availability-vs-correlation finding.
* ``crash+surge`` -- the single-PE crash coupled with a 3x arrival surge
  while the PE is down (cascading overload): survivors absorb both the
  failed-over reads and the extra arrivals.

The headline table reports end-of-run means; the recovery-curve extra
table renders the per-window join response time, and the effective-
availability table shows the fraction of *data* reachable per window --
the field that separates graceful degradation (``chained``: 1.00 through
a single crash) from outage (``none``: < 1 with zero completions).
``--export csv|json`` writes ``effective_availability`` on every
``row_type="window"`` row.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult, named_entries, render_window_table
from repro.experiments.faults import render_recovery_table
from repro.faults.plan import FailuresEntry, FaultEvent, encode_failures
from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = [
    "build_spec",
    "render_effective_availability_table",
    "STRATEGIES",
    "FAULT_PLANS",
    "REPLICATION_AXIS",
    "TOPOLOGY",
]

#: A dynamic (load-aware) strategy against a tuned static baseline.
STRATEGIES = ("OPT-IO-CPU", "psu_opt+RANDOM")

#: Replica-placement axis: the single-copy baseline against both policies.
REPLICATION_AXIS = ("none", "mirror", "chained")

#: Racked topology shared by every point: 4 racks with a 2x cross-rack
#: latency factor, so rack-scoped crashes are meaningful and failover
#: traffic pays for leaving the rack.
TOPOLOGY = (("racks", 4), ("cross_rack_latency_factor", 2.0))

#: Named fault plans (all at t=15 of the default 60 s horizon).
FAULT_PLANS: Tuple[Tuple[str, Optional[FailuresEntry]], ...] = (
    ("clean", None),
    ("crash", encode_failures([FaultEvent(time=15.0, kind="pe_crash", pe=1, duration=15.0)])),
    ("rack", encode_failures([FaultEvent(time=15.0, kind="pe_crash", rack=1, duration=15.0)])),
    (
        "crash+surge",
        encode_failures(
            [FaultEvent(time=15.0, kind="pe_crash", pe=1, duration=15.0, surge=3.0)]
        ),
    ),
)


def render_effective_availability_table(result: ExperimentResult) -> str:
    """Per-window effective (data) availability, with anomalies listed.

    Cells are the tuple-weighted fraction of the database with at least one
    alive copy over the window: 1.00 on clean runs *and* on replicated runs
    that keep every fragment reachable through a failure; below 1.0 when
    data became unreachable (every copy dead).
    """
    return render_window_table(
        result, "effective (data) availability per window",
        lambda window: f"{window.effective_availability:.2f}", anomalies=True,
    )


def build_spec(
    system_sizes: Sequence[int] = (8, 16),
    strategies: Sequence[str] = STRATEGIES,
    fault_names: Sequence[str] = ("clean", "crash", "rack", "crash+surge"),
    replication: Sequence[str] = REPLICATION_AXIS,
    rate_per_pe: float = 0.25,
    timeline_window: float = 5.0,
    max_simulated_time: Optional[float] = None,
) -> ScenarioSpec:
    """Declare the replication & failover scenario as a spec.

    One timeline sweep: every strategy crossed with the replica-placement
    axis and every named fault plan, on a racked homogeneous pool.
    Timeline points run for ``max_simulated_time`` simulated seconds
    (default 60 s -- the plan times above are tuned to that horizon),
    binning metrics every ``timeline_window`` seconds.
    """
    duration = 60.0 if max_simulated_time is None else max_simulated_time
    sweep = Sweep(
        kind="timeline",
        scenario="homogeneous",
        strategies=tuple(strategies),
        system_sizes=tuple(system_sizes),
        rates=(rate_per_pe,),
        timeline_window=timeline_window,
        topologies=(TOPOLOGY,),
        failures=named_entries(FAULT_PLANS, fault_names, "fault plan(s)"),
        replication=tuple(replication),
        series="{strategy} {replication} [{failures}]",
    )
    return ScenarioSpec(
        name="replication",
        title=(
            f"Replication & failover: none/mirror/chained under crash, rack crash "
            f"and crash+surge ({rate_per_pe:g} QPS/PE, {duration:g} s, "
            f"{timeline_window:g} s windows)"
        ),
        x_label="# PE",
        sweeps=(sweep,),
        max_simulated_time=duration,
        extra_tables=(render_recovery_table, render_effective_availability_table),
    )


register_scenario("replication", build_spec)
