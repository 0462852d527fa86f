"""Fault-injection scenario: strategies under failures and stragglers.

The paper's experiments assume a fixed, healthy processor pool.  This
scenario exercises the PR 8 fault-injection subsystem
(:mod:`repro.faults`): the same homogeneous mixed workload is run clean,
through a crash-and-recover cycle, and against a straggler (one PE
temporarily degraded to a quarter of its speed), for a dynamic
load-balancing strategy (OPT-IO-CPU) against a tuned static baseline.

Named fault plans (injected at t=15 of a 60 s run):

* ``none`` -- the control: an empty plan, so the fault runtime injects
  nothing and schedules no event.
* ``crash`` -- PE 1 crashes at 15 s and recovers at 30 s.  In-flight work
  on the dead PE aborts and resubmits after recovery; the dynamic strategy
  routes around the hole while the static baseline keeps a degree tuned
  for the full pool.
* ``straggler`` -- PE 1 runs at 0.25x CPU *and* disk speed for 20 s.  The
  load-aware strategy down-weights the slow PE (its
  ``speed_factor``-scaled rank sinks); the static baseline keeps placing
  work on it.  At this homogeneous operating point the tuned static
  baseline keeps its absolute lead (cf. the PR 3 finding), but degrades
  more relative to its own clean run than OPT-IO-CPU does.

The headline table reports end-of-run means; the recovery-curve extra
table renders the per-window join response time (the divergence between
dynamic and static shows up in the windows overlapping the fault), and the
availability table shows the per-window processor availability with the
injected anomaly windows labelled.  ``--export csv|json`` writes the
availability/anomaly fields on every ``row_type="window"`` row.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult, named_entries, render_window_table
from repro.faults.plan import FailuresEntry, FaultEvent, encode_failures
from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = [
    "build_spec",
    "render_recovery_table",
    "render_availability_table",
    "STRATEGIES",
    "FAULT_PLANS",
]

#: A dynamic (load-aware) strategy against a tuned static baseline -- the
#: pair whose divergence under faults is the point of the scenario.
STRATEGIES = ("OPT-IO-CPU", "psu_opt+RANDOM")

#: Named fault plans, all targeting PE 1 at t=15 of the default 60 s run
#: (late enough for the system to reach steady state, early enough to watch
#: the recovery inside the run).
FAULT_PLANS: Tuple[Tuple[str, Optional[FailuresEntry]], ...] = (
    ("none", None),
    ("crash", encode_failures([FaultEvent(time=15.0, kind="pe_crash", pe=1, duration=15.0)])),
    (
        "straggler",
        encode_failures([FaultEvent(time=15.0, kind="degrade", pe=1, factor=0.25, duration=20.0)]),
    ),
)


def render_recovery_table(result: ExperimentResult) -> str:
    """Per-window join response time (ms), ``--`` when nothing completed.

    This is the recovery curve: read a faulted column top to bottom and the
    response-time spike of the windows overlapping the fault -- and how many
    windows it takes to drain back to the clean baseline -- is the
    strategy's recovery behaviour.  Windows in which no join completed
    render as ``--`` (their ``join_rt_mean`` is a filler 0.0: a saturated
    or halted window has no mean, not a zero mean).
    """
    return render_window_table(
        result, "join response time per window (ms)",
        lambda window: f"{window.join_rt_mean * 1e3:.1f}" if window.joins_completed else "--",
    )


def render_availability_table(result: ExperimentResult) -> str:
    """Per-window processor availability, with injected anomalies listed.

    Cells are the fraction of the expected pool alive over the window
    (1.00 on clean runs); the trailing block lists, per curve, the windows
    an injected anomaly overlapped and its ``kind:peN`` label.
    """
    return render_window_table(
        result, "processor availability per window",
        lambda window: f"{window.availability:.2f}", anomalies=True,
    )


def build_spec(
    system_sizes: Sequence[int] = (8,),
    strategies: Sequence[str] = STRATEGIES,
    fault_names: Sequence[str] = ("none", "crash", "straggler"),
    rate_per_pe: float = 0.25,
    timeline_window: float = 5.0,
    max_simulated_time: Optional[float] = None,
) -> ScenarioSpec:
    """Declare the fault-injection scenario as a spec.

    One timeline sweep: every strategy crossed with every named fault plan
    (the ``failures`` axis), on a homogeneous pool.  Timeline points run
    for ``max_simulated_time`` simulated seconds (default 60 s -- the plan
    times above are tuned to that horizon), binning metrics every
    ``timeline_window`` seconds.
    """
    duration = 60.0 if max_simulated_time is None else max_simulated_time
    sweep = Sweep(
        kind="timeline",
        scenario="homogeneous",
        strategies=tuple(strategies),
        system_sizes=tuple(system_sizes),
        rates=(rate_per_pe,),
        timeline_window=timeline_window,
        failures=named_entries(FAULT_PLANS, fault_names, "fault plan(s)"),
        series="{strategy} [{failures}]",
    )
    return ScenarioSpec(
        name="faults",
        title=(
            f"Fault injection: crash-and-recover and straggler vs clean run "
            f"({rate_per_pe:g} QPS/PE, {duration:g} s, {timeline_window:g} s windows)"
        ),
        x_label="# PE",
        sweeps=(sweep,),
        max_simulated_time=duration,
        extra_tables=(render_recovery_table, render_availability_table),
    )


register_scenario("faults", build_spec)
