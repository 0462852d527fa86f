"""Heterogeneous clusters: figure 9's strategy comparison on mixed hardware.

The paper's experiments assume identical PEs on a uniform interconnect.
This scenario generalises the Fig. 9 mixed-workload comparison to clusters
where that assumption breaks, along two axes:

* **node-class mixes** -- a fraction of the PEs is *fast* (higher MIPS and
  a larger buffer pool) while the rest keep the baseline hardware;
* **interconnect topology** -- the flat network is replaced by 2-tier
  (racks) and 3-tier (racks within regions) interconnects whose cross-tier
  hops cost extra wire latency and share lower bandwidth.

Each point runs the mixed join + OLTP workload (OLTP affinity-routed to the
B nodes, as in Fig. 9b) for a fixed horizon and records the PR 3 windowed
timeline, which on heterogeneous hardware also carries *per-node-class*
utilisation -- making visible how a load-aware strategy shifts join work
onto the fast nodes while a static one leaves them idle.

Default cast: ``OPT-IO-CPU`` (dynamic: degree and placement follow current
CPU/memory load, so joins gravitate to the fast, memory-rich PEs) against
``psu_opt+RANDOM`` (the best *static* scheme of Fig. 9 -- its tuned degree
is blind to hardware classes, and random placement keeps landing join work
on slow PEs) and ``psu_noIO+LUM``.  On the fast/slow mixes the dynamic
strategy's response times beat the tuned static baseline by a clear margin;
on the uniform points the two sit close together, as in the paper.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult, named_entries
from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = [
    "build_spec",
    "render_class_util_table",
    "STRATEGIES",
    "NODE_MIXES",
    "TOPOLOGIES",
]

#: The best dynamic strategy of the paper against the best static one and a
#: memory-aware static placement (see the module docstring).
STRATEGIES = ("OPT-IO-CPU", "psu_opt+RANDOM", "psu_noIO+LUM")

#: Named node-class mixes (encoded for :class:`~repro.runner.Sweep`
#: ``node_classes`` axis entries).  ``None`` keeps the uniform hardware.
NODE_MIXES: Tuple[Tuple[str, Optional[tuple]], ...] = (
    ("uniform", None),
    (
        "fast-half",
        (
            (
                ("name", "fast"),
                ("fraction", 0.5),
                ("mips_factor", 2.0),
                ("memory_factor", 2.0),
            ),
        ),
    ),
    (
        "fast-quarter",
        (
            (
                ("name", "fast"),
                ("fraction", 0.25),
                ("mips_factor", 2.0),
                ("memory_factor", 2.0),
            ),
        ),
    ),
)

#: Named interconnect topologies (encoded ``topologies`` axis entries):
#: 1 tier (flat), 2 tiers (4 racks) and 3 tiers (4 racks in 2 regions).
TOPOLOGIES: Tuple[Tuple[str, Optional[tuple]], ...] = (
    ("flat", None),
    (
        "racks",
        (
            ("racks", 4),
            ("cross_rack_latency_factor", 8.0),
            ("cross_rack_bandwidth_factor", 2.0),
        ),
    ),
    (
        "regions",
        (
            ("racks", 4),
            ("regions", 2),
            ("cross_rack_latency_factor", 8.0),
            ("cross_rack_bandwidth_factor", 2.0),
            ("cross_region_latency_factor", 25.0),
            ("cross_region_bandwidth_factor", 4.0),
        ),
    ),
)


def render_class_util_table(result: ExperimentResult) -> str:
    """Render per-node-class CPU utilisation, averaged over the run.

    One row per curve carrying per-class timeline data (uniform points have
    none and are skipped); one column per node class seen anywhere in the
    result.  Cells are the run-mean CPU utilisation of that class's PEs --
    the at-a-glance view of whether a strategy actually *uses* the fast
    nodes.
    """
    rows: Dict[str, Dict[str, float]] = {}
    class_names: list = []
    multiple_x = len(result.x_values()) > 1
    for series in result.series_names():
        for point in result.series(series):
            timeline = point.result.timeline
            if timeline is None:
                continue
            sums: Dict[str, float] = {}
            counts: Dict[str, int] = {}
            for window in timeline:
                for name, cpu, _disk, _mem in getattr(window, "class_util", ()):
                    sums[name] = sums.get(name, 0.0) + cpu
                    counts[name] = counts.get(name, 0) + 1
            if not sums:
                continue
            label = f"{series} (x={point.x:g})" if multiple_x else series
            if label in rows:
                continue  # first replicate wins (aggregated results have one)
            rows[label] = {name: sums[name] / counts[name] for name in sums}
            for name in sums:
                if name not in class_names:
                    class_names.append(name)
    if not rows:
        return "(no per-class utilisation data: all points uniform)"
    label_width = max(len(label) for label in rows)
    width = max([10] + [len(name) + 2 for name in class_names])
    header = f"{'':<{label_width}} | " + " | ".join(
        f"{name:>{width}}" for name in class_names
    )
    lines = [f"{result.title} -- mean CPU utilisation per node class", header,
             "-" * len(header)]
    for label, cells in rows.items():
        rendered = " | ".join(
            f"{cells[name]:>{width}.3f}" if name in cells else " " * width
            for name in class_names
        )
        lines.append(f"{label:<{label_width}} | {rendered}")
    return "\n".join(lines)


def build_spec(
    system_sizes: Sequence[int] = (20,),
    strategies: Sequence[str] = STRATEGIES,
    node_mixes: Sequence[str] = ("uniform", "fast-half", "fast-quarter"),
    topology_tiers: Sequence[str] = ("flat", "racks", "regions"),
    oltp_placement: str = "B",
    rate_per_pe: Optional[float] = None,
    timeline_window: float = 10.0,
    max_simulated_time: Optional[float] = None,
) -> ScenarioSpec:
    """Declare the heterogeneous scenario as a spec.

    Two sweeps share the strategy cast: the first varies the node-class mix
    on a flat network, the second fixes the ``fast-half`` mix and varies the
    interconnect topology (skipped when ``topology_tiers`` is ``("flat",)``).
    Timeline points run for ``max_simulated_time`` simulated seconds
    (default 60 s), binning metrics every ``timeline_window`` seconds.
    """
    duration = 60.0 if max_simulated_time is None else max_simulated_time
    placement = oltp_placement.upper()
    common = dict(
        kind="timeline",
        scenario="mixed",
        strategies=tuple(strategies),
        system_sizes=tuple(system_sizes),
        rates=(rate_per_pe,),
        oltp_placements=(placement,),
        timeline_window=timeline_window,
    )
    sweeps = [
        Sweep(
            node_classes=named_entries(NODE_MIXES, node_mixes, "node mix(es)"),
            series="{strategy} [{nodes}]",
            **common,
        )
    ]
    tiered = [name for name in topology_tiers if name != "flat"]
    if tiered:
        sweeps.append(
            Sweep(
                node_classes=named_entries(NODE_MIXES, ("fast-half",), "node mix(es)"),
                topologies=named_entries(TOPOLOGIES, tiered, "topology tier(s)"),
                series="{strategy} [{nodes},{topology}]",
                **common,
            )
        )
    return ScenarioSpec(
        name="heterogeneous",
        title=(
            f"Heterogeneous cluster: mixed workload (OLTP on {placement} nodes), "
            f"fast/slow PE mixes and tiered interconnects ({duration:g} s)"
        ),
        x_label="# PE",
        sweeps=tuple(sweeps),
        max_simulated_time=duration,
        extra_tables=(render_class_util_table,),
    )


register_scenario("heterogeneous", build_spec)
