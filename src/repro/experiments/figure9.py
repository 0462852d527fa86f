"""Fig. 9: static vs. dynamic load balancing for mixed query/OLTP workloads.

Heterogeneous workload of §5.3: debit-credit OLTP transactions (100 TPS per
OLTP node, affinity-routed) run either on the A nodes (Fig. 9a, 20 % of the
PEs) or on the B nodes (Fig. 9b, 80 % of the PEs) concurrently with join
queries arriving at 0.075 QPS per PE; every PE has 5 disks.  The join
response time is reported for two static schemes, one semi-static scheme and
the two best dynamic schemes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.base import PAPER_SYSTEM_SIZES
from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = ["build_spec", "STRATEGIES"]

STRATEGIES = (
    "psu_opt+RANDOM",
    "psu_noIO+RANDOM",
    "psu_noIO+LUM",
    "pmu_cpu+LUM",
    "OPT-IO-CPU",
)


def build_spec(
    oltp_placement: str = "A",
    system_sizes: Sequence[int] = PAPER_SYSTEM_SIZES,
    strategies: Sequence[str] = STRATEGIES,
    measured_joins: Optional[int] = None,
    max_simulated_time: Optional[float] = None,
) -> ScenarioSpec:
    """Declare Fig. 9a (``oltp_placement="A"``) or Fig. 9b (``"B"``) as a spec."""
    placement = oltp_placement.upper()
    panel = "a" if placement == "A" else "b"
    return ScenarioSpec(
        name=f"figure9{panel}",
        title=(
            f"Fig. 9{panel}: mixed workload, OLTP on {placement} nodes "
            "(100 TPS/node, joins 0.075 QPS/PE, 5 disks/PE)"
        ),
        x_label="# PE",
        sweeps=(
            Sweep(
                kind="multi",
                scenario="mixed",
                strategies=tuple(strategies),
                system_sizes=tuple(system_sizes),
                oltp_placements=(placement,),
            ),
        ),
        measured_joins=measured_joins,
        max_simulated_time=max_simulated_time,
    )


register_scenario("figure9a", lambda **kwargs: build_spec(oltp_placement="A", **kwargs))
register_scenario("figure9b", lambda **kwargs: build_spec(oltp_placement="B", **kwargs))
