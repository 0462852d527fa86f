"""Fig. 1 / cost-model validation: response time vs. degree of join parallelism.

Fig. 1a of the paper sketches the single-user response-time curve: it falls
with additional join processors until the startup/termination and
communication overhead outweighs the shrinking per-processor work, then rises
again.  This experiment reproduces the curve twice -- once from the analytic
cost model (used by the strategies to derive psu-opt) and once by simulating
single-user executions with a fixed degree of parallelism.
"""

from __future__ import annotations

from typing import Sequence

from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = ["build_spec", "DEGREES"]

DEGREES = (1, 2, 4, 8, 16, 24, 30, 40, 60, 80)


def build_spec(
    num_pe: int = 80,
    scan_selectivity: float = 0.01,
    degrees: Sequence[int] = DEGREES,
    simulate: bool = True,
    queries_per_point: int = 2,
) -> ScenarioSpec:
    """Declare Fig. 1a as a scenario spec (analytic curve plus simulation)."""
    common = dict(
        scenario="homogeneous",
        system_sizes=(num_pe,),
        selectivities=(scan_selectivity,),
        degrees=tuple(degrees),
        x_axis="degree",
    )
    sweeps = [Sweep(kind="analytic", series="analytic model", **common)]
    if simulate:
        sweeps.append(
            Sweep(
                kind="fixed-degree",
                series="simulation",
                num_queries=queries_per_point,
                **common,
            )
        )
    return ScenarioSpec(
        name="figure1",
        title="Fig. 1a: single-user response time vs. degree of join parallelism",
        x_label="join procs",
        sweeps=tuple(sweeps),
    )


register_scenario("figure1", build_spec)
