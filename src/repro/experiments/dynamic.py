"""Dynamic-workload scenarios: strategies under time-varying load.

The paper's figures drive every configuration with *stationary* Poisson
arrivals, so the adaptivity of the dynamic strategies is never actually
exercised.  These scenarios do what the paper's motivation calls for: they
run a load surge (``dynamic``) or a bursty on/off stream (``dynamic-mmpp``)
against a dynamic, load-aware strategy (OPT-IO-CPU) and two static
baselines, and record a *windowed timeline* per run -- the time-resolved
response times and per-PE load imbalance that show the dynamic strategy
re-balancing where a static one saturates.

Default strategy cast (20 PE, 0.25 QPS/PE mean, 2x surge for the middle
third of a 60 s run):

* ``OPT-IO-CPU`` -- dynamic: degree and placement react to current CPU/
  memory load.  Absorbs the surge (window response times stay a factor of
  several below the naive static baseline) and drains its backlog after it.
* ``psu_opt+RANDOM`` -- static but *well-tuned*: the single-user-optimal
  degree happens to sit close to the multi-user optimum for this workload,
  so it rides out the surge too (an honest reproduction finding worth
  keeping in the picture).
* ``psu_noIO+RANDOM`` -- static and naive (ignores I/O in its degree
  choice): already loaded before the surge, it saturates outright during
  the surge window and never recovers within the run.

The headline table still reports the end-of-run mean response time per
strategy; the registered extra table renders the per-window time series, and
``--export csv|json`` writes one row per window (``row_type="window"``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult, render_window_table
from repro.runner import ScenarioSpec, Sweep, register_scenario

__all__ = [
    "build_spec",
    "render_timeline_table",
    "STRATEGIES",
    "SURGE_PARAMS",
    "BURST_PARAMS",
]

#: A dynamic (load-aware) strategy against a tuned and a naive static
#: baseline (see the module docstring).
STRATEGIES = ("OPT-IO-CPU", "psu_opt+RANDOM", "psu_noIO+RANDOM")

#: Default load surge: rate doubles during the middle third of a 60 s run
#: (2x keeps the surge inside what the dynamic strategy can absorb at the
#: default 0.25 QPS/PE; larger factors over-saturate every strategy).
SURGE_PARAMS = (("surge_factor", 2.0), ("surge_start", 20.0), ("surge_end", 40.0))

#: Default bursty stream: 4x bursts, 25 % duty cycle, 20 s mean cycle.
BURST_PARAMS = (("burst_factor", 4.0), ("on_fraction", 0.25), ("cycle", 20.0))


def render_timeline_table(
    result: ExperimentResult,
    metric: str = "join_rt_mean",
    scale: float = 1e3,
    unit: str = "ms",
) -> str:
    """Render the per-window time series of every (series, x) as a table.

    One row per window (labelled by its ``[start, end)`` interval), one
    column per curve; cells are ``metric`` scaled by ``scale``.  Works on
    plain and aggregated results (aggregated cells are window-wise replicate
    means).
    """
    return render_window_table(
        result, f"{metric} per window ({unit})",
        lambda window: f"{getattr(window, metric) * scale:.1f}",
    )


def build_spec(
    system_sizes: Sequence[int] = (20,),
    strategies: Sequence[str] = STRATEGIES,
    arrival: str = "step",
    arrival_params: Sequence[Tuple[str, float]] = SURGE_PARAMS,
    rate_per_pe: float = 0.25,
    timeline_window: float = 2.0,
    max_simulated_time: Optional[float] = None,
    name: str = "dynamic",
    title: Optional[str] = None,
) -> ScenarioSpec:
    """Declare a dynamic-workload scenario as a spec.

    Timeline points run for exactly ``max_simulated_time`` simulated seconds
    (default 60 s -- the surge/burst parameters above are tuned to that
    horizon), binning metrics every ``timeline_window`` seconds.
    """
    duration = 60.0 if max_simulated_time is None else max_simulated_time
    sweep = Sweep(
        kind="timeline",
        scenario="homogeneous",
        strategies=tuple(strategies),
        system_sizes=tuple(system_sizes),
        rates=(rate_per_pe,),
        arrivals=(arrival,),
        arrival_params=tuple((str(k), float(v)) for k, v in arrival_params),
        timeline_window=timeline_window,
        series="{strategy}",
    )
    if title is None:
        pretty = {"step": "load surge", "mmpp": "bursty on/off load", "sine": "sinusoidal load",
                  "trace": "trace replay", "poisson": "stationary load"}.get(arrival, arrival)
        title = (
            f"Dynamic workload ({pretty}, {rate_per_pe:g} QPS/PE mean, "
            f"{duration:g} s, {timeline_window:g} s windows)"
        )
    return ScenarioSpec(
        name=name,
        title=title,
        x_label="# PE",
        sweeps=(sweep,),
        max_simulated_time=duration,
        extra_tables=(render_timeline_table,),
    )


def build_mmpp_spec(**kwargs) -> ScenarioSpec:
    """The bursty variant of the dynamic scenario (2-state MMPP arrivals)."""
    kwargs.setdefault("arrival", "mmpp")
    kwargs.setdefault("arrival_params", BURST_PARAMS)
    kwargs.setdefault("name", "dynamic-mmpp")
    return build_spec(**kwargs)


register_scenario("dynamic", build_spec)
register_scenario("dynamic-mmpp", build_mmpp_spec)
