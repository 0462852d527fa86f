"""Byte-for-byte pin of every per-window table renderer.

The synthetic fixture covers what the renderers must keep: curve labels
wider than the 12-character width floor, one and two x values (``(x=...)``
labels), two replicates and their aggregate, anomaly windows, windows
without completions (``--``), curves of unequal length (blank cells), a
point without a timeline, replicates whose window grids differ (no
aggregate timeline) and an empty result.

``tests/data/window_tables.txt`` holds the expected text.  Rewrite it with
``PYTHONPATH=src python tests/test_window_tables.py`` only for a deliberate
format change.
"""

import pathlib
from functools import partial

from repro.experiments.base import ExperimentPoint, ExperimentResult
from repro.experiments.dynamic import render_timeline_table
from repro.experiments.faults import render_availability_table, render_recovery_table
from repro.experiments.replication import render_effective_availability_table
from repro.metrics import Timeline, TimelineWindow
from repro.simulation.results import SimulationResult

EXPECTED = pathlib.Path(__file__).parent / "data" / "window_tables.txt"

RENDERERS = (
    ("render_timeline_table", render_timeline_table),
    (
        "render_timeline_table(metric='cpu_util', scale=100.0, unit='%')",
        partial(render_timeline_table, metric="cpu_util", scale=100.0, unit="%"),
    ),
    ("render_recovery_table", render_recovery_table),
    ("render_availability_table", render_availability_table),
    ("render_effective_availability_table", render_effective_availability_table),
)


def _timeline(windows, seed, anomalies=(), idle=()):
    """``windows`` 2.5 s windows; ``anomalies`` maps window index -> label."""
    anomalies = dict(anomalies)
    rows = []
    for index in range(windows):
        completed = 0 if index in idle else 2 + index
        rows.append(TimelineWindow(
            start=2.5 * index,
            end=2.5 * (index + 1),
            joins_completed=completed,
            join_rt_mean=(0.125 * seed + 0.0375 * index) if completed else 0.0,
            cpu_util=0.0625 * seed + 0.05 * index,
            availability=0.875 if index in anomalies else 1.0,
            effective_availability=0.5 + 0.0625 * seed if index in anomalies else 1.0,
            anomaly=anomalies.get(index, ""),
        ))
    return Timeline(window=2.5, windows=rows)


def _result(strategy, timeline):
    return SimulationResult(
        strategy=strategy, num_pe=8, mode="timed", simulated_seconds=10.0,
        joins_completed=4, join_response_time=0.5, join_response_time_p95=0.75,
        join_response_time_ci=0.0, average_degree=2.0, average_overflow_pages=0.0,
        average_memory_wait=0.0, cpu_utilization=0.5, disk_utilization=0.25,
        memory_utilization=0.125, timeline=timeline,
    )


def _experiment(x_values):
    """Three curves with timelines, one without, two replicates each."""
    experiment = ExperimentResult(figure="pin", title="Window pin", x_label="# PE")
    curves = (
        # Both replicates see the crash: the aggregate keeps its label.
        ("OPT-IO-CPU [crash]", lambda x, rep: _timeline(
            4, 1 + rep + x / 8, anomalies={1: "pe_crash:pe1", 2: "pe_crash:pe1"}, idle=(2,))),
        # Only replicate 0 sees the straggler, so the aggregate drops it;
        # three windows where the first curve has four leave blank cells.
        ("psu_opt+RANDOM [slow]", lambda x, rep: _timeline(
            3, 2 + 2 * rep + x / 16, anomalies={0: "degrade:pe1"} if rep == 0 else {},
            idle=(1,) if rep else ())),
        # No timeline at the first x value.
        ("S", lambda x, rep: None if x == 8 else _timeline(2, 3 + rep)),
        # Replicate grids differ: the aggregate of this curve has no timeline.
        ("R", lambda x, rep: _timeline(2 + rep, 4 + x / 8)),
    )
    for x in x_values:
        for series, timeline in curves:
            for rep in (0, 1):
                experiment.add(ExperimentPoint(
                    figure="pin", series=series, x=float(x),
                    result=_result(series, timeline(x, rep)), replicate=rep,
                ))
    return experiment


def render_all() -> str:
    cases = []
    for x_values in ((8,), (8, 16)):
        experiment = _experiment(x_values)
        cases.append((f"x={x_values} replicates", experiment))
        cases.append((f"x={x_values} aggregate", experiment.aggregate()))
    cases.append(("empty", ExperimentResult(figure="pin", title="Empty", x_label="# PE")))
    blocks = []
    for case, result in cases:
        for name, render in RENDERERS:
            blocks.append(f"## {case} :: {name}\n{render(result)}\n")
    return "\n".join(blocks)


def test_window_tables_match_pinned_text():
    assert render_all() == EXPECTED.read_text()


def test_header_separators_line_up_with_row_separators():
    experiment = _experiment((8, 16))
    for result in (experiment, experiment.aggregate()):
        for _, render in RENDERERS:
            header, rule, *rows = render(result).splitlines()[1:]
            columns = [i for i, char in enumerate(header) if char == "|"]
            assert len(rule) == len(header)
            for row in rows:
                if not row.startswith("["):
                    break  # the anomaly block follows the table
                assert [i for i, char in enumerate(row) if char == "|"] == columns


if __name__ == "__main__":
    EXPECTED.write_text(render_all())
    print(f"wrote {EXPECTED}")
