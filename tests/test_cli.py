"""Tests for the command-line interface."""

import csv
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.service import Coordinator


def test_list_strategies(capsys):
    assert main(["list-strategies"]) == 0
    output = capsys.readouterr().out
    assert "OPT-IO-CPU" in output
    assert "pmu_cpu+LUM" in output


def test_parameters_table(capsys):
    assert main(["parameters"]) == 0
    output = capsys.readouterr().out
    assert "20 MIPS" in output


def test_simulate_single_user(capsys):
    code = main([
        "simulate", "--pe", "10", "--strategy", "psu_opt+RANDOM",
        "--joins", "10", "--single-user",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "single-user" in output
    assert "join_rt_ms" in output


def test_simulate_multi_user_with_oltp(capsys):
    code = main([
        "simulate", "--pe", "10", "--strategy", "OPT-IO-CPU",
        "--joins", "5", "--oltp", "A", "--time-limit", "30",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "OLTP" in output
    assert "multi-user" in output


def test_experiment_figure1(capsys):
    code = main(["experiment", "figure1", "--joins", "10", "--sizes", "1", "8"])
    assert code == 0
    output = capsys.readouterr().out
    assert "Fig. 1a" in output


def test_experiment_figure6_tiny(capsys):
    code = main(["experiment", "figure6", "--joins", "5", "--sizes", "10", "--time-limit", "30"])
    assert code == 0
    output = capsys.readouterr().out
    assert "Fig. 6" in output
    assert "OPT-IO-CPU" in output


def test_experiment_workers_flag_parallel_run(capsys):
    code = main([
        "experiment", "figure6", "--joins", "5", "--sizes", "10",
        "--time-limit", "20", "--workers", "2", "--no-cache",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "Fig. 6" in output
    assert "OPT-IO-CPU" in output


def test_experiment_uses_result_cache(tmp_path, capsys):
    argv = [
        "experiment", "figure6", "--joins", "5", "--sizes", "10",
        "--time-limit", "20", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert "0 hit(s)" in first.err
    assert main(argv) == 0
    second = capsys.readouterr()
    assert "0 miss(es)" in second.err
    assert first.out == second.out


def test_sweep_adhoc_scenario_and_cache(tmp_path, capsys):
    argv = [
        "sweep", "--strategies", "OPT-IO-CPU", "psu_opt+RANDOM",
        "--sizes", "10", "20", "--rates", "0.2", "0.3",
        "--joins", "5", "--time-limit", "20", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "Ad-hoc sweep" in captured.out
    assert "OPT-IO-CPU @0.2 QPS/PE" in captured.out
    assert "0 hit(s)" in captured.err
    # A repeated run is served entirely from the result cache.
    assert main(argv) == 0
    repeated = capsys.readouterr()
    assert "8 hit(s), 0 miss(es)" in repeated.err
    assert repeated.out == captured.out


def test_sweep_config_override_and_selectivity_axis(capsys):
    code = main([
        "sweep", "--strategies", "OPT-IO-CPU", "--sizes", "10",
        "--selectivities", "0.005", "0.01", "--joins", "5",
        "--time-limit", "20", "--set", "buffer.buffer_pages=25", "--no-cache",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "selectivity %" in output
    assert "0.5" in output  # 0.005 -> 0.5 %


def test_experiment_replicates_and_csv_export(tmp_path, capsys):
    out = tmp_path / "fig6.csv"
    code = main([
        "experiment", "figure6", "--joins", "5", "--sizes", "10",
        "--time-limit", "20", "--replicates", "2", "--workers", "2",
        "--no-cache", "--export", "csv", "--output", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "mean ± 95% CI" in captured.out
    assert "[export] wrote" in captured.err
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    replicate_rows = [r for r in rows if r["row_type"] == "replicate"]
    aggregate_rows = [r for r in rows if r["row_type"] == "aggregate"]
    # 5 multi-user strategies + the single-user baseline = 6 series.
    assert len(replicate_rows) == 12
    assert len(aggregate_rows) == 6
    assert {r["replicate"] for r in replicate_rows} == {"0", "1"}
    assert all(r["n"] == "2" for r in aggregate_rows)


def test_export_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "experiment", "figure1", "--joins", "10", "--sizes", "1", "8",
        "--export", "json", "--no-cache",
    ])
    assert code == 0
    rows = json.loads((tmp_path / "figure1.json").read_text())
    assert rows and all(row["row_type"] == "replicate" for row in rows)
    assert {row["series"] for row in rows} == {"analytic model", "simulation"}


def test_sweep_replicates_render_ci(capsys):
    code = main([
        "sweep", "--strategies", "OPT-IO-CPU", "--sizes", "10",
        "--joins", "5", "--time-limit", "20", "--replicates", "2", "--no-cache",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "±" in output


def test_parser_rejects_non_positive_replicates():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "figure6", "--replicates", "0"])


def test_output_without_export_is_rejected():
    with pytest.raises(SystemExit, match="--output requires --export"):
        main(["experiment", "figure6", "--joins", "5", "--sizes", "10",
              "--output", "results.csv", "--no-cache"])


def test_parser_rejects_unknown_figure(capsys):
    # The registry is read when a scenario argument is parsed, not when the
    # parser is built; the error still names the token and the choices.
    parser = build_parser()
    for argv in (["experiment", "figure42"], ["dispatch", "figure42", "--url", "U"],
                 ["profile", "figure42"]):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice: 'figure42'" in error
        assert "figure5" in error.split("choose from", 1)[1]
    for argv in (["--help"], ["serve", "--help"]):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 0
        assert "usage: repro-lb" in capsys.readouterr().out


def test_parser_rejects_bad_override():
    with pytest.raises(SystemExit):
        main(["sweep", "--strategies", "OPT-IO-CPU", "--sizes", "10",
              "--set", "buffer.buffer_pages", "--no-cache"])


@pytest.mark.parametrize("argv, flag", [
    (["experiment", "dynamic", "--joins", "5"], "--joins"),
    (["experiment", "figure8", "--sizes", "20"], "--sizes"),
    (["experiment", "figure1", "--time-limit", "5"], "--time-limit"),
    (["dispatch", "faults", "--joins", "5", "--url", "http://127.0.0.1:9"], "--joins"),
])
def test_option_the_scenario_does_not_take_is_rejected(argv, flag):
    scenario = argv[1]
    with pytest.raises(SystemExit, match=f"scenario '{scenario}' does not take {flag}"):
        main(argv)


@pytest.mark.parametrize("path", ["join_query.access_method", "relation_a.index_type"])
def test_set_on_a_field_the_config_lacks_is_rejected(path):
    field = path.rpartition(".")[2]
    message = f"config has no field '{field}' (override path '{path}')"
    with pytest.raises(SystemExit, match=re.escape(message)):
        main(["sweep", "--sizes", "4", "--set", f"{path}=1"])


@pytest.mark.parametrize("argv, value", [
    (["experiment", "figure5", "--sizes", "4", "--joins", "0"], "measured_joins=0"),
    (["experiment", "figure5", "--sizes", "4", "--time-limit", "-1"], "max_simulated_time=-1.0"),
    (["experiment", "figure5", "--sizes", "0"], "system sizes must be >= 1, got 0"),
    (["experiment", "figure1", "--sizes", "0"], "degrees must be >= 1, got 0"),
    (["sweep", "--sizes", "4", "--joins", "-3"], "measured_joins=-3"),
    (["sweep", "--sizes", "4", "--time-limit", "-5"], "max_simulated_time=-5.0"),
    (["sweep", "--sizes", "4", "--rates", "-1"], "rates must be positive and finite, got -1.0"),
    (["sweep", "--sizes", "4", "--rates", "inf"], "rates must be positive and finite, got inf"),
    (["sweep", "--sizes", "4", "--time-limit", "inf"], "max_simulated_time=inf"),
    (["sweep", "--sizes", "4", "--arrival", "step", "--timeline-window", "nan"],
     "timeline_window must be positive, got nan"),
    (["sweep", "--sizes", "4", "--arrival", "step", "--arrival-param", "surge_factor=nan"],
     "--arrival-param value 'nan'"),
    (["sweep", "--sizes", "0"], "system sizes must be >= 1, got 0"),
    (["sweep", "--sizes", "4", "--selectivities", "1.5"],
     "selectivities must lie in [0, 1], got 1.5"),
    (["experiment", "figure1", "--sizes", "100", "--joins", "10"],
     "degree 100 exceeds every system size [80]"),
    (["experiment", "figure1", "--sizes", "60", "100", "--joins", "10"],
     "degree 100 exceeds every system size [80]"),
])
def test_bad_run_limit_or_axis_fails_before_any_point_runs(argv, value, record_calls):
    from repro.runner import ParallelRunner

    runs = record_calls(ParallelRunner, "run")
    with pytest.raises(SystemExit, match=re.escape(value)) as excinfo:
        main([*argv, "--no-cache"])
    assert isinstance(excinfo.value.code, str)  # a message: exit status 1
    assert runs == []


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# -- dynamic workloads / timeline sweeps ------------------------------------------
def test_sweep_arrival_renders_timeline_table(capsys):
    code = main([
        "sweep", "--arrival", "step", "--arrival-param", "surge_factor=2",
        "--arrival-param", "surge_start=4", "--arrival-param", "surge_end=8",
        "--strategies", "OPT-IO-CPU", "--sizes", "4",
        "--time-limit", "10", "--timeline-window", "2", "--no-cache",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "[step]" in output
    assert "per window" in output
    assert "[   0.0,   2.0)" in output


def test_sweep_arrival_exports_window_rows(tmp_path, capsys):
    out = tmp_path / "dyn.csv"
    # Bursty profile with a non-zero off rate and short cycle, so the run
    # actually completes joins inside 8 s (zero-arrival output would make
    # the row checks below vacuous).
    code = main([
        "sweep", "--arrival", "mmpp", "--arrival-param", "burst_factor=1.5",
        "--arrival-param", "on_fraction=0.5", "--arrival-param", "cycle=4",
        "--strategies", "OPT-IO-CPU", "--rates", "0.5",
        "--sizes", "8", "--time-limit", "8", "--timeline-window", "2",
        "--no-cache", "--export", "csv", "--output", str(out),
    ])
    assert code == 0
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    window_rows = [r for r in rows if r["row_type"] == "window"]
    assert len(window_rows) == 4
    assert all(r["t_end"] for r in window_rows)
    assert [r["window_index"] for r in window_rows] == ["0", "1", "2", "3"]
    assert sum(float(r["joins_completed"]) for r in window_rows) > 0


def test_experiment_dynamic_tiny(capsys):
    code = main([
        "experiment", "dynamic", "--sizes", "4", "--time-limit", "10",
        "--no-cache", "--workers", "2",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "Dynamic workload" in output
    assert "join_rt_mean per window" in output
    assert "psu_noIO+RANDOM" in output


def test_sweep_perturb_replicates(capsys):
    code = main([
        "sweep", "--strategies", "OPT-IO-CPU", "--sizes", "4",
        "--rates", "0.25", "--joins", "5", "--time-limit", "10",
        "--replicates", "2", "--perturb", "arrival_rate=0.1", "--no-cache",
    ])
    assert code == 0
    assert "mean ± 95% CI" in capsys.readouterr().out


def test_sweep_perturb_without_rates_is_rejected():
    with pytest.raises(SystemExit, match="invalid sweep"):
        main([
            "sweep", "--strategies", "OPT-IO-CPU", "--sizes", "4",
            "--replicates", "2", "--perturb", "arrival_rate=0.1", "--no-cache",
        ])


def test_sweep_bad_arrival_param_is_rejected():
    with pytest.raises(SystemExit, match="expected a number"):
        main([
            "sweep", "--arrival", "step", "--arrival-param", "surge_factor=big",
            "--sizes", "4", "--no-cache",
        ])


def test_parser_rejects_unknown_arrival():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--arrival", "weibull"])


def test_sweep_unknown_arrival_param_is_rejected_eagerly():
    with pytest.raises(SystemExit, match="invalid --arrival-param"):
        main([
            "sweep", "--arrival", "step", "--arrival-param", "surge=3",
            "--sizes", "4", "--no-cache",
        ])


def test_sweep_arrival_param_requires_arrival():
    with pytest.raises(SystemExit, match="invalid sweep: arrival_params"):
        main([
            "sweep", "--arrival-param", "surge_factor=3", "--sizes", "4", "--no-cache",
        ])


def test_sweep_trace_rejects_non_file_arrival_params():
    with pytest.raises(SystemExit, match="only the file=PATH parameter"):
        main([
            "sweep", "--arrival", "trace", "--arrival-param", "surge_factor=3",
            "--sizes", "4", "--no-cache",
        ])


def test_sweep_trace_rejects_missing_file_eagerly(tmp_path):
    with pytest.raises(SystemExit, match="invalid --arrival-param file"):
        main([
            "sweep", "--arrival", "trace",
            "--arrival-param", f"file={tmp_path / 'missing.csv'}",
            "--sizes", "4", "--no-cache",
        ])


def test_sweep_non_positive_timeline_duration_is_rejected():
    with pytest.raises(SystemExit, match="positive run duration"):
        main([
            "sweep", "--arrival", "step", "--strategies", "OPT-IO-CPU",
            "--sizes", "4", "--time-limit", "0", "--no-cache",
        ])


# -- distributed sweeps (dispatch / worker / status) ------------------------------
DISTRIBUTED_ARGS = ["figure5", "--sizes", "10", "--joins", "5", "--time-limit", "20"]


@pytest.fixture
def url():
    """The URL of a fresh in-process coordinator."""
    coordinator = Coordinator()
    yield coordinator.start()
    coordinator.stop()


def test_dispatch_worker_status_drain(url, capsys):
    assert main(["dispatch", *DISTRIBUTED_ARGS, "--url", url]) == 0
    out = capsys.readouterr().out
    assert "7 task(s) enqueued" in out  # 6 strategies + single-user baseline
    assert main(["worker", "--url", url, "--max-tasks", "7"]) == 0
    assert "7 executed" in capsys.readouterr().out
    assert main(["status", "--url", url, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["all_done"] and status["total"] == 7 and status["failed"] == 0
    # Re-dispatch of the finished sweep enqueues nothing.
    assert main(["dispatch", *DISTRIBUTED_ARGS, "--url", url]) == 0
    assert "7 already done" in capsys.readouterr().out


def test_distributed_experiment_export_matches_local_run(url, tmp_path, capsys):
    assert main(["dispatch", *DISTRIBUTED_ARGS, "--replicates", "2", "--url", url]) == 0
    assert main(["worker", "--url", url]) == 0
    capsys.readouterr()
    dist_csv = tmp_path / "dist.csv"
    local_csv = tmp_path / "local.csv"
    assert main(["experiment", *DISTRIBUTED_ARGS, "--replicates", "2",
                 "--url", url, "--queue-timeout", "60",
                 "--export", "csv", "--output", str(dist_csv)]) == 0
    distributed = capsys.readouterr()
    dist_table = distributed.out
    assert "[cache] 14 hit(s), 0 miss(es)" in distributed.err  # 7 tasks x 2 replicates
    assert main(["experiment", *DISTRIBUTED_ARGS, "--replicates", "2",
                 "--workers", "2", "--no-cache",
                 "--export", "csv", "--output", str(local_csv)]) == 0
    local_table = capsys.readouterr().out
    assert dist_table == local_table
    assert dist_csv.read_bytes() == local_csv.read_bytes()  # byte-identical export


def test_distributed_experiment_times_out_without_workers(url):
    with pytest.raises(SystemExit, match="timed out"):
        main(["experiment", *DISTRIBUTED_ARGS, "--url", url, "--queue-timeout", "0.2"])


def test_sweep_fault_token_errors_are_strict_and_name_the_token():
    # Unknown key, duplicate key and out-of-range values all exit with a
    # message carrying the offending --fault token verbatim.
    for token, fragment in [
        ("crash@5:wat=1", "wat=1"),
        ("crash@5:pe=1:pe=2", "duplicate fault option 'pe'"),
        ("crash@-5:pe=1", "time must be >= 0"),
        ("crash@5:pe=1:duration=-1", "duration must be > 0"),
        ("crash@5:pe=1:drain=true", "drain only applies to pe_remove"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--strategies", "OPT-IO-CPU", "--sizes", "8",
                  "--joins", "2", "--fault", token])
        message = str(excinfo.value)
        assert f"invalid --fault {token!r}" in message
        assert fragment in message
