"""Tests for the CSV/JSON trace loader (captured arrival logs)."""

import dataclasses

import pytest

from repro.cli import main
from repro.config.parameters import SystemConfig
from repro.runner.runner import build_config, run_point_spec
from repro.runner.spec import PointSpec
from repro.workload.generator import WorkloadSpec
from repro.workload.traces import Trace, TraceRecord, generate_trace, load_trace, save_trace


def sample_trace() -> Trace:
    spec = WorkloadSpec.homogeneous_join(SystemConfig(num_pe=4))
    trace = generate_trace(spec, duration=20.0)
    assert len(trace) > 0
    return trace


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_save_load_roundtrip_is_lossless(tmp_path, fmt):
    trace = sample_trace()
    path = save_trace(trace, tmp_path / f"trace.{fmt}")
    loaded = load_trace(path)
    assert loaded.records == trace.records  # floats survive bit-exactly


def test_load_trace_sorts_unordered_records(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "arrival_time,class_name\n2.5,join\n0.5,join\n1.25,oltp\n"
    )
    trace = load_trace(path)
    assert [r.arrival_time for r in trace] == [0.5, 1.25, 2.5]
    assert [r.class_name for r in trace] == ["join", "oltp", "join"]


def test_load_trace_accepts_bare_json_list(tmp_path):
    path = tmp_path / "log.json"
    path.write_text('[{"arrival_time": 1.5, "class_name": "join"}]')
    trace = load_trace(path)
    assert trace.records == [TraceRecord(arrival_time=1.5, class_name="join")]


def test_load_trace_rejects_bad_inputs(tmp_path):
    missing_header = tmp_path / "bad.csv"
    missing_header.write_text("time,name\n1.0,join\n")
    with pytest.raises(ValueError, match="CSV header"):
        load_trace(missing_header)
    bad_time = tmp_path / "bad2.csv"
    bad_time.write_text("arrival_time,class_name\nsoon,join\n")
    with pytest.raises(ValueError, match="non-numeric arrival_time"):
        load_trace(bad_time)
    negative = tmp_path / "bad3.json"
    negative.write_text('[{"arrival_time": -1.0, "class_name": "join"}]')
    with pytest.raises(ValueError, match="negative arrival_time"):
        load_trace(negative)
    not_a_list = tmp_path / "bad4.json"
    not_a_list.write_text('{"rows": []}')
    with pytest.raises(ValueError, match="'records' list"):
        load_trace(not_a_list)


def test_save_trace_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown trace format"):
        save_trace(sample_trace(), tmp_path / "trace.bin", fmt="bin")


def timeline_trace_point(**overrides) -> PointSpec:
    fields = dict(figure="f", series="s", x=4, kind="timeline",
                  scenario="homogeneous", num_pe=4, seed=42,
                  strategy="OPT-IO-CPU", max_simulated_time=10.0,
                  timeline_window=5.0, arrival_kind="trace")
    fields.update(overrides)
    return PointSpec(**fields)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_file_trace_replays_identically_to_generated_trace(tmp_path, fmt):
    point = timeline_trace_point()
    # Materialise exactly the streams the file-less run would generate.
    spec = WorkloadSpec.for_config(build_config(point))
    path = save_trace(generate_trace(spec, 10.0), tmp_path / f"log.{fmt}")
    generated = run_point_spec(point)
    replayed = run_point_spec(
        dataclasses.replace(point, arrival_params=(("file", str(path)),))
    )
    assert replayed == generated  # captured log drives the identical run


def test_file_trace_point_rejects_unknown_params(tmp_path):
    point = timeline_trace_point(arrival_params=(("file", "x.csv"), ("speed", 2.0)))
    with pytest.raises(ValueError, match="only 'file' is supported"):
        run_point_spec(point)


def test_cli_sweep_replays_trace_file(tmp_path, capsys):
    point = timeline_trace_point()
    spec = WorkloadSpec.for_config(build_config(point))
    path = save_trace(generate_trace(spec, 10.0), tmp_path / "log.csv")
    code = main([
        "sweep", "--arrival", "trace", "--arrival-param", f"file={path}",
        "--strategies", "OPT-IO-CPU", "--sizes", "4",
        "--time-limit", "10", "--timeline-window", "5", "--no-cache",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "[trace]" in output


# -- content digest pinning (stale cache / divergent hosts) ------------------------
def test_file_trace_digest_is_verified_at_execution(tmp_path):
    import hashlib

    point = timeline_trace_point()
    spec = WorkloadSpec.for_config(build_config(point))
    path = save_trace(generate_trace(spec, 10.0), tmp_path / "log.csv")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    pinned = dataclasses.replace(
        point, arrival_params=(("file", str(path)), ("file_sha256", digest))
    )
    plain = dataclasses.replace(point, arrival_params=(("file", str(path)),))
    assert run_point_spec(pinned) == run_point_spec(plain)
    edited = dataclasses.replace(
        pinned, arrival_params=(("file", str(path)), ("file_sha256", "0" * 64))
    )
    with pytest.raises(ValueError, match="does not match the content digest"):
        run_point_spec(edited)
    orphan = dataclasses.replace(point, arrival_params=(("file_sha256", digest),))
    with pytest.raises(ValueError, match="without a trace file"):
        run_point_spec(orphan)


def test_cli_pins_trace_file_content_into_the_cache_key(tmp_path):
    from repro.cli import _build_adhoc_spec, build_parser
    from repro.runner import ResultCache

    point = timeline_trace_point()
    spec = WorkloadSpec.for_config(build_config(point))
    path = save_trace(generate_trace(spec, 10.0), tmp_path / "log.csv")
    argv = ["sweep", "--arrival", "trace", "--arrival-param", f"file={path}",
            "--strategies", "OPT-IO-CPU", "--sizes", "4",
            "--time-limit", "10", "--timeline-window", "5", "--no-cache"]

    def built_point():
        return _build_adhoc_spec(build_parser().parse_args(argv)).points()[0]

    first = built_point()
    params = dict(first.arrival_params)
    assert len(params["file_sha256"]) == 64
    # Editing the captured log changes the digest, hence the cache key: a
    # re-run can never serve stale results for the old trace.
    path.write_text("arrival_time,class_name\n1.5,join\n")
    second = built_point()
    assert dict(second.arrival_params)["file_sha256"] != params["file_sha256"]
    cache = ResultCache(tmp_path / "cache")
    assert cache.key(first) != cache.key(second)
