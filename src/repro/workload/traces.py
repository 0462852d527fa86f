"""Synthetic and captured trace support.

The original simulation system could replay real-life database traces [18].
Those traces are not available, so this module provides a synthetic
equivalent: a trace is simply a time-ordered list of (arrival_time, class
name) records that can be produced from any :class:`WorkloadSpec` and replayed
deterministically.  This exercises the same code path in the driver (a
pre-computed arrival list instead of on-line sampling).

Captured arrival logs can drive the same path: :func:`load_trace` reads a
trace from a CSV file (``arrival_time,class_name`` header) or a JSON file
(a list of record objects, or ``{"records": [...]}``), and
:func:`save_trace` writes one -- the two round-trip losslessly.  On the
CLI, ``--arrival trace --arrival-param file=PATH`` replays such a file
instead of materialising the spec's own streams.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Union

from repro.sim import Environment
from repro.workload.generator import Submitter, WorkloadSpec
from repro.workload.query import Transaction

__all__ = [
    "TraceRecord",
    "Trace",
    "generate_trace",
    "load_trace",
    "parse_trace",
    "save_trace",
    "TraceReplayer",
]


@dataclass(frozen=True)
class TraceRecord:
    """One arrival in a trace."""

    arrival_time: float
    class_name: str


@dataclass
class Trace:
    """A reproducible, time-ordered arrival trace."""

    records: List[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def duration(self) -> float:
        return self.records[-1].arrival_time if self.records else 0.0


def generate_trace(spec: WorkloadSpec, duration: float, seed: int | None = None) -> Trace:
    """Sample a trace of ``duration`` simulated seconds from a workload spec.

    Each class draws from its own rng stream, seeded exactly like the live
    :class:`~repro.workload.generator.WorkloadGenerator` (``seed * 1009 +
    class index``), so a generated trace replays bit-identically to live
    sampling of the same spec.  (Earlier versions drew all classes from one
    shared rng, which made traces diverge from the generator's arrivals.)
    """
    base_seed = spec.seed if seed is None else seed
    records: List[TraceRecord] = []
    for index, workload_class in enumerate(spec.classes):
        if workload_class.arrival_rate <= 0 and workload_class.arrival is None:
            continue
        rng = random.Random(base_seed * 1009 + index)
        workload_class.begin_stream()
        clock = 0.0
        while True:
            delta = workload_class.interarrival(rng, clock)
            if delta == float("inf"):
                break
            clock += delta
            if clock > duration:
                break
            records.append(TraceRecord(arrival_time=clock, class_name=workload_class.name))
    records.sort(key=lambda record: record.arrival_time)
    return Trace(records=records)


def _trace_from_rows(rows, source: str) -> Trace:
    records: List[TraceRecord] = []
    for index, row in enumerate(rows):
        try:
            time_text = row["arrival_time"]
            class_name = row["class_name"]
        except (KeyError, TypeError, IndexError):
            raise ValueError(
                f"{source}: record {index} needs 'arrival_time' and 'class_name' fields"
            ) from None
        if time_text is None or class_name is None:
            # csv.DictReader yields None for short rows rather than raising.
            raise ValueError(
                f"{source}: record {index} needs 'arrival_time' and 'class_name' fields"
            )
        try:
            arrival_time = float(time_text)
        except (TypeError, ValueError):
            raise ValueError(
                f"{source}: record {index} has non-numeric arrival_time {time_text!r}"
            ) from None
        if arrival_time < 0:
            raise ValueError(
                f"{source}: record {index} has negative arrival_time {arrival_time!r}"
            )
        records.append(TraceRecord(arrival_time=arrival_time, class_name=str(class_name)))
    records.sort(key=lambda record: record.arrival_time)
    return Trace(records=records)


def parse_trace(text: str, source: str = "<trace>", fmt: str | None = None) -> Trace:
    """Parse trace text in CSV or JSON form (sniffed when ``fmt`` is None).

    Callers that already hold the file content (e.g. the runner, which
    reads the bytes once to verify a content digest) parse from the same
    buffer instead of re-reading the file.
    """
    if fmt not in (None, "csv", "json"):
        raise ValueError(f"unknown trace format {fmt!r}; expected 'csv' or 'json'")
    if fmt == "json" or (fmt is None and text.lstrip()[:1] in ("[", "{")):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ValueError(f"{source}: not valid JSON: {exc}") from None
        rows = data.get("records") if isinstance(data, dict) else data
        if not isinstance(rows, list):
            raise ValueError(
                f"{source}: expected a JSON list of records or an object with "
                "a 'records' list"
            )
        return _trace_from_rows(rows, source)
    reader = csv.DictReader(text.splitlines())
    missing = {"arrival_time", "class_name"} - set(reader.fieldnames or ())
    if missing:
        raise ValueError(
            f"{source}: CSV header must name the {sorted(missing)} column(s) "
            f"(got {reader.fieldnames})"
        )
    return _trace_from_rows(reader, source)


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a captured arrival trace from a CSV or JSON file.

    CSV needs an ``arrival_time,class_name`` header (extra columns are
    ignored); JSON is either a list of ``{"arrival_time": ..,
    "class_name": ..}`` objects or ``{"records": [...]}`` as written by
    :func:`save_trace`.  Records are sorted by arrival time, so logs
    captured from concurrent streams need not be pre-merged.
    """
    path = Path(path)
    fmt = "json" if path.suffix.lower() == ".json" else None
    return parse_trace(path.read_text(encoding="utf-8"), str(path), fmt)


def save_trace(trace: Trace, path: Union[str, Path], fmt: str | None = None) -> Path:
    """Write a trace to CSV or JSON (format from ``fmt`` or the extension).

    The written file loads back via :func:`load_trace` with identical
    records (floats survive via ``repr`` round-tripping in both formats).
    """
    path = Path(path)
    fmt = fmt or ("json" if path.suffix.lower() == ".json" else "csv")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown trace format {fmt!r}; expected 'csv' or 'json'")
    if fmt == "json":
        payload = {
            "records": [
                {"arrival_time": record.arrival_time, "class_name": record.class_name}
                for record in trace
            ]
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["arrival_time", "class_name"])
        for record in trace:
            writer.writerow([repr(record.arrival_time), record.class_name])
    return path


class TraceReplayer:
    """Replays a trace against the system, using the spec's factories."""

    def __init__(self, env: Environment, spec: WorkloadSpec, trace: Trace, submit: Submitter):
        self.env = env
        self.spec = spec
        self.trace = trace
        self.submit = submit
        self._factories = {cls.name: cls.factory for cls in spec.classes}

    def start(self) -> None:
        self.env.process(self._replay())

    def _replay(self):
        for record in self.trace:
            delay = record.arrival_time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            factory = self._factories.get(record.class_name)
            if factory is None:
                raise KeyError(f"trace references unknown class {record.class_name!r}")
            transaction: Transaction = factory()
            # Stamp the declared trace time (the env clock can sit one ulp
            # off after the relative timeout), so response-time accounting
            # matches the trace exactly.
            transaction.arrival_time = record.arrival_time
            self.submit(transaction)
