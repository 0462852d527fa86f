"""Declarative fault & elasticity plans.

A fault plan is an ordered list of timed :class:`FaultEvent` records.  The
plan travels through the experiment platform as a *primitive encoding* (the
``failures`` axis of :class:`~repro.runner.spec.Sweep` /
:class:`~repro.runner.spec.PointSpec`): a tuple of event encodings, each a
tuple of ``(field, value)`` pairs -- picklable, JSON-round-trippable through
the distributed work queue, and hashable as part of the result-cache key.

Event kinds (:data:`FAULT_KINDS`):

``pe_crash``
    The PE fails entirely at ``time``: in-flight transactions touching it
    abort (their processes are killed, their lock/buffer state is purged on
    every PE) and are resubmitted after ``restart_delay`` -- or held until
    the data they scan is reachable again.  New work routed to the PE is
    redirected (joins/coordinators) or held (OLTP whose accounts live
    there).  ``duration`` is sugar for a matching ``pe_recover``.  With
    ``rack=R`` the crash is correlated: every PE of topology rack ``R``
    fails at once.  ``surge=F`` couples a cascading-overload arrival surge
    (open-workload rates scaled by ``F`` while the crash is outstanding).
    Under a replicated database (``SystemConfig.replication``) reads fail
    over to surviving copies instead of holding the queries.
``pe_recover``
    The PE returns with cold state; held work is resubmitted.
``degrade`` / ``restore``
    A straggler: the PE's CPU *and* disk speeds are multiplied by
    ``factor`` (< 1 slows it down) until restored -- the same effective-
    config machinery as the PR 7 ``NodeClass`` factors, applied mid-run.
    ``duration`` is sugar for a matching ``restore``.
``disk_fail``
    A disk-subsystem failure: only the disk speed is scaled by ``factor``
    (e.g. 0.25 for an array running in degraded/rebuild mode);
    ``restore`` ends it.  ``duration`` is sugar for the ``restore``.
``pe_add`` / ``pe_remove``
    Online membership of the *join-processor pool*.  A PE targeted by
    ``pe_add`` starts outside the pool and joins once its rebalancing
    window completes; ``pe_remove`` drains a PE from the pool immediately.
    Both pay an explicit repartitioning cost: ``pages`` pages are shipped
    over the (shared, contended) interconnect and written sequentially on
    the receiving PE before the membership change settles.  ``pe_remove``
    with ``drain=true`` is a *planned* drain: the PE stops receiving new
    work immediately but stays until its in-flight transactions complete
    (zero aborts), then rebalances out.

An empty (or ``None``) plan canonicalises to ``None``, so fault-free points
keep their seeds and cache keys.  Every run interprets its plan through the
one fault runtime; an empty plan injects nothing and schedules no event, so
fault-free runs stay byte-identical to the committed goldens.  Plans apply
to multi-user and timed runs only: single-user joins bypass the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FailuresEntry",
    "canonical_failures",
    "decode_failures",
    "encode_failures",
    "expand_events",
    "failures_label",
    "parse_fault",
]

#: Recognised fault kinds (see the module docstring).
FAULT_KINDS = (
    "pe_crash",
    "pe_recover",
    "degrade",
    "restore",
    "disk_fail",
    "pe_add",
    "pe_remove",
)

#: CLI-friendly aliases accepted by :func:`parse_fault`.
_KIND_ALIASES = {
    "crash": "pe_crash",
    "recover": "pe_recover",
    "add": "pe_add",
    "remove": "pe_remove",
}

#: Kinds whose ``duration`` expands into an inverse event.
_DURATION_INVERSE = {
    "pe_crash": "pe_recover",
    "degrade": "restore",
    "disk_fail": "restore",
}

#: Short series-label tokens per kind.
_KIND_ABBREV = {
    "pe_crash": "crash",
    "pe_recover": "rec",
    "degrade": "deg",
    "restore": "res",
    "disk_fail": "dfail",
    "pe_add": "add",
    "pe_remove": "rm",
}

#: Encoded ``failures`` axis entry: a tuple of event encodings, each a tuple
#: of (field, value) pairs for :class:`FaultEvent` -- the same shape as the
#: hardware axes' :data:`~repro.runner.spec.NodeClassesEntry`.
FailuresEntry = Tuple[Tuple[Tuple[str, object], ...], ...]


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault/elasticity event of a plan."""

    time: float
    kind: str
    pe: int = 0
    #: Speed multiplier for ``degrade`` (CPU + disk) and ``disk_fail``
    #: (disk only); 1.0 is a no-op degradation (useful for overhead
    #: measurement), values < 1 slow the PE down.
    factor: float = 1.0
    #: Sugar: auto-derive the inverse event (recover/restore) this many
    #: seconds after ``time`` (crash/degrade/disk_fail only).
    duration: Optional[float] = None
    #: ``pe_crash`` only: delay before killed transactions are resubmitted.
    restart_delay: float = 0.5
    #: ``pe_add``/``pe_remove`` only: pages repartitioned over the network
    #: and rewritten before the membership change settles.
    pages: int = 256
    #: ``pe_crash``/``pe_recover`` only: correlated rack-scoped failure.
    #: When set, the event targets *every* PE of topology rack ``rack``
    #: (``pe`` is ignored) -- the PR 7 topology assigns PEs to racks.
    rack: Optional[int] = None
    #: ``pe_crash`` only: cascading-overload coupling.  While the crash is
    #: outstanding the arrival rate of the open workload is multiplied by
    #: this factor (> 1 models the retry/failover surge hitting survivors).
    surge: Optional[float] = None
    #: ``pe_remove`` only: planned drain.  The PE stops receiving new work
    #: immediately but the rebalancing (and pool departure) waits until all
    #: in-flight transactions touching it complete -- zero aborts.
    drain: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.pe < 0:
            raise ValueError(f"fault pe must be >= 0, got {self.pe}")
        if not self.factor > 0:
            raise ValueError(f"fault factor must be > 0, got {self.factor}")
        if self.duration is not None:
            if self.kind not in _DURATION_INVERSE:
                raise ValueError(
                    f"duration only applies to {sorted(_DURATION_INVERSE)}, "
                    f"not {self.kind!r}"
                )
            if self.duration <= 0:
                raise ValueError(f"fault duration must be > 0, got {self.duration}")
        if self.restart_delay < 0:
            raise ValueError(
                f"restart_delay must be >= 0, got {self.restart_delay}"
            )
        if self.pages < 0:
            raise ValueError(f"rebalance pages must be >= 0, got {self.pages}")
        if self.rack is not None:
            if self.kind not in ("pe_crash", "pe_recover"):
                raise ValueError(
                    f"rack only applies to pe_crash/pe_recover, not {self.kind!r}"
                )
            if self.rack < 0:
                raise ValueError(f"fault rack must be >= 0, got {self.rack}")
        if self.surge is not None:
            if self.kind != "pe_crash":
                raise ValueError(f"surge only applies to pe_crash, not {self.kind!r}")
            if not self.surge > 0:
                raise ValueError(f"fault surge must be > 0, got {self.surge}")
        if self.drain and self.kind != "pe_remove":
            raise ValueError(f"drain only applies to pe_remove, not {self.kind!r}")

    def encode(self) -> Tuple[Tuple[str, object], ...]:
        """Full primitive encoding (every field, declaration order)."""
        return tuple((f.name, getattr(self, f.name)) for f in fields(self))


def encode_failures(events: Sequence[FaultEvent]) -> Optional[FailuresEntry]:
    """Encode a sequence of events as a ``failures`` axis entry."""
    if not events:
        return None
    return tuple(event.encode() for event in events)


def decode_failures(entry) -> Tuple[FaultEvent, ...]:
    """Decode a ``failures`` axis entry back into :class:`FaultEvent` records."""
    if not entry:
        return ()
    return tuple(FaultEvent(**dict(pairs)) for pairs in entry)


def canonical_failures(entry) -> Optional[FailuresEntry]:
    """Normalise a ``failures`` entry; ``None`` when the plan is empty.

    Decoding validates the encoding (unknown fields, bad values) at
    declaration time; re-encoding fills every field, so partial encodings
    (e.g. from the CLI parser) collapse onto one canonical form -- same
    seeds, same cache keys, regardless of how the plan was written.
    """
    if entry is None:
        return None
    events = decode_failures(
        tuple(tuple((str(key), value) for key, value in pairs) for pairs in entry)
    )
    return encode_failures(events)


def expand_events(events: Sequence[FaultEvent]) -> List[FaultEvent]:
    """Injection order: declared events plus derived inverses, time-sorted.

    ``duration`` sugar expands into explicit recover/restore events.  The
    sort is stable on (time, declaration order, derived-last), so plans with
    coinciding instants apply deterministically.
    """
    keyed = []
    derived = []
    for index, event in enumerate(events):
        keyed.append((event.time, 0, index, event))
        if event.duration is not None:
            inverse = FaultEvent(
                time=event.time + event.duration,
                kind=_DURATION_INVERSE[event.kind],
                pe=event.pe,
                rack=event.rack if event.kind == "pe_crash" else None,
            )
            derived.append((inverse.time, 1, index, inverse))
    keyed.extend(derived)
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    return [item[3] for item in keyed]


def failures_label(entry: Optional[FailuresEntry]) -> str:
    """Short series-label token for a (canonical) ``failures`` entry."""
    if not entry:
        return "none"
    parts = []
    for pairs in entry:
        attrs = dict(pairs)
        kind = str(attrs.get("kind", "?"))
        abbrev = _KIND_ABBREV.get(kind, kind)
        time = attrs.get("time", 0)
        rack = attrs.get("rack")
        target = f"r{rack}" if rack is not None else attrs.get("pe", 0)
        parts.append(f"{abbrev}{target}@{float(time):g}")
    return "+".join(parts)


def _parse_flag(value: str) -> bool:
    """Parse a boolean fault option value (``true``/``false``/``1``/``0``)."""
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(value)


def parse_fault(text: str) -> Tuple[Tuple[str, object], ...]:
    """Parse a CLI fault token ``KIND@TIME[:pe=N:factor=F:duration=S...]``.

    Also accepts ``restart_delay=S``, ``pages=N``, ``rack=R``, ``surge=F``
    and ``drain=true`` options, plus the kind aliases ``crash``/``recover``/
    ``add``/``remove``.  Returns the event's canonical encoding; raises
    :class:`ValueError` naming the offending token on malformed input --
    unknown option names, unparsable or out-of-range values, and duplicated
    options are all rejected.
    """
    head, _, options = text.partition(":")
    kind, sep, at = head.partition("@")
    kind = _KIND_ALIASES.get(kind.strip(), kind.strip())
    if not sep:
        raise ValueError(
            f"malformed fault {text!r}: expected KIND@TIME[:pe=N:factor=F:duration=S]"
        )
    try:
        values: dict = {"time": float(at), "kind": kind}
    except ValueError:
        raise ValueError(f"malformed fault time in {text!r}: {at!r}") from None
    converters = {
        "pe": int,
        "factor": float,
        "duration": float,
        "restart_delay": float,
        "pages": int,
        "rack": int,
        "surge": float,
        "drain": _parse_flag,
    }
    if options:
        for option in options.split(":"):
            name, sep, value = option.partition("=")
            name = name.strip()
            if not sep or name not in converters:
                raise ValueError(
                    f"malformed fault option {option!r} in {text!r}; expected one "
                    f"of {sorted(converters)} as NAME=VALUE"
                )
            if name in values:
                raise ValueError(f"duplicate fault option {name!r} in {text!r}")
            try:
                values[name] = converters[name](value)
            except ValueError:
                raise ValueError(
                    f"malformed fault option value {value!r} for {name!r} in {text!r}"
                ) from None
    try:
        return FaultEvent(**values).encode()
    except ValueError as exc:
        raise ValueError(f"invalid fault {text!r}: {exc}") from None
