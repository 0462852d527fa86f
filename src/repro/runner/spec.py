"""Declarative scenario model: figures and ad-hoc sweeps as data.

A :class:`ScenarioSpec` holds one or more :class:`Sweep` blocks.  Each sweep
is a cartesian product over its axes (system sizes, arrival rates, scan
selectivities, OLTP placements, strategies or fixed degrees); expanding a
spec yields a flat tuple of :class:`PointSpec` records, each of which fully
describes one independent simulation run with primitive, picklable fields.
That makes points safe to ship to worker processes and stable to hash for
the on-disk result cache.

Seeding: every point carries an explicit seed.  By default the first
replicate of every point shares the spec's base seed (the paper fixes
``seed=42`` for every configuration, and this keeps the engine's tables
identical to the legacy serial loops).  Sweeps with ``reseed_per_point=True``
-- and every replicate beyond the first of a ``replicates > 1`` sweep --
instead derive a deterministic per-point seed from the base seed and the
point's *full* distinguishing coordinates (scenario, kind, system size,
strategy/degree, rate, selectivity, OLTP placement, arrival process, config
overrides and replicate index, then every set optional axis -- see
:data:`SEED_GROUPS`) via :func:`derive_seed`.  Deriving from the full
coordinate tuple rather than the (series label, x) pair matters: two points
can share a label and an x value while simulating different configurations
(e.g. a rate or placement axis that the label does not interpolate), and
every replicate must observe a different arrival stream.

The hardware, fault-plan and replication axes are rows of one table,
:data:`OPTIONAL_AXES`; the cache key and the JSON decoder of a point are
derived from the :class:`PointSpec` fields.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field, fields, replace
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.config.parameters import REPLICATION_POLICIES, NodeClass, TopologyConfig
from repro.faults.plan import (
    FailuresEntry,
    canonical_failures as _canonical_failures,
    failures_label as _failures_label,
)
from repro.workload.arrivals import ARRIVAL_KINDS

__all__ = [
    "Sweep",
    "ScenarioSpec",
    "PointSpec",
    "derive_seed",
    "expand",
    "point_from_payload",
]

#: Kinds of point execution understood by the runner.  ``timeline`` runs an
#: open (possibly non-stationary) workload for a fixed simulated duration and
#: attaches a windowed time series to the result.
POINT_KINDS = ("multi", "single", "fixed-degree", "analytic", "timeline")

#: Kinds that sweep fixed degrees of join parallelism instead of strategies.
DEGREE_KINDS = ("fixed-degree", "analytic")

#: Named configuration builders (see ``repro.runner.runner.build_config``).
SCENARIO_BUILDERS = ("homogeneous", "memory-bound", "join-complexity", "mixed")

#: Axes a sweep may use as its x values (keys of the series-label context).
X_AXES = ("num_pe", "selectivity_pct", "rate", "degree")

#: Sweep axes that :attr:`Sweep.perturb` may jitter per replicate.
PERTURBABLE_AXES = ("arrival_rate", "selectivity")

#: Queries per point when a single-user/fixed-degree sweep leaves
#: ``num_queries`` unset (shared with ``runner.run_point_spec`` for
#: hand-built points).
DEFAULT_NUM_QUERIES = {"single": 5, "fixed-degree": 2}

#: Window length (simulated seconds) when a timeline sweep leaves
#: ``timeline_window`` unset.
DEFAULT_TIMELINE_WINDOW = 1.0

#: Encoded hardware axes.  A node-classes axis entry is a tuple of class
#: encodings, each a tuple of (field, value) pairs for
#: :class:`~repro.config.parameters.NodeClass`, e.g.
#: ``((("name", "fast"), ("fraction", 0.5), ("mips_factor", 2.0)),)``.
#: A topology axis entry is a tuple of (field, value) pairs for
#: :class:`~repro.config.parameters.TopologyConfig`.  Everything stays
#: primitive so points remain picklable and JSON-round-trippable.
NodeClassesEntry = Tuple[Tuple[Tuple[str, object], ...], ...]
TopologyEntry = Tuple[Tuple[str, object], ...]


def _canonical_node_classes(entry) -> Optional[NodeClassesEntry]:
    """Normalise a node-classes entry; ``None`` when hardware-equivalent to
    the uniform system (all factors 1.0), so explicitly-default heterogeneous
    axes collapse onto the historical points -- same seeds, same cache keys,
    byte-identical outputs."""
    if entry is None:
        return None
    normalized = tuple(
        tuple((str(key), value) for key, value in node_class) for node_class in entry
    )
    for node_class in normalized:
        if not NodeClass(**dict(node_class)).is_default_hardware:
            return normalized
    return None


def _canonical_topology(entry) -> Optional[TopologyEntry]:
    """Normalise a topology entry; ``None`` when the topology is flat."""
    if entry is None:
        return None
    normalized = tuple((str(key), value) for key, value in entry)
    if TopologyConfig(**dict(normalized)).is_flat:
        return None
    return normalized


def _canonical_replication(entry) -> Optional[str]:
    """Normalise a replication axis entry; ``None`` for the single-copy
    database ("none" canonicalises to ``None``, so explicitly-unreplicated
    points share the historical points' seeds and cache keys)."""
    if entry is None:
        return None
    policy = str(entry)
    if policy == "none":
        return None
    if policy not in REPLICATION_POLICIES:
        raise ValueError(
            f"unknown replication policy {entry!r}; expected one of "
            f"{('none',) + REPLICATION_POLICIES}"
        )
    return policy


def _nodes_label(entry: Optional[NodeClassesEntry]) -> str:
    """Short series-label token for a (canonical) node-classes entry.

    Each class renders as ``name:size`` (count, or fraction as written), so
    two mixes of the same class at different sizes stay distinct series.
    """
    if not entry:
        return "uniform"
    parts = []
    for node_class in entry:
        attrs = dict(node_class)
        name = str(attrs.get("name", "?"))
        size = attrs.get("count", attrs.get("fraction"))
        parts.append(f"{name}:{size:g}" if size is not None else name)
    return "+".join(parts)


def _topology_label(entry: Optional[TopologyEntry]) -> str:
    """Short series-label token for a (canonical) topology entry."""
    if not entry:
        return "flat"
    attrs = dict(entry)
    racks = attrs.get("racks", 1)
    regions = attrs.get("regions", 1)
    if regions and int(regions) > 1:
        return f"{racks}r/{regions}g"
    return f"{racks}r"


def _policy_label(policy: Optional[str]) -> str:
    return policy or "none"


class Axis(NamedTuple):
    """One optional sweep axis, declared once for every consumer.

    ``canonical`` validates an entry of the :class:`Sweep` tuple
    ``sweep_field`` and maps every encoding of the axis default to ``None``,
    so explicitly-default entries produce the historical points (same seeds,
    same cache keys, byte-identical outputs).  The canonical entry lands in
    the :class:`PointSpec` field ``point_field``, and ``label`` renders it as
    the ``{label_key}`` token of series templates.
    """

    sweep_field: str
    point_field: str
    canonical: Callable[[object], object]
    label_key: str
    label: Callable[[object], str]


#: The optional axes, in expansion order (all nest inside the arrival axis
#: and outside the strategy/degree axis).  Adding one takes a row here, a
#: :class:`Sweep` tuple field and a :class:`PointSpec` field; the cache key
#: and the JSON decoder pick the new field up on their own.
OPTIONAL_AXES = (
    Axis("node_classes", "node_classes", _canonical_node_classes, "nodes", _nodes_label),
    Axis("topologies", "topology", _canonical_topology, "topology", _topology_label),
    Axis("failures", "failures", _canonical_failures, "failures", _failures_label),
    Axis("replication", "replication", _canonical_replication, "replication", _policy_label),
)

#: How the optional axes join a derived seed: after the core coordinates and
#: the replicate index, each group in turn, and only when one of its fields
#: is set.  Default points therefore keep the seeds they had before the axis
#: existed.  The hardware axes landed together and join as one pair.
SEED_GROUPS = (("node_classes", "topology"), ("failures",), ("replication",))


def derive_seed(base_seed: int, *components: object) -> int:
    """Deterministic 31-bit seed derived from a base seed and coordinates.

    Stable across processes and Python versions (unlike ``hash``), so a
    point re-run anywhere reproduces the same arrival streams.
    """
    text = repr((int(base_seed),) + tuple(str(c) for c in components))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return int(digest[:8], 16) & 0x7FFFFFFF


@dataclass(frozen=True)
class Sweep:
    """One axis-product of simulation points sharing a series template.

    ``None`` entries on the rate/selectivity/placement axes mean "use the
    scenario builder's default for that parameter".
    """

    kind: str = "multi"  # one of POINT_KINDS
    scenario: str = "homogeneous"  # one of SCENARIO_BUILDERS
    strategies: Tuple[str, ...] = ()
    system_sizes: Tuple[int, ...] = ()
    rates: Tuple[Optional[float], ...] = (None,)
    selectivities: Tuple[Optional[float], ...] = (None,)
    oltp_placements: Tuple[Optional[str], ...] = (None,)
    degrees: Tuple[int, ...] = ()
    x_axis: str = "num_pe"  # one of X_AXES
    series: str = "{strategy}"
    num_queries: Optional[int] = None  # single-user / fixed-degree points
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    reseed_per_point: bool = False
    #: Independent repetitions of every point; replicate 0 keeps the sweep's
    #: default seeding, replicates 1..n-1 get derived seeds.  Analytic points
    #: are deterministic and are never replicated.
    replicates: int = 1
    #: Arrival-process axis (``multi``/``timeline`` kinds): each entry is one
    #: of :data:`~repro.workload.arrivals.ARRIVAL_KINDS` or ``None`` for the
    #: scenario default (stationary Poisson).
    arrivals: Tuple[Optional[str], ...] = (None,)
    #: Shape parameters shared by every non-None arrival axis entry, e.g.
    #: ``(("surge_factor", 3.0), ("surge_start", 20.0))``.
    arrival_params: Tuple[Tuple[str, float], ...] = ()
    #: Window length (simulated seconds) for timeline points; ``None`` uses
    #: :data:`DEFAULT_TIMELINE_WINDOW`.
    timeline_window: Optional[float] = None
    #: Per-replicate workload jitter: ``(("arrival_rate", 0.1),)`` multiplies
    #: the rate axis of replicates >= 1 by a factor drawn uniformly from
    #: ``[1 - 0.1, 1 + 0.1]`` (derived-seed rng, so jitter is deterministic
    #: and collision-free).  Replicate 0 stays unperturbed, and the nominal
    #: axis value keeps labelling the (series, x) group, so confidence
    #: intervals then reflect workload noise on top of seed noise.
    perturb: Tuple[Tuple[str, float], ...] = ()
    #: Hardware axes: encoded :class:`NodeClass` mixes and
    #: :class:`TopologyConfig` tiers (see :data:`NodeClassesEntry` /
    #: :data:`TopologyEntry` above).  ``None`` entries keep the uniform
    #: hardware; entries that *encode* uniform hardware are canonicalised to
    #: ``None`` at expansion, so they share the historical points' seeds and
    #: cache keys.
    node_classes: Tuple[Optional[NodeClassesEntry], ...] = (None,)
    topologies: Tuple[Optional[TopologyEntry], ...] = (None,)
    #: Fault-plan axis: encoded :class:`~repro.faults.plan.FaultEvent`
    #: sequences (see :data:`~repro.faults.plan.FailuresEntry`).  ``None`` /
    #: empty entries mean fault-free execution and are canonicalised to
    #: ``None`` at expansion, so they produce the historical points
    #: unchanged (same seeds, same cache keys, byte-identical outputs).
    failures: Tuple[Optional[FailuresEntry], ...] = (None,)
    #: Replica-placement axis: ``None``/"none" (single copy, canonicalised to
    #: ``None`` at expansion -- same seeds, same cache keys, byte-identical
    #: outputs as the historical points), "mirror" or "chained".
    replication: Tuple[Optional[str], ...] = (None,)

    def __post_init__(self) -> None:
        if self.kind not in POINT_KINDS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if self.scenario not in SCENARIO_BUILDERS:
            raise ValueError(f"unknown scenario builder {self.scenario!r}")
        if self.x_axis not in X_AXES:
            raise ValueError(f"unknown x axis {self.x_axis!r}")
        if self.num_queries is not None and self.num_queries < 1:
            raise ValueError(f"num_queries must be >= 1, got {self.num_queries}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.kind in DEGREE_KINDS:
            if not self.degrees:
                raise ValueError(f"sweep kind {self.kind!r} requires degrees")
        elif not self.strategies:
            raise ValueError(f"sweep kind {self.kind!r} requires strategies")
        if not self.system_sizes:
            raise ValueError("a sweep needs at least one system size")
        if self.x_axis == "rate" and any(rate is None for rate in self.rates):
            raise ValueError("x_axis='rate' requires explicit rates")
        if self.x_axis == "selectivity_pct" and any(s is None for s in self.selectivities):
            raise ValueError("x_axis='selectivity_pct' requires explicit selectivities")
        if self.x_axis == "degree" and self.kind not in DEGREE_KINDS:
            raise ValueError(
                f"x_axis='degree' requires a {' or '.join(DEGREE_KINDS)} sweep, "
                f"not kind {self.kind!r}"
            )
        for name in ("arrival_params", "perturb"):
            # A repeated name would silently keep the last arrival parameter
            # (and draw two jitter factors) while both pairs enter the key.
            seen = set()
            for key, _ in getattr(self, name):
                if key in seen:
                    raise ValueError(f"duplicate {name} name {key!r}")
                seen.add(key)
        for kind in self.arrivals:
            if kind is not None and kind not in ARRIVAL_KINDS:
                raise ValueError(
                    f"unknown arrival kind {kind!r}; expected one of {ARRIVAL_KINDS}"
                )
        uses_arrivals = any(kind is not None for kind in self.arrivals)
        if uses_arrivals and self.kind not in ("multi", "timeline"):
            raise ValueError(
                f"arrival processes only apply to multi/timeline sweeps, not {self.kind!r}"
            )
        if "trace" in self.arrivals and self.kind != "timeline":
            # Only the timeline execution branch materialises and replays a
            # trace; accepting it elsewhere would silently run plain Poisson
            # arrivals under a "[trace]" label.
            raise ValueError("arrival kind 'trace' requires a timeline sweep")
        if self.arrival_params and not uses_arrivals:
            raise ValueError(
                "arrival_params given but no arrival process set; they would "
                "be silently dropped (add an arrivals axis entry)"
            )
        if self.timeline_window is not None:
            if self.kind != "timeline":
                raise ValueError("timeline_window only applies to timeline sweeps")
            if self.timeline_window <= 0:
                raise ValueError(
                    f"timeline_window must be positive, got {self.timeline_window}"
                )
        for axis in OPTIONAL_AXES:
            # Canonicalising constructs the node classes, topologies and
            # fault events, so a bad encoding fails at declaration time, not
            # in a worker.
            for entry in getattr(self, axis.sweep_field):
                axis.canonical(entry)
        for axis, fraction in self.perturb:
            if axis not in PERTURBABLE_AXES:
                raise ValueError(
                    f"unknown perturb axis {axis!r}; expected one of {PERTURBABLE_AXES}"
                )
            if not 0.0 < float(fraction) < 1.0:
                raise ValueError(f"perturb fraction must be in (0, 1), got {fraction}")
            if axis == "arrival_rate" and any(rate is None for rate in self.rates):
                raise ValueError(
                    "perturb='arrival_rate' requires explicit rates "
                    "(the scenario default rate cannot be jittered)"
                )
            if axis == "selectivity" and any(s is None for s in self.selectivities):
                raise ValueError(
                    "perturb='selectivity' requires explicit selectivities"
                )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named experiment declared as data: sweeps plus shared run limits.

    ``measured_joins``/``max_simulated_time`` of ``None`` defer to the
    environment-overridable defaults of :mod:`repro.experiments.base` at
    execution time.  ``extra_tables`` are post-processors rendering
    additional report tables from the finished
    :class:`~repro.experiments.base.ExperimentResult` (e.g. the Fig. 7
    degree annotations); they run in the parent process only.
    """

    name: str
    title: str
    x_label: str
    sweeps: Tuple[Sweep, ...] = ()
    measured_joins: Optional[int] = None
    warmup_joins: Optional[int] = None
    max_simulated_time: Optional[float] = None
    seed: int = 42
    extra_tables: Tuple[Callable[["object"], str], ...] = field(
        default_factory=tuple, compare=False
    )
    #: For non-simulated scenarios (the Fig. 4 parameter table): a renderer
    #: the CLI prints instead of the sweep table when the spec has no points.
    static_table: Optional[Callable[[], str]] = field(default=None, compare=False)

    def points(self) -> Tuple["PointSpec", ...]:
        return expand(self)

    def with_limits(
        self,
        measured_joins: Optional[int] = None,
        max_simulated_time: Optional[float] = None,
    ) -> "ScenarioSpec":
        """Copy with run limits replaced (``None`` keeps the current value)."""
        updates = {}
        if measured_joins is not None:
            updates["measured_joins"] = measured_joins
        if max_simulated_time is not None:
            updates["max_simulated_time"] = max_simulated_time
        return replace(self, **updates) if updates else self

    def with_replicates(self, replicates: int) -> "ScenarioSpec":
        """Copy with every sweep set to ``replicates`` repetitions per point."""
        if replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {replicates}")
        return replace(
            self,
            sweeps=tuple(replace(sweep, replicates=replicates) for sweep in self.sweeps),
        )


@dataclass(frozen=True)
class PointSpec:
    """One fully-resolved simulation point.

    Every field is a primitive (or tuple of primitives), so a point can be
    pickled to a worker process and hashed for the result cache.  The
    ``figure``/``series``/``x`` fields are presentation-only; the remaining
    fields determine the simulation outcome and form the cache key (see
    :meth:`cache_payload`).
    """

    figure: str
    series: str
    x: float
    kind: str
    scenario: str
    num_pe: int
    seed: int
    strategy: Optional[str] = None
    degree: Optional[int] = None
    rate: Optional[float] = None
    selectivity: Optional[float] = None
    oltp_placement: Optional[str] = None
    num_queries: Optional[int] = None
    measured_joins: Optional[int] = None
    warmup_joins: Optional[int] = None
    max_simulated_time: Optional[float] = None
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Replicate index within the sweep (0 for unreplicated points).  Part of
    #: the cache key: two replicates are distinct measurements even if a seed
    #: derivation change ever made their seeds collide.
    replicate: int = 0
    #: Arrival process of the point's workload classes (``None`` = the
    #: scenario default, stationary Poisson) plus its shape parameters.
    arrival_kind: Optional[str] = None
    arrival_params: Tuple[Tuple[str, float], ...] = ()
    #: Window length for timeline points (``None`` for other kinds).
    timeline_window: Optional[float] = None
    #: Canonical hardware axes of the point (``None`` = uniform / flat; see
    #: :data:`NodeClassesEntry` / :data:`TopologyEntry`).
    node_classes: Optional[NodeClassesEntry] = None
    topology: Optional[TopologyEntry] = None
    #: Canonical fault plan of the point (``None`` = fault-free; see
    #: :data:`~repro.faults.plan.FailuresEntry`).
    failures: Optional[FailuresEntry] = None
    #: Canonical replica-placement policy (``None`` = single copy).
    replication: Optional[str] = None

    def cache_payload(self) -> Tuple[Tuple[str, object], ...]:
        """The (key, value) pairs that determine this point's result: every
        field but the presentation ones, in declaration order."""
        return tuple((name, getattr(self, name)) for name in _OUTCOME_FIELDS)


#: Presentation-only :class:`PointSpec` fields, left out of the cache key.
PRESENTATION_FIELDS = ("figure", "series", "x")

_OUTCOME_FIELDS = tuple(
    spec_field.name
    for spec_field in fields(PointSpec)
    if spec_field.name not in PRESENTATION_FIELDS
)


def _tuples(value):
    """JSON arrays back to (nested) tuples."""
    if isinstance(value, list):
        return tuple(map(_tuples, value))
    return value


def point_from_payload(payload) -> PointSpec:
    """Rebuild a :class:`PointSpec` from a JSON-decoded ``asdict`` payload.

    JSON round-trips turn the tuple-valued fields into (nested) lists;
    turning them back keeps rebuilt points equal to the originals (and
    hashable by the result cache with byte-identical keys).  Payloads can
    arrive from outside the program (``POST /sweeps``, the journal), so an
    unknown kind or scenario and a non-integer size, seed or replicate index
    raise :class:`ValueError` naming the field.
    """
    data = {name: _tuples(value) for name, value in dict(payload).items()}
    if data.get("kind") not in POINT_KINDS:
        raise ValueError(f"unknown point kind {data.get('kind')!r}")
    if data.get("scenario") not in SCENARIO_BUILDERS:
        raise ValueError(f"unknown point scenario {data.get('scenario')!r}")
    for name in ("num_pe", "seed", "replicate"):
        value = data.get(name, 0)  # a missing field fails in PointSpec below
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"point field {name!r} must be an integer, got {value!r}")
    return PointSpec(**data)


def _canonical_x(value: float) -> float:
    """Round an x value to 12 significant digits.

    Derived x values (e.g. ``selectivity * 100.0``) can land one ulp apart
    for coordinates that are meant to be the same table row; canonicalising
    at expansion time keeps (series, x) grouping exact.
    """
    return float(f"{float(value):.12g}")


def expand(spec: ScenarioSpec) -> Tuple[PointSpec, ...]:
    """Expand a scenario into its flat, ordered tuple of points.

    Axis nesting (outer to inner): system size, selectivity, rate, OLTP
    placement, arrival process, the :data:`OPTIONAL_AXES`, strategy/degree,
    then replicate -- matching the iteration order of the legacy
    hand-written figure loops, so series appear in the same order in the
    rendered tables.

    Run limits left as ``None`` on the spec are resolved *here* (against the
    ``REPRO_BENCH_JOINS``/``REPRO_BENCH_TIME_LIMIT`` environment defaults),
    not in the worker, so the resolved values are part of every point and of
    its cache key -- runs under different environment settings never collide
    on one cache entry.  For timeline sweeps the resolved time limit is the
    run *duration* (timeline points have no completion target).

    Per-replicate perturbation (``Sweep.perturb``) jitters the rate /
    selectivity stored on the point while the series label and x keep the
    nominal values, so all replicates of a coordinate still group into one
    table cell.  Replicate 0 stays unperturbed, and the jitter draws from an
    rng seeded by the point's full coordinates.
    """
    from repro.experiments.base import default_measured_joins, default_time_limit

    measured = spec.measured_joins if spec.measured_joins is not None else default_measured_joins()
    warmup = spec.warmup_joins if spec.warmup_joins is not None else max(5, measured // 5)
    limit = (
        spec.max_simulated_time if spec.max_simulated_time is not None else default_time_limit()
    )
    if limit <= 0 and any(sweep.kind == "timeline" for sweep in spec.sweeps):
        # Timeline points run for exactly ``limit`` seconds; failing here
        # beats a PointExecutionError from inside a worker process.
        raise ValueError(
            "timeline sweeps need a positive run duration, got "
            f"max_simulated_time={limit}"
        )
    points: List[PointSpec] = []
    for sweep in spec.sweeps:
        by_degree = sweep.kind in DEGREE_KINDS
        num_queries = sweep.num_queries or DEFAULT_NUM_QUERIES.get(sweep.kind)
        window = sweep.timeline_window or DEFAULT_TIMELINE_WINDOW
        # Fields every point of the sweep shares; which run limits apply
        # depends on the kind.
        shared = dict(
            figure=spec.name,
            kind=sweep.kind,
            scenario=sweep.scenario,
            num_queries=num_queries if sweep.kind in DEFAULT_NUM_QUERIES else None,
            measured_joins=measured if sweep.kind == "multi" else None,
            warmup_joins=warmup if sweep.kind == "multi" else None,
            max_simulated_time=limit if sweep.kind in ("multi", "timeline") else None,
            config_overrides=sweep.config_overrides,
            timeline_window=window if sweep.kind == "timeline" else None,
        )
        # Per combination of the optional axes: its PointSpec fields, seed
        # components and label tokens.  Canonicalising collapses encodings
        # of an axis default to None, so they yield the default's points.
        combinations = []
        for entries in itertools.product(
            *(
                [axis.canonical(entry) for entry in getattr(sweep, axis.sweep_field)]
                for axis in OPTIONAL_AXES
            )
        ):
            optional = {axis.point_field: e for axis, e in zip(OPTIONAL_AXES, entries)}
            set_groups = tuple(
                optional[name]
                for group in SEED_GROUPS
                if any(optional[grouped] is not None for grouped in group)
                for name in group
            )
            labels = {axis.label_key: axis.label(e) for axis, e in zip(OPTIONAL_AXES, entries)}
            combinations.append((optional, set_groups, labels))
        # Analytic points are deterministic model evaluations: replicating
        # them would just repeat the identical number.
        replicates = 1 if sweep.kind == "analytic" else sweep.replicates
        for num_pe, selectivity, rate, placement, arrival, combination, member, replicate in (
            itertools.product(
                sweep.system_sizes,
                sweep.selectivities,
                sweep.rates,
                sweep.oltp_placements,
                sweep.arrivals,
                combinations,
                sweep.degrees if by_degree else sweep.strategies,
                range(replicates),
            )
        ):
            if by_degree:
                strategy, degree = None, int(member)
                if degree > num_pe:
                    continue
            else:
                strategy, degree = str(member), None
            optional, set_groups, labels = combination
            coordinates = (
                sweep.kind,
                sweep.scenario,
                num_pe,
                strategy,
                degree,
                rate,
                selectivity,
                placement,
                arrival,
                sweep.config_overrides,
            )
            # Replicate 0 of a sweep without reseed_per_point keeps the base
            # seed, so a replicated run contains the legacy fixed-seed run.
            if replicate == 0 and not sweep.reseed_per_point:
                seed = spec.seed
            else:
                seed = derive_seed(spec.seed, *coordinates, replicate, *set_groups)
            point_rate, point_selectivity = rate, selectivity
            if replicate and sweep.perturb:
                rng = random.Random(
                    derive_seed(spec.seed, "perturb", *coordinates, *set_groups, replicate)
                )
                # Sorted draw order keeps the jitter independent of the
                # declaration order of ``perturb``.
                for axis_name, fraction in sorted(sweep.perturb):
                    factor = rng.uniform(1.0 - float(fraction), 1.0 + float(fraction))
                    if axis_name == "arrival_rate":
                        point_rate = float(rate) * factor  # type: ignore[arg-type]
                    else:
                        point_selectivity = float(selectivity) * factor  # type: ignore[arg-type]
            context = dict(
                strategy=strategy,
                degree=degree,
                num_pe=num_pe,
                rate=rate,
                selectivity=selectivity,
                selectivity_pct=None if selectivity is None else selectivity * 100.0,
                placement=placement,
                arrival=arrival,
            )
            points.append(
                PointSpec(
                    series=sweep.series.format(**context, **labels),
                    x=_canonical_x(context[sweep.x_axis]),
                    num_pe=num_pe,
                    seed=seed,
                    strategy=strategy,
                    degree=degree,
                    rate=point_rate,
                    selectivity=point_selectivity,
                    oltp_placement=placement,
                    replicate=replicate,
                    arrival_kind=arrival,
                    arrival_params=sweep.arrival_params if arrival is not None else (),
                    **shared,
                    **optional,
                )
            )
    return tuple(points)
