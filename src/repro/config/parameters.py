"""Simulation parameters with the defaults of Fig. 4 of the paper.

Every number that appears in the parameter table of the paper (system
configuration, database and query profile) is encoded here as a dataclass
default, so the experiment modules only override what a specific figure
changes (memory size, number of disks, arrival rates, scan selectivity, ...).

All times inside the simulator are expressed in **seconds**, all sizes in
**pages** or **bytes**, CPU work in **instructions**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

__all__ = [
    "InstructionCosts",
    "CpuConfig",
    "DiskConfig",
    "BufferConfig",
    "NetworkConfig",
    "NodeClass",
    "TopologyConfig",
    "RelationConfig",
    "JoinQueryConfig",
    "OltpConfig",
    "ControlConfig",
    "SystemConfig",
    "MS",
    "REPLICATION_POLICIES",
]

#: Convenience constant: one millisecond in seconds.
MS = 1e-3

#: Replica placement policies accepted by :attr:`SystemConfig.replication`
#: (``None`` means the paper's single-copy Shared Nothing database).
REPLICATION_POLICIES = ("mirror", "chained")


@dataclass(frozen=True)
class InstructionCosts:
    """Average number of instructions per request type (Fig. 4, left column)."""

    initiate_transaction: int = 25_000
    terminate_transaction: int = 25_000
    io_operation: int = 3_000
    send_message: int = 5_000
    receive_message: int = 10_000
    copy_message_packet: int = 5_000  # copy one 8 KB packet
    read_tuple: int = 500  # read a tuple from a memory page
    hash_tuple: int = 500
    insert_into_hash_table: int = 100
    write_tuple_to_output: int = 100
    probe_hash_table: int = 200


@dataclass(frozen=True)
class CpuConfig:
    """CPU configuration per processing element (PE)."""

    mips: float = 20.0  # 20 MIPS per Fig. 4
    cpus_per_pe: int = 1
    # Scheduling quantum: large CPU demands are served in slices of this many
    # instructions so that concurrent transactions interleave (round-robin
    # style) instead of blocking each other for tens of milliseconds.
    quantum_instructions: int = 100_000

    def seconds_for(self, instructions: float) -> float:
        """Service time in seconds for a CPU request of ``instructions``."""
        return instructions / (self.mips * 1e6)

    def scaled(self, factor: float) -> "CpuConfig":
        """This CPU at ``factor`` times its speed (itself at 1.0)."""
        return self if factor == 1.0 else replace(self, mips=self.mips * factor)


@dataclass(frozen=True)
class DiskConfig:
    """Disk devices and controller configuration per PE (Fig. 4)."""

    disks_per_pe: int = 10  # varied per experiment (Fig. 7 uses 1, Fig. 9 uses 5)
    controller_service_time: float = 1.0 * MS  # per page
    transmission_time_per_page: float = 0.4 * MS
    avg_access_time: float = 15.0 * MS
    prefetch_delay_per_page: float = 1.0 * MS
    cache_pages: int = 200  # LRU disk cache in the controller
    prefetch_pages: int = 4

    def sequential_io_time(self, pages: int) -> float:
        """Disk busy time for one prefetching I/O reading ``pages`` pages."""
        return self.avg_access_time + pages * self.prefetch_delay_per_page

    def random_io_time(self) -> float:
        """Disk busy time for a single-page random I/O."""
        return self.avg_access_time + self.prefetch_delay_per_page

    def controller_time(self, pages: int) -> float:
        """Controller + transmission time for ``pages`` pages."""
        return pages * (self.controller_service_time + self.transmission_time_per_page)

    def scaled(self, factor: float) -> "DiskConfig":
        """These disks at ``factor`` times their speed: every per-page and
        access time is divided by it (itself at 1.0)."""
        if factor == 1.0:
            return self
        return replace(
            self,
            controller_service_time=self.controller_service_time / factor,
            transmission_time_per_page=self.transmission_time_per_page / factor,
            avg_access_time=self.avg_access_time / factor,
            prefetch_delay_per_page=self.prefetch_delay_per_page / factor,
        )


@dataclass(frozen=True)
class BufferConfig:
    """Main-memory buffer configuration per PE (Fig. 4)."""

    page_size_bytes: int = 8_192  # 8 KB pages
    buffer_pages: int = 50  # 0.4 MB per PE (deliberately small, see §5.1)


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnection network (EDS-prototype-like parameters).

    The paper charges communication mainly as CPU instructions at sender and
    receiver (send/receive/copy in :class:`InstructionCosts`); the wire itself
    is a scalable high-speed interconnect.  We model a small per-packet wire
    latency plus a bandwidth-derived transfer time.
    """

    packet_size_bytes: int = 8_192
    wire_latency: float = 0.05 * MS
    bandwidth_bytes_per_s: float = 100e6

    def packets_for(self, nbytes: int) -> int:
        """Number of fixed-size packets needed for a message of ``nbytes``."""
        if nbytes <= 0:
            return 1
        return max(1, math.ceil(nbytes / self.packet_size_bytes))

    def transfer_time(self, nbytes: int) -> float:
        """Wire time for a message of ``nbytes`` (excludes CPU costs)."""
        packets = self.packets_for(nbytes)
        return packets * self.wire_latency + nbytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class RelationConfig:
    """A base relation with its physical design (Fig. 4, right column)."""

    name: str
    num_tuples: int
    tuple_size_bytes: int = 400
    blocking_factor: int = 20  # tuples per page
    declustering_fraction: float = 1.0  # fraction of all PEs holding fragments

    @property
    def pages(self) -> int:
        """Number of data pages of the relation."""
        return math.ceil(self.num_tuples / self.blocking_factor)

    def pages_for_tuples(self, tuples: int) -> int:
        """Pages occupied by ``tuples`` tuples (clustered storage)."""
        return max(0, math.ceil(tuples / self.blocking_factor))


def default_relation_a() -> RelationConfig:
    """Relation A (inner join input): 250 000 tuples, 100 MB, on 20 % of PEs."""
    return RelationConfig(
        name="A",
        num_tuples=250_000,
        declustering_fraction=0.2,
    )


def default_relation_b() -> RelationConfig:
    """Relation B (outer join input): 1 000 000 tuples, 400 MB, on 80 % of PEs."""
    return RelationConfig(
        name="B",
        num_tuples=1_000_000,
        declustering_fraction=0.8,
    )


@dataclass(frozen=True)
class JoinQueryConfig:
    """Profile of the two-way join query used in the evaluation (Fig. 4)."""

    scan_selectivity: float = 0.01  # 1 % default; varied in Fig. 8
    result_fraction_of_inner: float = 1.0  # join result = 100 % of inner scan output
    fudge_factor: float = 1.05  # hash table overhead F
    arrival_rate_per_pe: float = 0.25  # queries per second per PE (multi-user)


@dataclass(frozen=True)
class OltpConfig:
    """Debit-credit (TPC-B-like) OLTP transaction profile (§5.3).

    Each transaction performs four non-clustered index selects on relations
    other than A and B and updates the corresponding tuples.  Affinity-based
    routing achieves largely local processing.
    """

    tuple_accesses: int = 4
    arrival_rate_per_node: float = 100.0  # transactions per second per OLTP node
    placement: str = "A"  # "A" nodes (Fig. 9a) or "B" nodes (Fig. 9b)
    index_levels: int = 2  # non-clustered B+-tree levels traversed per select
    buffer_hit_ratio: float = 0.92  # fraction of page accesses served from buffer
    log_io_per_commit: int = 1
    # Steady-state LRU footprint of OLTP pages in the global buffer.  The LRU
    # buffer of an OLTP node fills up with account/index pages, which is what
    # makes the memory-aware strategies steer join work away from OLTP nodes
    # (§5.3).  Calibrated together with the hit ratio and per-call overhead so
    # that 100 TPS per node load a node to roughly the paper's figures
    # (~50 % CPU, ~60 % disk).
    working_set_pages: int = 44
    instructions_per_call_overhead: int = 8_000


@dataclass(frozen=True)
class NodeClass:
    """A hardware class covering a contiguous block of PEs.

    Classes scale the uniform Fig. 4 baseline: ``mips_factor`` multiplies the
    CPU speed, ``memory_factor`` the buffer pool size, and ``disk_factor`` the
    disk/controller *speed* (2.0 halves every per-page and access time).  A
    class covers either an absolute ``count`` of PEs or a ``fraction`` of the
    system; classes claim contiguous blocks starting at PE 0 in declaration
    order, and any remaining PEs keep the unscaled default hardware.  A class
    whose factors are all 1.0 is indistinguishable from the default.
    """

    name: str
    count: Optional[int] = None
    fraction: Optional[float] = None
    mips_factor: float = 1.0
    memory_factor: float = 1.0
    disk_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node class needs a non-empty name")
        if (self.count is None) == (self.fraction is None):
            raise ValueError(f"node class {self.name!r}: give exactly one of count/fraction")
        if self.count is not None and self.count < 1:
            raise ValueError(f"node class {self.name!r}: count must be >= 1")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"node class {self.name!r}: fraction must be in (0, 1]")
        for label in ("mips_factor", "memory_factor", "disk_factor"):
            if getattr(self, label) <= 0.0:
                raise ValueError(f"node class {self.name!r}: {label} must be > 0")

    @property
    def is_default_hardware(self) -> bool:
        """True when the class does not alter any resource."""
        return self.mips_factor == 1.0 and self.memory_factor == 1.0 and self.disk_factor == 1.0

    def resolve_count(self, num_pe: int) -> int:
        """PEs covered by this class in a system of ``num_pe`` nodes."""
        if self.count is not None:
            return min(self.count, num_pe)
        return min(num_pe, max(1, round(num_pe * self.fraction)))


@dataclass(frozen=True)
class TopologyConfig:
    """Tiered interconnect topology: racks grouped into regions.

    PEs map onto racks (and racks onto regions) as contiguous blocks.  A
    message between two PEs is charged per tier: same rack keeps the flat
    Fig. 4 wire parameters, crossing racks multiplies the per-packet latency
    by ``cross_rack_latency_factor`` and divides the bandwidth by
    ``cross_rack_bandwidth_factor`` (factors >= 1 slow the wire down), and
    crossing regions uses the ``cross_region_*`` factors.  The default is a
    single rack, which is bit-identical to the historical flat interconnect.
    """

    racks: int = 1
    regions: int = 1
    cross_rack_latency_factor: float = 1.0
    cross_rack_bandwidth_factor: float = 1.0
    cross_region_latency_factor: float = 1.0
    cross_region_bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.racks < 1:
            raise ValueError("topology needs at least one rack")
        if self.regions < 1:
            raise ValueError("topology needs at least one region")
        if self.regions > self.racks:
            raise ValueError("cannot have more regions than racks")
        for label in (
            "cross_rack_latency_factor",
            "cross_rack_bandwidth_factor",
            "cross_region_latency_factor",
            "cross_region_bandwidth_factor",
        ):
            if getattr(self, label) <= 0.0:
                raise ValueError(f"topology {label} must be > 0")

    @property
    def is_flat(self) -> bool:
        """True when every (src, dst) pair sees the uniform wire."""
        if self.racks <= 1:
            return True
        if self.cross_rack_latency_factor != 1.0 or self.cross_rack_bandwidth_factor != 1.0:
            return False
        if self.regions <= 1:
            return True
        return (
            self.cross_region_latency_factor == 1.0
            and self.cross_region_bandwidth_factor == 1.0
        )

    def rack_of(self, pe_id: int, num_pe: int) -> int:
        """Rack index of ``pe_id`` (contiguous blocks of PEs per rack)."""
        if num_pe <= 0:
            return 0
        return min(self.racks - 1, max(0, pe_id) * self.racks // num_pe)

    def region_of_rack(self, rack: int) -> int:
        """Region index of ``rack`` (contiguous blocks of racks per region)."""
        return min(self.regions - 1, max(0, rack) * self.regions // self.racks)

    def tier_between(self, src: int, dst: int, num_pe: int) -> int:
        """0 = same rack, 1 = cross-rack same region, 2 = cross-region."""
        if src == dst or self.racks <= 1:
            return 0
        src_rack = self.rack_of(src, num_pe)
        dst_rack = self.rack_of(dst, num_pe)
        if src_rack == dst_rack:
            return 0
        if self.region_of_rack(src_rack) == self.region_of_rack(dst_rack):
            return 1
        return 2

    def latency_factor(self, tier: int) -> float:
        """Per-packet wire-latency multiplier for ``tier``."""
        if tier <= 0:
            return 1.0
        if tier == 1:
            return self.cross_rack_latency_factor
        return self.cross_region_latency_factor

    def bandwidth_factor(self, tier: int) -> float:
        """Bandwidth divisor (>= 1 slows the link) for ``tier``."""
        if tier <= 0:
            return 1.0
        if tier == 1:
            return self.cross_rack_bandwidth_factor
        return self.cross_region_bandwidth_factor


@dataclass(frozen=True)
class ControlConfig:
    """Dynamic load-balancing control parameters (§3)."""

    report_interval: float = 0.1  # how often PEs report utilisation (seconds)
    cpu_reduction_exponent: float = 3.0  # exponent in formula (3.2)
    adaptive_cpu_increment: float = 0.05  # artificial CPU increase per assigned join (LUC)
    # Calibration factor on the per-processor startup cost in the analytic
    # cost model's psu-opt search.  At 0.72 the optima are 9 / 31 / 68 join
    # processors for 0.1 / 1 / 5 % scan selectivity, against the paper's
    # reported 10 / 30 / 70 (benchmarks/results/figure4_parameters.txt).
    cost_model_startup_factor: float = 0.72


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of one simulated Shared Nothing system."""

    num_pe: int = 40
    multiprogramming_level: int = 10  # max concurrent transactions per PE
    cpu: CpuConfig = field(default_factory=CpuConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    buffer: BufferConfig = field(default_factory=BufferConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    costs: InstructionCosts = field(default_factory=InstructionCosts)
    control: ControlConfig = field(default_factory=ControlConfig)
    relation_a: RelationConfig = field(default_factory=default_relation_a)
    relation_b: RelationConfig = field(default_factory=default_relation_b)
    join_query: JoinQueryConfig = field(default_factory=JoinQueryConfig)
    oltp: Optional[OltpConfig] = None
    # Heterogeneous hardware: contiguous PE blocks per class starting at PE 0
    # (declaration order); PEs beyond the declared classes keep the uniform
    # Fig. 4 hardware.  Empty tuple + single-rack topology = historical system.
    node_classes: Tuple[NodeClass, ...] = ()
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    # Replica placement policy for every relation: ``None`` (single-copy
    # Shared Nothing, the paper's system), ``"mirror"`` (each fragment has a
    # full backup on its partner PE) or ``"chained"`` (chained declustering:
    # the backup lives on the next PE of the relation's decluster ring, so a
    # failed PE's read load spreads across the survivors).
    replication: Optional[str] = None
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_pe < 1:
            raise ValueError("num_pe must be >= 1")
        if self.replication is not None and self.replication not in REPLICATION_POLICIES:
            raise ValueError(
                f"unknown replication policy {self.replication!r}; "
                f"expected one of {REPLICATION_POLICIES} (or None)"
            )
        if self.multiprogramming_level < 1:
            raise ValueError("multiprogramming_level must be >= 1")
        blocks: list[tuple[int, int, NodeClass]] = []
        if self.node_classes:
            names = [node_class.name for node_class in self.node_classes]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate node class names: {names}")
            start = 0
            for node_class in self.node_classes:
                count = node_class.resolve_count(self.num_pe)
                if start + count > self.num_pe:
                    raise ValueError(
                        f"node classes cover more than num_pe={self.num_pe} PEs"
                    )
                blocks.append((start, start + count, node_class))
                start += count
        object.__setattr__(self, "_class_blocks", tuple(blocks))
        object.__setattr__(self, "_effective_cache", {})

    # -- derived quantities ----------------------------------------------
    @property
    def a_node_count(self) -> int:
        """Number of PEs holding fragments of relation A (at least 1)."""
        return max(1, round(self.num_pe * self.relation_a.declustering_fraction))

    @property
    def b_node_count(self) -> int:
        """Number of PEs holding fragments of relation B (the rest)."""
        return max(1, self.num_pe - self.a_node_count)

    @property
    def a_node_ids(self) -> tuple[int, ...]:
        """PE identifiers owning relation A fragments (0-based, first block)."""
        return tuple(range(self.a_node_count))

    @property
    def b_node_ids(self) -> tuple[int, ...]:
        """PE identifiers owning relation B fragments."""
        return tuple(range(self.a_node_count, self.a_node_count + self.b_node_count))

    # -- heterogeneous hardware ------------------------------------------
    def node_class_of(self, pe_id: int) -> Optional[NodeClass]:
        """The :class:`NodeClass` covering ``pe_id`` (None = default hardware)."""
        for start, end, node_class in self._class_blocks:
            if start <= pe_id < end:
                return node_class
        return None

    def node_class_name(self, pe_id: int) -> str:
        """Class name for ``pe_id`` (``"default"`` for uncovered PEs)."""
        node_class = self.node_class_of(pe_id)
        return node_class.name if node_class is not None else "default"

    def effective_cpu(self, pe_id: int) -> CpuConfig:
        """CPU configuration of ``pe_id``; the *same object* as ``self.cpu``
        for default-hardware PEs so the uniform path stays bit-identical."""
        node_class = self.node_class_of(pe_id)
        if node_class is None or node_class.mips_factor == 1.0:
            return self.cpu
        key = ("cpu", node_class.name)
        cached = self._effective_cache.get(key)
        if cached is None:
            cached = self._effective_cache[key] = self.cpu.scaled(node_class.mips_factor)
        return cached

    def effective_disk(self, pe_id: int) -> DiskConfig:
        """Disk configuration of ``pe_id``; ``disk_factor`` scales *speed*
        (see :meth:`DiskConfig.scaled`)."""
        node_class = self.node_class_of(pe_id)
        if node_class is None or node_class.disk_factor == 1.0:
            return self.disk
        key = ("disk", node_class.name)
        cached = self._effective_cache.get(key)
        if cached is None:
            cached = self._effective_cache[key] = self.disk.scaled(node_class.disk_factor)
        return cached

    def effective_buffer_pages(self, pe_id: int) -> int:
        """Buffer pool size (pages) of ``pe_id``."""
        node_class = self.node_class_of(pe_id)
        if node_class is None or node_class.memory_factor == 1.0:
            return self.buffer.buffer_pages
        return max(1, round(self.buffer.buffer_pages * node_class.memory_factor))

    def cpu_factor(self, pe_id: int) -> float:
        """Relative CPU speed of ``pe_id`` (1.0 = default hardware)."""
        node_class = self.node_class_of(pe_id)
        return node_class.mips_factor if node_class is not None else 1.0

    @property
    def mean_mips_factor(self) -> float:
        """System-wide mean relative CPU speed (1.0 for uniform systems)."""
        total = float(self.num_pe)
        for start, end, node_class in self._class_blocks:
            total += (end - start) * (node_class.mips_factor - 1.0)
        return total / self.num_pe

    def with_overrides(self, **overrides) -> "SystemConfig":
        """Return a copy with selected top-level fields replaced."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """One-line human-readable summary used by the CLI and reports."""
        oltp = (
            f", OLTP {self.oltp.arrival_rate_per_node:g} TPS on {self.oltp.placement} nodes"
            if self.oltp
            else ""
        )
        classes = ""
        if self.node_classes:
            parts = ", ".join(
                f"{end - start}x{node_class.name}"
                for start, end, node_class in self._class_blocks
            )
            classes = f", classes [{parts}]"
        topo = "" if self.topology.is_flat else f", {self.topology.racks} racks"
        repl = "" if self.replication is None else f", {self.replication} replication"
        return (
            f"{self.num_pe} PE x {self.cpu.mips:g} MIPS, "
            f"{self.buffer.buffer_pages} buffer pages, "
            f"{self.disk.disks_per_pe} disks/PE, "
            f"join selectivity {self.join_query.scan_selectivity:.2%}"
            f"{oltp}{classes}{topo}{repl}"
        )
