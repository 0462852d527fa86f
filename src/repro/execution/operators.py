"""Relational operators: scans and the PAROP redistribution helper.

The query processing system models basic relational operators (sort, scan,
join) as well as a parallelisation meta-operator (PAROP) used for dynamically
redistributing data among processors and for merging multiple inputs
(paper §4).  Operators are expressed as *work profiles* plus simulation
processes that charge the CPU, disk and network of the PE they run on.

To keep the event count manageable, CPU work is charged in aggregated
requests (per scan chunk / per message) rather than per tuple; the total
demand is identical to a per-tuple accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro.config.parameters import InstructionCosts
from repro.database.relation import Fragment, Relation
from repro.hardware.cpu import PRIORITY_QUERY
from repro.hardware.network import Network

__all__ = ["ScanWork", "scan_fragment", "redistribution_packets", "parop_merge_instructions"]


@dataclass(frozen=True)
class ScanWork:
    """Static work profile of one scan subquery on one fragment."""

    matching_tuples: int
    data_pages: int
    index_pages: int
    output_bytes: int

    @property
    def total_pages(self) -> int:
        return self.data_pages + self.index_pages


def plan_scan(
    relation: Relation,
    pe_id: int,
    selectivity: float,
    tuple_size_bytes: int,
    fragment: Optional[Fragment] = None,
    fraction: float = 1.0,
) -> ScanWork:
    """Compute the work profile of a clustered-index scan on one fragment.

    ``fragment``/``fraction`` support replica failover: a site may scan an
    explicit fragment copy (possibly hosted on a PE other than the fragment's
    primary) and only a fraction of it, as under chained declustering's
    balanced post-failure split.
    """
    if fragment is None:
        fragment = relation.fragment_on(pe_id)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"scan fraction {fraction} outside (0, 1]")
    index_pages = relation.index.height if relation.index is not None else 0
    if fraction == 1.0:
        matching = fragment.matching_tuples(selectivity)
        data_pages = fragment.matching_pages(selectivity)
    else:
        matching = round(fragment.matching_tuples(selectivity) * fraction)
        data_pages = (
            math.ceil(matching / fragment.blocking_factor) if matching > 0 else 0
        )
    return ScanWork(
        matching_tuples=matching,
        data_pages=data_pages,
        index_pages=index_pages,
        output_bytes=matching * tuple_size_bytes,
    )


def redistribution_packets(
    network: Network, output_bytes: int, destinations: int
) -> int:
    """Packets needed to redistribute ``output_bytes`` over ``destinations``.

    Splitting a scan output over many join processors fragments it into more,
    partially filled packets: every destination needs at least one packet.
    This is one of the reasons a higher degree of join parallelism increases
    the communication overhead (paper §2).
    """
    if output_bytes <= 0 or destinations <= 0:
        return 0
    per_destination = math.ceil(output_bytes / destinations)
    return destinations * network.packets_for(per_destination)


def parop_merge_instructions(
    costs: InstructionCosts, network: Network, result_bytes: int, sources: int
) -> float:
    """CPU instructions at the coordinator for merging ``sources`` result streams."""
    if result_bytes <= 0:
        return 0.0
    packets = redistribution_packets(network, result_bytes, max(1, sources))
    return packets * (costs.receive_message + costs.copy_message_packet)


def scan_fragment(
    pe,
    work: ScanWork,
    network: Network,
    costs: InstructionCosts,
    destinations: int,
    priority: int = PRIORITY_QUERY,
    destination_ids: Optional[Sequence[int]] = None,
) -> Generator:
    """Simulation process: execute one scan subquery on ``pe``.

    Reads the matching pages through the clustered index (sequential,
    prefetched), pays the per-tuple CPU costs (read + partitioning hash) and
    the send-side communication costs for redistributing the output to
    ``destinations`` join processors.  The wire transfer itself is waited on
    once for the node's whole output; when ``destination_ids`` are known, a
    tiered topology charges the slowest (src, dst) tier of the fan-out.
    """
    env = pe.env
    prefetch = pe.disks.prefetch

    pages = work.total_pages
    if pages > 0:
        physical_ios = math.ceil(pages / prefetch)
        # I/O and CPU overlap: run the disk reads and the CPU work as two
        # concurrent sub-processes and wait for both (dataflow pipelining).
        io_process = env.process(pe.disks.read_sequential(pages))
        cpu_instructions = (
            physical_ios * costs.io_operation
            + work.matching_tuples * (costs.read_tuple + costs.hash_tuple)
        )
        cpu_process = env.process(pe.cpu.consume(cpu_instructions, priority=priority))
        yield env.all_of([io_process, cpu_process])

    if work.output_bytes > 0 and destinations > 0:
        packets = redistribution_packets(network, work.output_bytes, destinations)
        send_instructions = packets * (costs.send_message + costs.copy_message_packet)
        yield from pe.cpu.consume(send_instructions, priority=priority)
        yield from network.transfer(work.output_bytes, src=pe.pe_id, dst=destination_ids)
