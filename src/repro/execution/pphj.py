"""Partially Preemptible Hash Join (PPHJ) at a single join processor.

PPHJ [23] is the memory-adaptive local join method used by the paper: both
join inputs are split into ``p = ceil(sqrt(F * b_i))`` partitions; at least
``p`` pages of working space are required to start, and as many inner (A)
partitions as possible are kept memory-resident.  If memory is taken away by
higher-priority transactions, memory-resident partitions are written to disk;
arriving outer (B) tuples whose partition is not resident are spooled to a
temporary partition and joined later (deferred join).

A join subquery is only started once its minimal working space is available,
otherwise it waits in the buffer manager's FCFS memory queue (paper §4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

from repro.config.parameters import InstructionCosts
from repro.engine.buffer import BufferManager, WorkingSpace
from repro.hardware.cpu import PRIORITY_QUERY
from repro.hardware.network import Network

__all__ = ["JoinProcessorShare", "PPHJExecutor"]


@dataclass(frozen=True)
class JoinProcessorShare:
    """The share of a parallel hash join assigned to one join processor."""

    inner_tuples: int
    outer_tuples: int
    result_tuples: int
    tuple_size_bytes: int
    blocking_factor: int
    fudge_factor: float

    @property
    def inner_pages(self) -> int:
        return max(1, math.ceil(self.inner_tuples / self.blocking_factor)) if self.inner_tuples else 0

    @property
    def outer_pages(self) -> int:
        return max(1, math.ceil(self.outer_tuples / self.blocking_factor)) if self.outer_tuples else 0

    @property
    def hash_table_pages(self) -> int:
        """Pages needed to keep this processor's inner partitions resident."""
        return max(1, math.ceil(self.inner_pages * self.fudge_factor))

    @property
    def num_partitions(self) -> int:
        """PPHJ partition count p = ceil(sqrt(F * b_i)) (at least 1)."""
        return max(1, math.ceil(math.sqrt(self.fudge_factor * max(1, self.inner_pages))))

    @property
    def min_pages(self) -> int:
        """Minimal working space: one page per partition."""
        return self.num_partitions


class PPHJExecutor:
    """Executes one join processor's share of a parallel hash join."""

    def __init__(
        self,
        pe,
        share: JoinProcessorShare,
        network: Network,
        costs: InstructionCosts,
        desired_pages: Optional[int] = None,
        priority: int = PRIORITY_QUERY,
        owner: str = "join",
        inner_sources: int = 1,
        outer_sources: int = 1,
        coordinator_pe: Optional[int] = None,
    ):
        self.pe = pe
        self.env = pe.env
        self.share = share
        self.network = network
        self.costs = costs
        self.priority = priority
        self.owner = owner
        self.inner_sources = max(1, inner_sources)
        self.outer_sources = max(1, outer_sources)
        # Destination of the result stream (for tiered-topology wire costs).
        self.coordinator_pe = coordinator_pe
        self.desired_pages = (
            desired_pages if desired_pages is not None else share.hash_table_pages
        )
        # Execution state / statistics.
        self.working_space: Optional[WorkingSpace] = None
        self.memory_wait_time = 0.0
        self.overflow_inner_pages = 0
        self.overflow_outer_pages = 0

    # -- memory management -------------------------------------------------------
    def acquire_memory(self) -> Generator:
        """Wait in the FCFS memory queue until the minimal space is available."""
        start = self.env.now
        buffer: BufferManager = self.pe.buffer
        desired = min(self.desired_pages, buffer.total_pages)
        minimum = min(self.share.min_pages, buffer.total_pages, desired)
        self.working_space = yield buffer.reserve(
            self.owner, desired_pages=desired, min_pages=minimum
        )
        self.memory_wait_time = self.env.now - start

    def release_memory(self) -> None:
        if self.working_space is not None:
            self.pe.buffer.release(self.working_space)

    def _resident_fraction(self) -> float:
        """Fraction of the inner hash table currently memory-resident."""
        if self.share.hash_table_pages == 0:
            return 1.0
        pages = self.working_space.pages if self.working_space is not None else 0
        return max(0.0, min(1.0, pages / self.share.hash_table_pages))

    def _receive_instructions(self, nbytes: int, sources: int) -> float:
        """CPU cost of receiving ``nbytes`` redistributed from ``sources`` nodes.

        The receive overhead is paid per logical message (the tuples from one
        producer arrive as one stream), the copy overhead per arriving packet.
        Since every producer sends at least one partially filled packet, a
        higher number of data processors increases the receive-side cost --
        part of the redistribution overhead the paper attributes to large
        systems (§5.2, footnote 8).
        """
        if nbytes <= 0:
            return 0.0
        message_packets = self.network.packets_for(nbytes)
        per_source = max(1, math.ceil(nbytes / max(1, sources)))
        arriving_packets = max(
            message_packets, sources * self.network.packets_for(per_source)
        )
        return (
            message_packets * self.costs.receive_message
            + arriving_packets * self.costs.copy_message_packet
        )

    # -- build phase -----------------------------------------------------------------
    def build_phase(self) -> Generator:
        """Receive the inner relation share and build the (partial) hash table."""
        share = self.share
        costs = self.costs
        pe = self.pe
        priority = self.priority
        if share.inner_tuples > 0:
            receive_bytes = share.inner_tuples * share.tuple_size_bytes
            cpu = self._receive_instructions(receive_bytes, self.inner_sources)
            cpu += share.inner_tuples * (costs.hash_tuple + costs.insert_into_hash_table)
            yield from pe.cpu.consume(cpu, priority=priority)

        resident = self._resident_fraction()
        self.overflow_inner_pages = math.ceil((1.0 - resident) * share.inner_pages)
        if self.overflow_inner_pages > 0:
            prefetch = pe.disks.prefetch
            ios = math.ceil(self.overflow_inner_pages / prefetch)
            yield from pe.cpu.consume(ios * costs.io_operation, priority=priority)
            yield from pe.disks.write_sequential(self.overflow_inner_pages)

    # -- probe phase --------------------------------------------------------------------
    def probe_phase(self) -> Generator:
        """Receive the outer share, probe resident partitions, spool the rest,
        perform the deferred join for disk-resident partitions and ship the
        result to the coordinator."""
        share = self.share
        costs = self.costs
        pe = self.pe
        priority = self.priority
        resident = self._resident_fraction()

        if share.outer_tuples > 0:
            receive_bytes = share.outer_tuples * share.tuple_size_bytes
            cpu = self._receive_instructions(receive_bytes, self.outer_sources)
            cpu += share.outer_tuples * costs.hash_tuple
            resident_tuples = round(resident * share.outer_tuples)
            spooled_tuples = share.outer_tuples - resident_tuples
            cpu += resident_tuples * costs.probe_hash_table
            cpu += spooled_tuples * costs.write_tuple_to_output
            yield from pe.cpu.consume(cpu, priority=priority)

            self.overflow_outer_pages = (
                math.ceil(spooled_tuples / share.blocking_factor) if spooled_tuples else 0
            )
            if self.overflow_outer_pages > 0:
                prefetch = pe.disks.prefetch
                ios = math.ceil(self.overflow_outer_pages / prefetch)
                yield from pe.cpu.consume(ios * costs.io_operation, priority=priority)
                yield from pe.disks.write_sequential(self.overflow_outer_pages)

        # Deferred join of disk-resident partitions.
        deferred_pages = self.overflow_inner_pages + self.overflow_outer_pages
        if deferred_pages > 0:
            deferred_inner_tuples = round((1.0 - resident) * share.inner_tuples)
            deferred_outer_tuples = round((1.0 - resident) * share.outer_tuples)
            prefetch = pe.disks.prefetch
            ios = math.ceil(deferred_pages / prefetch)
            cpu = ios * costs.io_operation
            cpu += deferred_inner_tuples * (
                costs.read_tuple + costs.hash_tuple + costs.insert_into_hash_table
            )
            cpu += deferred_outer_tuples * (costs.read_tuple + costs.probe_hash_table)
            io_process = self.env.process(pe.disks.read_sequential(deferred_pages))
            cpu_process = self.env.process(pe.cpu.consume(cpu, priority=priority))
            yield self.env.all_of([io_process, cpu_process])

        # Produce and ship the result tuples.
        if share.result_tuples > 0:
            result_bytes = share.result_tuples * share.tuple_size_bytes
            cpu = share.result_tuples * costs.write_tuple_to_output
            cpu += self.network.send_instructions(result_bytes)
            yield from pe.cpu.consume(cpu, priority=priority)
            yield from self.network.transfer(
                result_bytes, src=pe.pe_id, dst=self.coordinator_pe
            )

    # -- combined statistics -----------------------------------------------------------------
    @property
    def overflow_pages(self) -> int:
        """Total temporary-file pages written by this join processor."""
        return self.overflow_inner_pages + self.overflow_outer_pages
