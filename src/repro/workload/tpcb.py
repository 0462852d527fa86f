"""Debit-credit (TPC-B-like) OLTP workload helpers.

The paper's OLTP workload is "similar to the one of the debit-credit (TPC-B)
benchmark": each transaction performs four non-clustered index selects on
arbitrary input relations and updates the corresponding tuples (§5.1), and is
routed with affinity so that processing is largely local (§5.3).

This module provides a cost profile for one such transaction -- the execution
layer turns the profile into CPU, buffer and disk requests on the home PE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.parameters import InstructionCosts, OltpConfig

__all__ = ["OltpCostProfile", "build_cost_profile"]


@dataclass(frozen=True)
class OltpCostProfile:
    """Aggregate resource demand of a single debit-credit transaction."""

    cpu_instructions: float
    page_reads: int  # logical page reads (index + data)
    buffer_hit_ratio: float  # fraction served without disk I/O
    log_writes: int  # synchronous log I/Os at commit
    working_set_pages: int  # OLTP buffer footprint kept on the home PE


def build_cost_profile(config: OltpConfig, costs: InstructionCosts) -> OltpCostProfile:
    """Derive the per-transaction cost profile from the OLTP configuration.

    Per select: traverse ``index_levels`` non-clustered index pages plus one
    data page, read the tuple; per update: modify the tuple and write it into
    the output buffer.  BOT/EOT and per-I/O overhead come from the instruction
    cost table.  Calibrated so that 100 TPS per node yields roughly 50 % CPU,
    60 % disk and 45 % memory utilisation on the paper's configuration
    (§5.3).
    """
    selects = config.tuple_accesses
    pages_per_select = config.index_levels + 1
    page_reads = selects * pages_per_select

    cpu = float(costs.initiate_transaction + costs.terminate_transaction)
    # CPU for page accesses: every logical page access pays the I/O overhead
    # share proportional to the miss ratio plus tuple handling.
    expected_misses = page_reads * (1.0 - config.buffer_hit_ratio)
    cpu += expected_misses * costs.io_operation
    cpu += selects * (costs.read_tuple * pages_per_select)
    # Updates: re-write the tuple and log it.
    cpu += selects * (costs.read_tuple + costs.write_tuple_to_output)
    cpu += config.log_io_per_commit * costs.io_operation
    cpu += selects * config.instructions_per_call_overhead

    return OltpCostProfile(
        cpu_instructions=cpu,
        page_reads=page_reads,
        buffer_hit_ratio=config.buffer_hit_ratio,
        log_writes=config.log_io_per_commit,
        working_set_pages=config.working_set_pages,
    )
