"""Execution of debit-credit (TPC-B-like) OLTP transactions.

Each transaction runs entirely on its home node (affinity-based routing,
paper §5.3): four non-clustered index selects on node-local relations
followed by updates of the selected tuples, a forced log write and a local
commit.  OLTP work runs at higher CPU priority than complex queries and its
buffer footprint may steal memory from running hash joins (footnote 4 /
PPHJ adaptation).
"""

from __future__ import annotations

import random
from typing import Generator

from repro.config.parameters import InstructionCosts
from repro.engine.lock import LockMode
from repro.hardware.cpu import PRIORITY_OLTP
from repro.workload.query import OltpTransaction
from repro.workload.tpcb import OltpCostProfile

__all__ = ["execute_oltp_transaction"]


def execute_oltp_transaction(
    system,
    transaction: OltpTransaction,
    profile: OltpCostProfile,
    rng: random.Random,
) -> Generator:
    """Simulation process running one OLTP transaction on its home PE.

    The whole life of the transaction is this one generator: it waits for
    an MPL slot, runs, records its response time and frees the slot.  A
    transaction killed on the way gets its slot, locks and pages back
    through the fault runtime's purge, not through a ``finally`` here.
    """
    pe = system.pes[transaction.home_pe]
    txn_id = transaction.txn_id
    transactions = pe.transactions
    yield transactions.admit(txn_id)

    config = system.config
    costs: InstructionCosts = config.costs
    cpu = pe.cpu
    disks = pe.disks
    locks = pe.locks

    # Maintain the OLTP buffer footprint on this node (steals from joins if
    # necessary -- a running PPHJ join then spools the partitions it can no
    # longer keep resident).
    pe.buffer.ensure_oltp_footprint(profile.working_set_pages)

    # BOT.
    yield from cpu.consume(costs.initiate_transaction, priority=PRIORITY_OLTP)

    # Acquire exclusive locks on the accessed tuples (page-granularity ids on
    # the node-local account relation; disjoint from A and B so no conflicts
    # with join queries).  Lock tables and disk caches are per PE, so the
    # tuple (or page) number alone is the key.
    for access in range(transaction.tuple_accesses):
        yield locks.acquire(txn_id, rng.randrange(10_000), LockMode.EXCLUSIVE)

    # CPU for index traversals, tuple reads and updates (aggregated).
    yield from cpu.consume(profile.cpu_instructions, priority=PRIORITY_OLTP)

    # Physical reads for buffer misses.
    misses = 0
    for access in range(profile.page_reads):
        if rng.random() > profile.buffer_hit_ratio:
            misses += 1
    for miss in range(misses):
        yield from disks.read_random(page_key=rng.randrange(5_000))

    # Commit: force the log, then release locks (strict 2PL).
    for _ in range(profile.log_writes):
        yield from disks.write_random()

    # Replica maintenance: with a replicated database the updates must also
    # be shipped to and forced at the backup copy of this node's fragment
    # before commit (eager replication keeps failover copies current).
    if config.replication is not None and "ACCT" in system.catalog:
        backup_pe_id = system.catalog.relation("ACCT").backup_of(pe.pe_id)
        if backup_pe_id is not None and backup_pe_id != pe.pe_id:
            backup_pe = system.pes[backup_pe_id]
            network = system.network
            for _ in range(profile.log_writes):
                yield from cpu.consume(costs.send_message, priority=PRIORITY_OLTP)
                yield from network.transfer(
                    config.buffer.page_size_bytes, src=pe.pe_id, dst=backup_pe_id
                )
                yield from backup_pe.cpu.consume(
                    costs.receive_message, priority=PRIORITY_OLTP
                )
                yield from backup_pe.disks.write_random()

    yield from cpu.consume(costs.terminate_transaction, priority=PRIORITY_OLTP)
    locks.release_all(txn_id)
    system.metrics.record_oltp(system.env.now - transaction.arrival_time)
    transactions.finish(txn_id)
