"""Parallel hash join orchestration across scan and join processors.

Execution follows the paper's two-phase scheme (§2):

1. *Building phase*: a parallel scan on the smaller (inner) relation A at its
   data processors; the output is dynamically redistributed among the join
   processors chosen by the load balancing strategy, which build (partially
   memory-resident) hash tables with the PPHJ algorithm.
2. *Probing phase*: the outer relation B is scanned in parallel at its data
   processors and redistributed with the same partitioning function; arriving
   tuples probe the hash tables (or are spooled for the deferred join).

The coordinator starts the subqueries, merges the result streams (PAROP) and
runs the distributed commit with the read-only optimisation.
"""

from __future__ import annotations

from typing import Generator, List

from repro.config.parameters import InstructionCosts
from repro.database.allocation import failover_scan_sites, split_evenly
from repro.engine.lock import LockMode
from repro.engine.twopc import run_commit
from repro.execution.operators import parop_merge_instructions, plan_scan, scan_fragment
from repro.execution.pphj import JoinProcessorShare, PPHJExecutor
from repro.hardware.cpu import PRIORITY_QUERY
from repro.scheduling.strategy import JoinPlan
from repro.workload.query import JoinQuery

__all__ = ["execute_join_query"]


def _scan_sites(system, relation):
    """Scan sites ``(pe_id, fragment, fraction)`` for one relation.

    Primaries serve their own fragments in full unless the system runs with
    replication and some PE is currently dead, in which case reads fail over
    to surviving copies (chained declustering splits the load across the
    ring).  Falls back to the primaries when no alive copy exists -- the
    fault runtime holds such queries before they reach execution.
    """
    dead = system.faults.dead_pes()
    if dead and relation.backups:
        sites = failover_scan_sites(relation, dead)
        if sites is not None:
            return sites
    return [(pe_id, None, 1.0) for pe_id in relation.node_ids]


def execute_join_query(
    system,
    query: JoinQuery,
    plan: JoinPlan,
    priority: int = PRIORITY_QUERY,
) -> Generator:
    """Simulation process executing one join query end to end.

    ``system`` is a :class:`~repro.simulation.system.ParallelSystem`-like
    object exposing ``env``, ``pes``, ``network``, ``catalog`` and
    ``config``.  At the end it sets the query's ``overflow_pages`` and
    ``memory_wait_time``.
    """
    env = system.env
    config = system.config
    costs: InstructionCosts = config.costs
    network = system.network
    coordinator = system.pes[query.coordinator_pe]

    inner = system.catalog.relation(query.inner_relation)
    outer = system.catalog.relation(query.outer_relation)
    join_pes = [system.pes[pe_id] for pe_id in plan.processors]

    # -- BOT at the coordinator.
    yield from coordinator.cpu.consume(costs.initiate_transaction, priority=priority)

    # -- scan sites for both inputs (replica-aware when PEs are dead).
    inner_sites = _scan_sites(system, inner)
    outer_sites = _scan_sites(system, outer)
    inner_scan_pes = sorted({pe_id for pe_id, _, _ in inner_sites})
    outer_scan_pes = sorted({pe_id for pe_id, _, _ in outer_sites})

    # -- acquire relation-level shared locks at the scan nodes (strict 2PL;
    #    no conflicts with OLTP, which touches different relations).
    for pe_id in inner_scan_pes:
        yield system.pes[pe_id].locks.acquire(query.txn_id, inner.name, LockMode.SHARED)
    for pe_id in outer_scan_pes:
        yield system.pes[pe_id].locks.acquire(query.txn_id, outer.name, LockMode.SHARED)

    # -- start the subqueries: one control message per participating PE.
    #    The coordinator issues all sends back to back; delivery and
    #    receive-side processing proceed in parallel at the participants.
    participants = sorted(set(inner_scan_pes) | set(outer_scan_pes) | set(plan.processors))
    remote_ids = [pe_id for pe_id in participants if pe_id != coordinator.pe_id]
    yield from coordinator.cpu.consume(
        costs.send_message * len(remote_ids), priority=priority
    )

    def _deliver_start(pe):
        yield from network.transfer(256, src=coordinator.pe_id, dst=pe.pe_id)
        yield from pe.cpu.consume(costs.receive_message, priority=priority)

    yield env.all_of(
        [env.process(_deliver_start(system.pes[pe_id])) for pe_id in remote_ids]
    )

    # -- distribute the per-join-processor shares of the redistributed input.
    profile = system.cost_model.profile(query)
    inner_shares = split_evenly(profile.inner_tuples, plan.degree)
    outer_shares = split_evenly(profile.outer_tuples, plan.degree)
    result_shares = split_evenly(profile.result_tuples, plan.degree)

    executors: List[PPHJExecutor] = []
    for index, pe in enumerate(join_pes):
        share = JoinProcessorShare(
            inner_tuples=inner_shares[index],
            outer_tuples=outer_shares[index],
            result_tuples=result_shares[index],
            tuple_size_bytes=profile.tuple_size_bytes,
            blocking_factor=config.relation_a.blocking_factor,
            fudge_factor=query.fudge_factor,
        )
        executors.append(
            PPHJExecutor(
                pe,
                share,
                network,
                costs,
                # Ask for enough memory for this processor's own share (the
                # plan's estimate is an average and may round down).
                desired_pages=max(plan.pages_per_processor, share.hash_table_pages),
                priority=priority,
                owner=f"join-{query.txn_id}",
                inner_sources=len(inner_sites),
                outer_sources=len(outer_sites),
                coordinator_pe=coordinator.pe_id,
            )
        )

    # -- the join processors first secure their working space (FCFS memory queue).
    yield env.all_of([env.process(executor.acquire_memory()) for executor in executors])

    try:
        # -- building phase: parallel scan on A at its data processors with
        #    dataflow-pipelined redistribution into the join processors' hash
        #    builds (modelled by running scans and builds concurrently).
        building = []
        for pe_id, fragment, fraction in inner_sites:
            work = plan_scan(
                inner, pe_id, query.scan_selectivity, profile.tuple_size_bytes,
                fragment=fragment, fraction=fraction,
            )
            building.append(
                env.process(
                    scan_fragment(
                        system.pes[pe_id], work, network, costs, plan.degree, priority,
                        destination_ids=plan.processors,
                    )
                )
            )
        building.extend(env.process(executor.build_phase()) for executor in executors)
        yield env.all_of(building)

        # -- probing phase: parallel scan on B pipelined into probing and the
        #    deferred join; result streams are merged at the coordinator
        #    (PAROP) as they arrive.
        probing = []
        for pe_id, fragment, fraction in outer_sites:
            work = plan_scan(
                outer, pe_id, query.scan_selectivity, profile.tuple_size_bytes,
                fragment=fragment, fraction=fraction,
            )
            probing.append(
                env.process(
                    scan_fragment(
                        system.pes[pe_id], work, network, costs, plan.degree, priority,
                        destination_ids=plan.processors,
                    )
                )
            )
        probing.extend(env.process(executor.probe_phase()) for executor in executors)

        result_bytes = profile.result_tuples * profile.tuple_size_bytes
        merge_cpu = parop_merge_instructions(costs, network, result_bytes, plan.degree)
        probing.append(env.process(coordinator.cpu.consume(merge_cpu, priority=priority)))
        yield env.all_of(probing)
    finally:
        for executor in executors:
            executor.release_memory()

    # -- distributed commit (read-only optimisation: single round).
    participant_pes = [system.pes[pe_id] for pe_id in participants if pe_id != coordinator.pe_id]
    yield from run_commit(coordinator, participant_pes, network, priority=priority)
    for pe_id in participants:
        system.pes[pe_id].locks.release_all(query.txn_id)
    coordinator.locks.release_all(query.txn_id)

    # -- EOT.
    yield from coordinator.cpu.consume(costs.terminate_transaction, priority=priority)

    query.overflow_pages = sum(executor.overflow_pages for executor in executors)
    query.memory_wait_time = max(
        (executor.memory_wait_time for executor in executors), default=0.0
    )
