"""Analytic cost model for parallel hash join processing.

The paper derives the single-user optimal degree of join parallelism
``psu-opt`` from an analytic response-time formula in the style of [34, 17]
(see §2): response time improves with more join processors while the work per
processor shrinks faster than the startup/termination and communication
overhead grows.  This module provides that formula, the derived optima and
the two other degrees the load balancing strategies need:

* ``psu_opt``   -- the single-user optimum (minimiser of the formula);
* ``psu_noIO``  -- formula (3.1): the minimal number of processors whose
  aggregate memory avoids temporary file I/O in single-user mode;
* ``pmu_cpu``   -- formula (3.2): the CPU-utilisation-reduced multi-user
  degree.

The constants come from the Fig. 4 instruction cost table; a single
calibration factor on the per-processor startup cost reproduces the paper's
reported optima (psu-opt ≈ 10 / 30 / 70 for 0.1 / 1 / 5 % scan selectivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.config.parameters import SystemConfig
from repro.workload.query import JoinQuery

__all__ = ["JoinProfile", "CostModel"]


@dataclass(frozen=True)
class JoinProfile:
    """Static characteristics of one join query needed by the cost model."""

    inner_tuples: int  # tuples produced by the selection on the inner relation
    outer_tuples: int  # tuples produced by the selection on the outer relation
    result_tuples: int
    tuple_size_bytes: int
    inner_pages: int  # pages of the inner scan output
    outer_pages: int
    fudge_factor: float

    @property
    def hash_table_pages(self) -> int:
        """Pages needed to keep the inner relation's hash table memory-resident."""
        return max(1, math.ceil(self.inner_pages * self.fudge_factor))


class CostModel:
    """Analytic response-time model and derived degrees of parallelism."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.costs = config.costs
        self.control = config.control
        # psu-opt / psu-noIO are pure functions of the cost-relevant query
        # fields (config is frozen), but evaluating psu-opt scans ~2n degrees
        # through the response-time formula.  Queries of one workload class
        # share these fields, so the per-run cache collapses that to one
        # evaluation per class.
        self._psu_opt_cache: dict = {}
        self._psu_no_io_cache: dict = {}
        self._effective_mips = config.cpu.mips * config.mean_mips_factor
        self._buffer_capacity_vector = tuple(
            sorted(
                (config.effective_buffer_pages(pe) for pe in range(config.num_pe)),
                reverse=True,
            )
        )

    @staticmethod
    def _query_key(query: JoinQuery) -> tuple:
        return (
            query.inner_relation,
            query.outer_relation,
            query.scan_selectivity,
            query.result_fraction_of_inner,
            query.fudge_factor,
        )

    # -- query profile -------------------------------------------------------
    def profile(self, query: JoinQuery) -> JoinProfile:
        """Derive the static join profile for a query from the database config."""
        inner_cfg = (
            self.config.relation_a
            if query.inner_relation == self.config.relation_a.name
            else self.config.relation_b
        )
        outer_cfg = (
            self.config.relation_b
            if query.outer_relation == self.config.relation_b.name
            else self.config.relation_a
        )
        inner_tuples = round(inner_cfg.num_tuples * query.scan_selectivity)
        outer_tuples = round(outer_cfg.num_tuples * query.scan_selectivity)
        result_tuples = round(inner_tuples * query.result_fraction_of_inner)
        return JoinProfile(
            inner_tuples=inner_tuples,
            outer_tuples=outer_tuples,
            result_tuples=result_tuples,
            tuple_size_bytes=inner_cfg.tuple_size_bytes,
            inner_pages=inner_cfg.pages_for_tuples(inner_tuples),
            outer_pages=outer_cfg.pages_for_tuples(outer_tuples),
            fudge_factor=query.fudge_factor,
        )

    # -- formula (3.1): psu-noIO ------------------------------------------------
    def psu_no_io(self, query: JoinQuery) -> int:
        """Minimal degree of parallelism avoiding temporary file I/O.

        psu-noIO = MIN(n, ceil(bi * F / m)) with bi the inner scan output in
        pages, F the fudge factor and m the buffer size per processor.  With
        per-PE buffer pools "m per processor" becomes the capacity vector:
        the result is the smallest k whose k largest buffer pools hold the
        hash table (the scalar formula when all pools match).
        """
        key = self._query_key(query)
        cached = self._psu_no_io_cache.get(key)
        if cached is None:
            profile = self.profile(query)
            needed = profile.inner_pages * profile.fudge_factor
            cached = self.config.num_pe
            held = 0.0
            for index, pages in enumerate(self._buffer_capacity_vector):
                held += pages
                if held >= needed:
                    cached = index + 1
                    break
            self._psu_no_io_cache[key] = cached
        return cached

    # -- single-user response time R(p) ------------------------------------------
    def estimate_response_time(self, query: JoinQuery, degree: int) -> float:
        """Estimated single-user response time with ``degree`` join processors.

        The formula mirrors the structure of the simulated execution: a
        parallel scan/redistribution phase whose duration is independent of
        the degree of join parallelism, a per-processor join phase (CPU and,
        if memory does not suffice, temporary file I/O) and a per-processor
        startup/termination overhead at the coordinator.
        """
        if degree < 1:
            raise ValueError("degree must be >= 1")
        profile = self.profile(query)
        mips = self._effective_mips * 1e6
        network = self.config.network
        costs = self.costs

        # -- coordinator: BOT/EOT plus per-join-processor control messages.
        per_jp_instructions = (
            (costs.send_message + costs.receive_message)
            * 2
            * self.control.cost_model_startup_factor
        )
        coordinator_seconds = (
            costs.initiate_transaction
            + costs.terminate_transaction
            + degree * per_jp_instructions
        ) / mips

        # -- scan phase (independent of the degree of join parallelism).
        scan_nodes_inner = max(1, self.config.a_node_count)
        scan_nodes_outer = max(1, self.config.b_node_count)
        inner_pages_per_node = math.ceil(profile.inner_pages / scan_nodes_inner)
        outer_pages_per_node = math.ceil(profile.outer_pages / scan_nodes_outer)
        prefetch = max(1, self.config.disk.prefetch_pages)

        def scan_seconds(pages_per_node: int, tuples_per_node: int) -> float:
            ios = math.ceil(pages_per_node / prefetch)
            io_time = ios * self.config.disk.sequential_io_time(
                min(prefetch, max(1, pages_per_node))
            )
            cpu = (
                ios * costs.io_operation
                + tuples_per_node * costs.read_tuple
                + tuples_per_node * costs.hash_tuple  # partitioning hash
            )
            # Redistribution: send the scan output to the join processors.
            out_bytes = tuples_per_node * profile.tuple_size_bytes
            packets = network.packets_for(out_bytes) if tuples_per_node else 0
            cpu += packets * (costs.send_message + costs.copy_message_packet)
            return max(io_time, cpu / mips)

        scan_phase = max(
            scan_seconds(
                inner_pages_per_node,
                math.ceil(profile.inner_tuples / scan_nodes_inner),
            ),
            scan_seconds(
                outer_pages_per_node,
                math.ceil(profile.outer_tuples / scan_nodes_outer),
            ),
        )

        # -- join phase: work of one join processor (1/degree of the input).
        inner_share = profile.inner_tuples / degree
        outer_share = profile.outer_tuples / degree
        result_share = profile.result_tuples / degree
        in_bytes = (inner_share + outer_share) * profile.tuple_size_bytes
        in_packets = network.packets_for(int(in_bytes)) if in_bytes else 0
        out_bytes = result_share * profile.tuple_size_bytes
        out_packets = network.packets_for(int(out_bytes)) if out_bytes else 0

        join_cpu = (
            in_packets * (costs.receive_message + costs.copy_message_packet)
            + inner_share * (costs.hash_tuple + costs.insert_into_hash_table)
            + outer_share * (costs.hash_tuple + costs.probe_hash_table)
            + result_share * costs.write_tuple_to_output
            + out_packets * (costs.send_message + costs.copy_message_packet)
        )

        # Temporary file I/O if the aggregate memory of `degree` processors
        # cannot hold the inner hash table (single-user: full buffers free).
        pages_needed = profile.hash_table_pages / degree
        pages_available = self.config.buffer.buffer_pages
        overflow_inner = max(0.0, pages_needed - pages_available)
        overflow_fraction = overflow_inner / pages_needed if pages_needed else 0.0
        outer_pages_share = profile.outer_pages / degree
        overflow_pages = overflow_inner * 2 + overflow_fraction * outer_pages_share * 2
        overflow_ios = math.ceil(overflow_pages / prefetch) if overflow_pages else 0
        join_io = overflow_ios * self.config.disk.sequential_io_time(prefetch)
        join_cpu += overflow_ios * costs.io_operation

        join_phase = max(join_io, join_cpu / mips)

        return coordinator_seconds + scan_phase + join_phase

    # -- psu-opt -------------------------------------------------------------------
    def psu_opt(self, query: JoinQuery, max_degree: Optional[int] = None) -> int:
        """Single-user optimal degree of join parallelism.

        The optimum is found by evaluating the response-time formula over a
        range of degrees.  It may exceed the number of processors in the
        system (the paper reports psu-opt = 70 > n = 60 for 5 % selectivity);
        callers cap it at ``n`` when allocating processors.
        """
        limit = max_degree if max_degree is not None else max(2 * self.config.num_pe, 128)
        key = (*self._query_key(query), limit)
        cached = self._psu_opt_cache.get(key)
        if cached is None:
            best_degree = 1
            best_time = float("inf")
            for degree in range(1, limit + 1):
                estimate = self.estimate_response_time(query, degree)
                if estimate < best_time - 1e-12:
                    best_time = estimate
                    best_degree = degree
            cached = self._psu_opt_cache[key] = best_degree
        return cached

    # -- formula (3.2): pmu-cpu -------------------------------------------------------
    def pmu_cpu(self, query: JoinQuery, cpu_utilization: float) -> int:
        """CPU-utilisation-adapted multi-user degree of parallelism.

        pmu-cpu = psu-opt * (1 - ucpu^3): reductions mostly kick in above
        50 % utilisation, where the parallelisation overhead is no longer
        affordable.
        """
        utilization = min(1.0, max(0.0, cpu_utilization))
        exponent = self.control.cpu_reduction_exponent
        susceptible = self.psu_opt(query)
        reduced = susceptible * (1.0 - utilization**exponent)
        return max(1, min(self.config.num_pe, round(reduced)))
