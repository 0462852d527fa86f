"""The complete simulated Shared Nothing database machine.

:class:`ParallelSystem` wires together everything the paper's simulation
system contains (Fig. 3): the processing elements with their local
components, the communication network, the database allocation, the control
node for dynamic load balancing, central deadlock detection, and the
transaction processing paths for join queries and OLTP transactions.
"""

from __future__ import annotations

import random
from typing import List, Optional, Union

from repro.config.parameters import OltpConfig, SystemConfig
from repro.database.catalog import Catalog
from repro.engine.deadlock import DeadlockDetector
from repro.engine.pe import ProcessingElement
from repro.execution.oltp import execute_oltp_transaction
from repro.execution.parallel_join import execute_join_query
from repro.faults.injector import FaultRuntime
from repro.hardware.network import Network
from repro.metrics.collector import MetricsCollector
from repro.scheduling.control_node import ControlNode
from repro.scheduling.cost_model import CostModel
from repro.scheduling.strategy import (
    LoadBalancingStrategy,
    SchedulingContext,
    make_strategy,
)
from repro.sim import Environment
from repro.workload.query import JoinQuery, OltpTransaction, Transaction
from repro.workload.router import AffinityRouter, RandomRouter
from repro.workload.tpcb import build_cost_profile

__all__ = ["ParallelSystem"]


class ParallelSystem:
    """A runnable Shared Nothing system with a selected load balancing strategy."""

    def __init__(
        self,
        config: SystemConfig,
        strategy: Union[str, LoadBalancingStrategy] = "OPT-IO-CPU",
        env: Optional[Environment] = None,
        faults=(),
    ):
        self.config = config
        self.env = env if env is not None else Environment()
        self.strategy: LoadBalancingStrategy = (
            make_strategy(strategy, seed=config.seed) if isinstance(strategy, str) else strategy
        )

        # Hardware and node components.
        self.deadlock_detector = DeadlockDetector(
            self.env, detection_interval=1.0, abort_callback=self._abort_waiter
        )
        self.pes: List[ProcessingElement] = [
            ProcessingElement(self.env, pe_id, config, self.deadlock_detector)
            for pe_id in range(config.num_pe)
        ]
        self.network = Network(
            self.env,
            config.network,
            config.costs,
            topology=config.topology,
            num_pe=config.num_pe,
        )
        self.catalog = Catalog.from_config(config)
        self.cost_model = CostModel(config)
        self.control_node = ControlNode(self.env, self.pes, config.control)
        self.metrics = MetricsCollector(self.env)

        # Workload routing.
        self._join_router = RandomRouter(list(range(config.num_pe)), seed=config.seed + 1)
        oltp_nodes = (
            config.a_node_ids
            if config.oltp is not None and config.oltp.placement.upper() == "A"
            else config.b_node_ids
        )
        self._oltp_router = AffinityRouter(
            oltp_pe_ids=list(oltp_nodes) or [0],
            all_pe_ids=list(range(config.num_pe)),
            seed=config.seed + 2,
        )
        self._oltp_profile = build_cost_profile(config.oltp or OltpConfig(), config.costs)
        self._oltp_rng = random.Random(config.seed + 3)

        # The driver's open-workload generator registers itself here so the
        # fault injector can couple arrival surges to crashes.
        self.workload_generator = None

        # Fault injection.  ``faults`` is a sequence of FaultEvent records
        # (``None`` reads as no events); an empty plan injects nothing and
        # schedules no event, so fault-free runs keep their outputs.
        self.faults = FaultRuntime(self, faults or ())
        self._started = False

    # -- lifecycle ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background control processes (reporting, deadlock sweep)."""
        if self._started:
            return
        self._started = True
        self.control_node.start()
        self.deadlock_detector.start()
        self.faults.start()

    def _abort_waiter(self, txn_id: int) -> bool:
        aborted = False
        for pe in self.pes:
            aborted = pe.locks.abort_waiter(txn_id) or aborted
        return aborted

    # -- submission ---------------------------------------------------------------------
    def submit(self, transaction: Transaction) -> None:
        """Accept a new transaction or query (called by the workload generator)."""
        self.start()
        if isinstance(transaction, JoinQuery):
            self._join_router.route(transaction)
        elif isinstance(transaction, OltpTransaction):
            self._oltp_router.route(transaction)
        else:
            raise TypeError(f"unsupported transaction type: {type(transaction).__name__}")
        self._launch(transaction)

    def _launch(self, transaction: Transaction) -> bool:
        """Gate a routed transaction and start it; False when it is held
        until the PEs it needs are back (arrivals and resubmissions alike)."""
        faults = self.faults
        if not faults.on_submit(transaction):
            return False
        run = self._run_join if isinstance(transaction, JoinQuery) else self._run_oltp
        faults.track(transaction, self.env.process(run(transaction)))
        return True

    # -- execution paths --------------------------------------------------------------------
    def scheduling_context(self) -> SchedulingContext:
        return SchedulingContext(
            cost_model=self.cost_model,
            control=self.control_node,
            eligible_processors=self.faults.eligible_processors(),
        )

    # A killed transaction's MPL slot goes back through the fault runtime
    # (``purge_txn``), like its locks and pages, and not through a finally
    # block here: the transactions still running when a run ends are closed
    # by the garbage collector later, and must not touch the ended run.
    def _run_join(self, query: JoinQuery):
        coordinator = self.pes[query.coordinator_pe]
        yield coordinator.transactions.admit(query.txn_id)
        plan = self.strategy.plan_join(query, self.scheduling_context())
        self.faults.note_plan(query, plan.processors)
        yield from execute_join_query(self, query, plan)
        self.metrics.record_join(
            response_time=self.env.now - query.arrival_time,
            degree=plan.degree,
            overflow_pages=query.overflow_pages,
            memory_wait=query.memory_wait_time,
        )
        coordinator.transactions.finish(query.txn_id)

    def _run_oltp(self, transaction: OltpTransaction):
        # The transaction's whole life, MPL slot included, is one generator.
        return execute_oltp_transaction(self, transaction, self._oltp_profile, self._oltp_rng)

    # -- convenience ---------------------------------------------------------------------------
    def average_cpu_utilization(self) -> float:
        return self.metrics.average_cpu_utilization(self.pes)

    def average_disk_utilization(self) -> float:
        return self.metrics.average_disk_utilization(self.pes)

    def average_memory_utilization(self) -> float:
        return self.metrics.average_memory_utilization(self.pes)

    def describe(self) -> str:
        return f"{self.config.describe()} | strategy {self.strategy.name}"
