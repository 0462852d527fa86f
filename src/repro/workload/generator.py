"""Open-queuing workload generation.

The simulation system is an open queuing model: every transaction and query
type has its own arrival process (paper §4).  Arrival processes are Poisson
(exponential inter-arrival times) by default.  Fixed spacing and
non-stationary profiles (bursty MMPP, sinusoidal, load surges, trace replay)
plug in through :mod:`repro.workload.arrivals`: any :class:`WorkloadClass`
can carry an :class:`~repro.workload.arrivals.ArrivalProcess` that sets its
inter-arrival times over simulated time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.config.parameters import SystemConfig
from repro.sim import Environment
from repro.workload.arrivals import ArrivalProcess, make_arrival_process
from repro.workload.query import JoinQuery, OltpTransaction, Transaction

__all__ = ["ArrivalProcess", "WorkloadClass", "WorkloadSpec", "WorkloadGenerator"]

#: Type of the factory creating a fresh transaction for each arrival.
TransactionFactory = Callable[[], Transaction]
#: Type of the sink receiving generated transactions (the system driver).
Submitter = Callable[[Transaction], None]


@dataclass
class WorkloadClass:
    """One transaction/query class with its own arrival stream.

    ``arrival_rate`` is the class's (mean) rate in arrivals per second over
    the whole system.  By default arrivals are Poisson at that rate; setting
    ``arrival`` to an :class:`~repro.workload.arrivals.ArrivalProcess`
    instead samples that process (fixed spacing, or a non-stationary
    profile) -- ``arrival_rate`` then documents the profile's long-run mean.
    """

    name: str
    factory: TransactionFactory
    arrival_rate: float  # arrivals per second over the whole system
    arrival: Optional[ArrivalProcess] = None  # fixed or non-stationary profile

    def interarrival(self, rng: random.Random, now: float = 0.0) -> float:
        if self.arrival is not None:
            return self.arrival.interarrival(now, rng)
        if self.arrival_rate <= 0:
            return float("inf")
        return rng.expovariate(self.arrival_rate)

    def begin_stream(self) -> None:
        """Reset any modulating arrival-process state before a sampling pass."""
        if self.arrival is not None:
            self.arrival.reset()


@dataclass
class WorkloadSpec:
    """A heterogeneous workload: a list of classes sharing one random seed."""

    classes: List[WorkloadClass] = field(default_factory=list)
    seed: int = 42

    def add(self, workload_class: WorkloadClass) -> "WorkloadSpec":
        self.classes.append(workload_class)
        return self

    def with_arrival_profile(
        self,
        kind: str,
        params: Optional[Mapping[str, float] | Sequence[Tuple[str, float]]] = None,
    ) -> "WorkloadSpec":
        """Copy of this spec with every class carrying an arrival profile.

        Each class keeps its own mean rate; the profile (``mmpp``, ``sine``,
        ``step``, ...) modulates that rate over time.  ``kind="poisson"``
        normalises to the default sampler, so a profiled spec with
        ``poisson`` draws streams bit-identical to the unprofiled spec.
        """
        if kind == "poisson" and not params:
            classes = [replace(cls, arrival=None) for cls in self.classes]
        else:
            classes = [
                replace(cls, arrival=make_arrival_process(kind, cls.arrival_rate, params))
                for cls in self.classes
            ]
        return WorkloadSpec(classes=classes, seed=self.seed)

    @classmethod
    def for_config(cls, config: SystemConfig) -> "WorkloadSpec":
        """The default workload of a configuration: joins, plus OLTP if set."""
        return (
            cls.mixed_join_oltp(config)
            if config.oltp is not None
            else cls.homogeneous_join(config)
        )

    @classmethod
    def homogeneous_join(
        cls, config: SystemConfig, arrival_rate_per_pe: Optional[float] = None
    ) -> "WorkloadSpec":
        """Join-only workload: rate grows proportionally with the system size."""
        join_cfg = config.join_query
        rate_per_pe = (
            join_cfg.arrival_rate_per_pe if arrival_rate_per_pe is None else arrival_rate_per_pe
        )

        def make_join() -> JoinQuery:
            return JoinQuery(
                inner_relation=config.relation_a.name,
                outer_relation=config.relation_b.name,
                scan_selectivity=join_cfg.scan_selectivity,
                result_fraction_of_inner=join_cfg.result_fraction_of_inner,
                fudge_factor=join_cfg.fudge_factor,
            )

        spec = cls(seed=config.seed)
        spec.add(
            WorkloadClass(
                name="join",
                factory=make_join,
                arrival_rate=rate_per_pe * config.num_pe,
            )
        )
        return spec

    @classmethod
    def mixed_join_oltp(cls, config: SystemConfig) -> "WorkloadSpec":
        """Heterogeneous workload: joins plus debit-credit OLTP (Fig. 9)."""
        if config.oltp is None:
            raise ValueError("mixed workload requires config.oltp to be set")
        spec = cls.homogeneous_join(config)
        oltp_cfg = config.oltp
        oltp_nodes = (
            config.a_node_ids if oltp_cfg.placement.upper() == "A" else config.b_node_ids
        )
        rng = random.Random(config.seed + 7)

        def make_oltp() -> OltpTransaction:
            return OltpTransaction(
                home_pe=rng.choice(oltp_nodes),
                tuple_accesses=oltp_cfg.tuple_accesses,
            )

        spec.add(
            WorkloadClass(
                name="oltp",
                factory=make_oltp,
                arrival_rate=oltp_cfg.arrival_rate_per_node * len(oltp_nodes),
            )
        )
        return spec


class WorkloadGenerator:
    """Drives the arrival processes of a :class:`WorkloadSpec`.

    For every class, a simulation process draws inter-arrival times, stamps
    the new transaction with its arrival time and hands it to the submitter
    (normally ``ParallelSystem.submit``).
    """

    def __init__(self, env: Environment, spec: WorkloadSpec, submit: Submitter):
        self.env = env
        self.spec = spec
        self.submit = submit
        #: Multiplier on every class's arrival rate, adjusted at runtime by
        #: the fault injector's cascading-overload (surge) coupling.  At the
        #: default 1.0 the sampled delays pass through untouched, keeping the
        #: per-class RNG streams byte-identical to surge-free runs.
        self.rate_scale = 1.0

    def start(self) -> None:
        """Start one arrival process per workload class."""
        for index, workload_class in enumerate(self.spec.classes):
            # Deterministic per-class seed (independent of PYTHONHASHSEED).
            rng = random.Random(self.spec.seed * 1009 + index)
            self.env.process(self._arrivals(workload_class, rng))

    def _arrivals(self, workload_class: WorkloadClass, rng: random.Random):
        if workload_class.arrival_rate <= 0 and workload_class.arrival is None:
            return
            yield  # pragma: no cover - makes this a generator
        workload_class.begin_stream()
        while True:
            delay = workload_class.interarrival(rng, self.env.now)
            if delay == float("inf"):
                return  # exhausted (e.g. a finite trace) or rate dropped to 0
            if self.rate_scale != 1.0:
                delay /= self.rate_scale
            yield self.env.timeout(delay)
            transaction = workload_class.factory()
            transaction.arrival_time = self.env.now
            self.submit(transaction)
