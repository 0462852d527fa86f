"""Coordinator placement: first level of workload allocation.

Each incoming transaction or query is assigned to one processor acting as
its coordinator (paper §4).  Join queries use random placement uniformly over
all PEs (Fig. 4); OLTP transactions use affinity-based routing so that they
run locally on the nodes owning their data (§5.3, [25]).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.workload.query import OltpTransaction, Transaction

__all__ = ["RandomRouter", "AffinityRouter"]


class RandomRouter:
    """Uniform random placement over a set of candidate PEs."""

    def __init__(self, pe_ids: Sequence[int], seed: int = 0):
        if not pe_ids:
            raise ValueError("RandomRouter needs at least one PE")
        self._pe_ids = list(pe_ids)
        self._rng = random.Random(seed)

    def route(self, transaction: Transaction) -> int:
        pe = self._rng.choice(self._pe_ids)
        transaction.coordinator_pe = pe
        return pe


class AffinityRouter:
    """Affinity-based routing for OLTP: transactions run on their home node.

    Non-OLTP transactions fall back to a uniform random choice over all PEs.
    """

    def __init__(self, oltp_pe_ids: Sequence[int], all_pe_ids: Sequence[int], seed: int = 0):
        if not oltp_pe_ids:
            raise ValueError("AffinityRouter needs at least one OLTP PE")
        self._oltp_pe_ids = list(oltp_pe_ids)
        self._fallback = RandomRouter(all_pe_ids, seed=seed)
        self._rng = random.Random(seed + 1)

    def route(self, transaction: Transaction) -> int:
        if isinstance(transaction, OltpTransaction):
            pe = (
                transaction.home_pe
                if transaction.home_pe is not None
                else self._rng.choice(self._oltp_pe_ids)
            )
            transaction.home_pe = pe
            transaction.coordinator_pe = pe
            return pe
        return self._fallback.route(transaction)
