"""Workload units: join queries and OLTP transactions.

The paper's evaluation runs two transaction types (§5): read-only two-way
join queries and debit-credit OLTP transactions.  The classes below are
plain descriptions -- the execution layer (:mod:`repro.execution`)
interprets them, and :meth:`ParallelSystem.submit` rejects any other type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Transaction", "JoinQuery", "OltpTransaction"]


_transaction_ids = itertools.count(1)


@dataclass
class Transaction:
    """Base class for everything that enters the system.

    ``txn_id`` is globally unique; ``arrival_time`` is stamped by the workload
    generator and ``coordinator_pe`` by the router.
    """

    arrival_time: float = 0.0
    coordinator_pe: Optional[int] = None
    txn_id: int = field(default_factory=lambda: next(_transaction_ids))


@dataclass
class JoinQuery(Transaction):
    """A two-way join query with selections on both inputs (paper §5.1).

    Both selections use clustered indices; their outputs are dynamically
    redistributed among the join processors chosen by the load balancing
    strategy.  The join result has the same cardinality as the scan output on
    the inner relation A.
    """

    inner_relation: str = "A"
    outer_relation: str = "B"
    scan_selectivity: float = 0.01
    result_fraction_of_inner: float = 1.0
    fudge_factor: float = 1.05

    # Filled in at completion time by the execution layer.
    overflow_pages: int = 0
    memory_wait_time: float = 0.0


@dataclass
class OltpTransaction(Transaction):
    """A debit-credit style OLTP transaction (four selects + updates)."""

    home_pe: Optional[int] = None
    tuple_accesses: int = 4
