"""Per-PE transaction manager.

The transaction manager controls the (distributed) execution of transactions
on its PE.  The maximal number of concurrent transactions (inter-transaction
parallelism) per PE is bounded by a multiprogramming level; newly arriving
transactions wait in an input queue when the limit is reached (paper §4).
"""

from __future__ import annotations

from typing import Dict

from repro.sim import Environment, Resource
from repro.sim.resources import Request

__all__ = ["TransactionManager"]


class TransactionManager:
    """Admission control for one PE: one MPL slot per running transaction."""

    def __init__(self, env: Environment, pe_id: int, multiprogramming_level: int):
        if multiprogramming_level < 1:
            raise ValueError("multiprogramming level must be >= 1")
        self._slots = Resource(env, capacity=multiprogramming_level, name=f"mpl[{pe_id}]")
        #: Slot request of every transaction holding or waiting for a slot.
        self._requests: Dict[int, Request] = {}

    # -- admission ------------------------------------------------------------
    def admit(self, txn_id: int) -> Request:
        """Request a free MPL slot for ``txn_id``; the request triggers when granted.

        Usage (inside a simulation process)::

            yield txn_manager.admit(txn_id)
            ...
            txn_manager.finish(txn_id)

        A transaction killed before :meth:`finish` gets its slot (or its
        place in the input queue) back through :meth:`purge_txn`.
        """
        request = self._requests[txn_id] = self._slots.request()
        return request

    def finish(self, txn_id: int) -> None:
        """Release the MPL slot at end of transaction."""
        self._slots.release(self._requests.pop(txn_id))

    def purge_txn(self, txn_id: int) -> None:
        """Release or cancel a killed transaction's slot request, if any."""
        request = self._requests.pop(txn_id, None)
        if request is not None:
            self._slots.release(request)

    # -- inspection -------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Transactions currently holding an MPL slot on this PE."""
        return self._slots.count
