"""Per-PE transaction manager.

The transaction manager controls the (distributed) execution of transactions
on its PE.  The maximal number of concurrent transactions (inter-transaction
parallelism) per PE is bounded by a multiprogramming level; newly arriving
transactions wait in an input queue when the limit is reached (paper §4).
"""

from __future__ import annotations

from repro.sim import Environment, Resource

__all__ = ["TransactionManager"]


class TransactionManager:
    """Admission control for one PE: one MPL slot per running transaction."""

    def __init__(self, env: Environment, pe_id: int, multiprogramming_level: int):
        if multiprogramming_level < 1:
            raise ValueError("multiprogramming level must be >= 1")
        self._slots = Resource(env, capacity=multiprogramming_level, name=f"mpl[{pe_id}]")

    # -- admission ------------------------------------------------------------
    def admit(self):
        """Simulation step: wait for a free MPL slot.

        Returns the slot request which must be passed to :meth:`finish`.
        Usage::

            slot = yield from txn_manager.admit()
            ...
            txn_manager.finish(slot)
        """
        request = self._slots.request()
        try:
            yield request
        except BaseException:
            # Aborted (killed / deadlock-failed) while waiting for or holding
            # an unconsumed slot: give it back so the MPL slot cannot leak.
            self._slots.release(request)
            raise
        return request

    def finish(self, slot_request) -> None:
        """Release the MPL slot at end of transaction."""
        self._slots.release(slot_request)

    # -- inspection -------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Transactions currently holding an MPL slot on this PE."""
        return self._slots.count

    @property
    def input_queue_length(self) -> int:
        """Transactions waiting for admission."""
        return self._slots.queue_length
