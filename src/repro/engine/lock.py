"""Distributed strict two-phase locking.

Each PE owns the locks for the data stored on it; a transaction acquires
locks at whichever PE it touches and holds them until commit (strict 2PL,
long read and write locks -- paper §4).  Lock waits are reported to the
central deadlock detector (:mod:`repro.engine.deadlock`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, Dict, Optional

from repro.sim import Environment, Event

__all__ = ["LockMode", "DeadlockAbort", "LockManager"]


class LockMode(str, Enum):
    """Lock modes: shared (read) and exclusive (write)."""

    SHARED = "S"
    EXCLUSIVE = "X"


class DeadlockAbort(Exception):
    """Raised in a waiting transaction chosen as a deadlock victim."""

    def __init__(self, txn_id: int):
        super().__init__(f"transaction {txn_id} aborted to break a deadlock")
        self.txn_id = txn_id


@dataclass
class _LockRequest:
    txn_id: int
    mode: LockMode
    event: Event


class _LockEntry:
    """Holders of one lock, and its FIFO of waiters (``None`` until one waits)."""

    __slots__ = ("holders", "waiters")

    def __init__(self, txn_id: int, mode: LockMode):
        self.holders: Dict[int, LockMode] = {txn_id: mode}
        self.waiters: Optional[Deque[_LockRequest]] = None


def _compatible(entry: _LockEntry, txn_id: int, mode: LockMode) -> bool:
    """Whether ``txn_id`` may hold ``mode`` beside the entry's other holders.

    Only shared/shared is compatible.  Every OLTP tuple access takes a lock,
    so this is a hot path.
    """
    if mode is LockMode.SHARED:
        for holder, held_mode in entry.holders.items():
            if holder != txn_id and held_mode is not LockMode.SHARED:
                return False
        return True
    for holder in entry.holders:
        if holder != txn_id:
            return False
    return True


class LockManager:
    """Lock table of a single PE."""

    def __init__(self, env: Environment, pe_id: int = 0, deadlock_detector=None):
        self.env = env
        self.pe_id = pe_id
        self.deadlock_detector = deadlock_detector
        self._table: Dict[object, _LockEntry] = {}
        # Resources held per transaction, as an insertion-ordered dict used as
        # an ordered set: release_all must walk (and wake waiters) in lock
        # acquisition order.  Resource keys contain strings, so a plain set's
        # iteration order would vary with PYTHONHASHSEED and make mixed
        # OLTP workloads (Fig. 9) irreproducible across interpreter runs.
        self._held_by_txn: Dict[int, Dict[object, None]] = {}

    # -- acquisition ---------------------------------------------------------
    def acquire(self, txn_id: int, resource: object, mode: LockMode) -> Event:
        """Request a lock; the returned event triggers when it is granted.

        The event fails with :class:`DeadlockAbort` if the transaction is
        chosen as a deadlock victim while waiting.
        """
        event = Event(self.env)
        entry = self._table.get(resource)
        if entry is None:
            # First touch: the entry is born holding the lock.
            self._table[resource] = _LockEntry(txn_id, mode)
            held_by_txn = self._held_by_txn
            held = held_by_txn.get(txn_id)
            if held is None:
                held_by_txn[txn_id] = {resource: None}
            else:
                held[resource] = None
            event.succeed(mode)
            return event
        held = entry.holders.get(txn_id)
        if held is not None and (held is LockMode.EXCLUSIVE or mode is LockMode.SHARED):
            # Already held in a sufficient mode.
            event.succeed(mode)
            return event
        waiters = entry.waiters
        if not waiters and _compatible(entry, txn_id, mode):
            # FIFO fairness: nobody jumps the queue.
            self._grant(entry, txn_id, resource, mode)
            event.succeed(mode)
            return event
        # Must wait: register the waits-for edges for deadlock detection.
        if waiters is None:
            waiters = entry.waiters = deque()
        waiters.append(_LockRequest(txn_id=txn_id, mode=mode, event=event))
        if self.deadlock_detector is not None:
            for holder in entry.holders:
                if holder != txn_id:
                    self.deadlock_detector.add_wait(txn_id, holder)
        return event

    def _grant(self, entry: _LockEntry, txn_id: int, resource: object, mode: LockMode) -> None:
        current = entry.holders.get(txn_id)
        if current is None or mode is LockMode.EXCLUSIVE:
            entry.holders[txn_id] = mode
        self._held_by_txn.setdefault(txn_id, {})[resource] = None

    # -- release ----------------------------------------------------------------
    def release_all(self, txn_id: int) -> None:
        """Release every lock held by ``txn_id`` (commit or abort time)."""
        resources = self._held_by_txn.pop(txn_id, ())
        if self.deadlock_detector is not None:
            self.deadlock_detector.remove_transaction(txn_id)
        for resource in resources:
            entry = self._table.get(resource)
            if entry is None:
                continue
            entry.holders.pop(txn_id, None)
            if entry.waiters:
                self._wake_waiters(resource, entry)
            if not entry.holders and not entry.waiters:
                self._table.pop(resource, None)

    def _wake_waiters(self, resource: object, entry: _LockEntry) -> None:
        while entry.waiters:
            request = entry.waiters[0]
            if not _compatible(entry, request.txn_id, request.mode):
                return
            entry.waiters.popleft()
            self._grant(entry, request.txn_id, resource, request.mode)
            if self.deadlock_detector is not None:
                self.deadlock_detector.remove_wait_edges(request.txn_id)
                # Re-add edges for any other queue it might still sit in
                # (a transaction only waits for one lock at a time in this
                # simulator, so nothing to re-add in practice).
            request.event.succeed(request.mode)

    # -- deadlock victim handling ---------------------------------------------------
    def abort_waiter(self, txn_id: int) -> bool:
        """Abort a *waiting* transaction: fail its pending request.

        Returns True if the transaction was found waiting at this PE.
        """
        found = False
        for resource, entry in list(self._table.items()):
            if not entry.waiters:
                continue
            remaining: Deque[_LockRequest] = deque()
            for request in entry.waiters:
                if request.txn_id == txn_id:
                    found = True
                    request.event.fail(DeadlockAbort(txn_id))
                else:
                    remaining.append(request)
            entry.waiters = remaining
            if found:
                self._wake_waiters(resource, entry)
        if found:
            self.release_all(txn_id)
        return found

    # -- crash cleanup ----------------------------------------------------------------
    def purge_txn(self, txn_id: int) -> None:
        """Silently drop every trace of ``txn_id`` (fault-injection kill).

        Unlike :meth:`abort_waiter`, pending requests are removed *without*
        failing their events -- the waiting process has already been killed,
        and failing an event nobody listens to would raise at environment
        level.  Held locks are released and compatible waiters are woken.
        """
        for resource, entry in list(self._table.items()):
            if not entry.waiters:
                continue
            remaining: Deque[_LockRequest] = deque(
                request for request in entry.waiters if request.txn_id != txn_id
            )
            if len(remaining) != len(entry.waiters):
                entry.waiters = remaining
                self._wake_waiters(resource, entry)
                if not entry.holders and not entry.waiters:
                    self._table.pop(resource, None)
        self.release_all(txn_id)
