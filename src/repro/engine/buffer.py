"""Main-memory buffer manager of a processing element.

The database buffer consists of a *global buffer* shared by all transactions
and *private working spaces* used for query processing, e.g. the hash tables
of hash joins (paper §4).  Working spaces are dynamically assigned by
reserving a number of pages for a (sub)query.

Memory is the central contended resource for the paper's load balancing
strategies, so this module implements:

* FCFS reservation of working space with a minimum requirement -- a join is
  only started once its minimal space is available, otherwise it waits in a
  *memory queue* (§4, hash join processing);
* an OLTP footprint with priority: pages demanded by OLTP transactions are
  taken from the free pool first and *stolen* from the largest join
  reservation if necessary; the hash join adapts to the smaller
  ``WorkingSpace.pages`` it reads next;
* utilisation accounting for the control node (the LUM policy and the
  integrated strategies need per-node "available memory").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.sim import Environment, Event, TimeWeightedMonitor

__all__ = ["WorkingSpace", "BufferManager"]


@dataclass
class WorkingSpace:
    """A private working-space reservation held by one (sub)query."""

    owner: str
    pages: int
    min_pages: int
    released: bool = False

    def __post_init__(self) -> None:
        if self.min_pages < 0 or self.pages < 0:
            raise ValueError("page counts must be non-negative")


@dataclass
class _PendingReservation:
    event: Event
    owner: str
    desired_pages: int
    min_pages: int


class BufferManager:
    """Page-frame accounting for one PE's main-memory buffer."""

    def __init__(self, env: Environment, total_pages: int, pe_id: int = 0):
        if total_pages < 1:
            raise ValueError("buffer needs at least one page")
        self.env = env
        self.pe_id = pe_id
        self.total_pages = total_pages
        self._free_pages = total_pages
        self._oltp_pages = 0
        # OLTP pages below this threshold cannot be evicted by join working
        # space requests (the hot part of the OLTP working set); pages above
        # it are ordinary LRU-resident pages that a join may displace.
        self._oltp_protected_pages = 0
        self._working_spaces: List[WorkingSpace] = []
        self._memory_queue: Deque[_PendingReservation] = deque()
        self.occupancy = TimeWeightedMonitor(env, initial=0.0, name=f"buffer[{pe_id}]")

    # -- inspection --------------------------------------------------------
    @property
    def free_pages(self) -> int:
        """Pages currently unused (available for new working spaces)."""
        return self._free_pages

    @property
    def used_pages(self) -> int:
        return self.total_pages - self._free_pages

    def utilization(self) -> float:
        """Current fraction of the buffer in use."""
        return self.used_pages / self.total_pages

    def average_utilization(self) -> float:
        """Time-weighted average buffer utilisation since the last reset."""
        return self.occupancy.time_average() / self.total_pages

    def reset_statistics(self) -> None:
        self.occupancy.reset()

    # -- internal accounting -------------------------------------------------
    def _set_free(self, free: int) -> None:
        self._free_pages = free
        self.occupancy.update(self.total_pages - free)

    # -- working spaces (joins) ------------------------------------------------
    def reserve(self, owner: str, desired_pages: int, min_pages: int) -> Event:
        """Request a working space.

        The returned event triggers with a :class:`WorkingSpace` once at least
        ``min_pages`` are free *and* the request is at the head of the FCFS
        memory queue.  The grant is ``min(desired_pages, free_pages)`` but
        never less than ``min_pages``.
        """
        if min_pages > self.total_pages:
            raise ValueError(
                f"minimum working space ({min_pages} pages) exceeds buffer size "
                f"({self.total_pages} pages) on PE {self.pe_id}"
            )
        if desired_pages < min_pages:
            desired_pages = min_pages
        event = Event(self.env)
        self._memory_queue.append(
            _PendingReservation(
                event=event,
                owner=owner,
                desired_pages=desired_pages,
                min_pages=min_pages,
            )
        )
        self._serve_queue()
        return event

    def release(self, working_space: WorkingSpace) -> None:
        """Return all pages of a working space to the free pool."""
        if working_space.released:
            return
        working_space.released = True
        if working_space in self._working_spaces:
            self._working_spaces.remove(working_space)
        self._set_free(self._free_pages + working_space.pages)
        working_space.pages = 0
        self._serve_queue()

    def grow(self, working_space: WorkingSpace, extra_pages: int) -> int:
        """Try to grow a working space; returns the number of pages granted."""
        if working_space.released or extra_pages <= 0:
            return 0
        granted = min(extra_pages, self._free_pages)
        if granted > 0:
            working_space.pages += granted
            self._set_free(self._free_pages - granted)
        return granted

    def shrink(self, working_space: WorkingSpace, pages: int) -> int:
        """Voluntarily give back ``pages`` pages; returns the amount returned."""
        if working_space.released or pages <= 0:
            return 0
        returned = min(pages, working_space.pages)
        working_space.pages -= returned
        self._set_free(self._free_pages + returned)
        self._serve_queue()
        return returned

    def _evictable_oltp_pages(self) -> int:
        """OLTP-resident pages that a join working space may displace."""
        return max(0, self._oltp_pages - self._oltp_protected_pages)

    def _evict_oltp_pages(self, pages: int) -> int:
        """Evict up to ``pages`` unprotected OLTP pages into the free pool."""
        evicted = min(pages, self._evictable_oltp_pages())
        if evicted > 0:
            self._oltp_pages -= evicted
            self._set_free(self._free_pages + evicted)
        return evicted

    def _serve_queue(self) -> None:
        # FCFS: only the head of the memory queue may be granted (paper §4).
        while self._memory_queue:
            pending = self._memory_queue[0]
            obtainable = self._free_pages + self._evictable_oltp_pages()
            if pending.min_pages > obtainable:
                return
            self._memory_queue.popleft()
            target = min(pending.desired_pages, obtainable)
            if target > self._free_pages:
                # Displace ordinary (unprotected) OLTP buffer pages; the OLTP
                # footprint re-establishes itself later by stealing back from
                # the join (PPHJ adaptation).
                self._evict_oltp_pages(target - self._free_pages)
            granted = max(pending.min_pages, min(pending.desired_pages, self._free_pages))
            working_space = WorkingSpace(
                owner=pending.owner, pages=granted, min_pages=pending.min_pages
            )
            self._working_spaces.append(working_space)
            self._set_free(self._free_pages - granted)
            pending.event.succeed(working_space)

    # -- crash cleanup -------------------------------------------------------
    def purge_owner(self, owner: str) -> None:
        """Free every trace of ``owner`` (fault-injection kill).

        Releases working spaces held by the owner -- including spaces
        granted synchronously by :meth:`_serve_queue` that the (now killed)
        acquirer never resumed to consume -- and drops its pending memory
        reservations without failing their events.
        """
        for working_space in [
            ws for ws in self._working_spaces if ws.owner == owner
        ]:
            self.release(working_space)
        if any(pending.owner == owner for pending in self._memory_queue):
            self._memory_queue = deque(
                pending for pending in self._memory_queue if pending.owner != owner
            )
            self._serve_queue()

    # -- OLTP footprint (higher priority) -----------------------------------------
    def ensure_oltp_footprint(self, target_pages: int) -> int:
        """Grow the OLTP buffer footprint towards ``target_pages``.

        Pages come from the free pool first; if that is not enough, they are
        *stolen* from join working spaces (largest first, never below the
        space's minimum); the hash join then keeps fewer partitions resident
        and writes the rest to disk (PPHJ adaptation).  Returns the number
        of pages added to the footprint.
        """
        target = min(target_pages, self.total_pages)
        # Half of the target is treated as the hot working set that join
        # working spaces may never displace; the rest is ordinary LRU content.
        self._oltp_protected_pages = max(self._oltp_protected_pages, target // 2)
        needed = target - self._oltp_pages
        if needed <= 0:
            return 0
        added = 0
        from_free = min(needed, self._free_pages)
        if from_free > 0:
            self._set_free(self._free_pages - from_free)
            self._oltp_pages += from_free
            added += from_free
            needed -= from_free
        # Stealing from running joins is reserved for the *protected* (hot)
        # part of the OLTP working set; ordinary LRU content is only refilled
        # from free pages, so a join placed on an OLTP node keeps the buffer
        # pages it displaced (paper footnote 4: OLTP has memory priority, the
        # memory-adaptive join adapts to what is taken away).
        needed = min(needed, max(0, self._oltp_protected_pages - self._oltp_pages))
        while needed > 0:
            victim = self._largest_stealable_space()
            if victim is None:
                break
            stealable = victim.pages - victim.min_pages
            take = min(stealable, needed)
            victim.pages -= take
            self._oltp_pages += take
            added += take
            needed -= take
            # No occupancy update: stealing moves pages between a working
            # space and the OLTP footprint, so the used-page count (the
            # monitored signal) is unchanged.
        return added

    def release_oltp_footprint(self, pages: int) -> int:
        """Shrink the OLTP footprint by up to ``pages`` pages."""
        released = min(pages, self._oltp_pages)
        if released > 0:
            self._oltp_pages -= released
            self._set_free(self._free_pages + released)
            self._serve_queue()
        return released

    def _largest_stealable_space(self) -> Optional[WorkingSpace]:
        candidates = [
            ws for ws in self._working_spaces if not ws.released and ws.pages > ws.min_pages
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda ws: ws.pages - ws.min_pages)
