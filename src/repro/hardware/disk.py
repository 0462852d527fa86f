"""Disk subsystem of a processing element.

Disks and disk controllers are explicit servers (paper §4) so that I/O
bottlenecks show up as queueing delays.  The controller owns an LRU disk
cache and a prefetching mechanism: a cache miss during a sequential access
reads ``prefetch_pages`` consecutive pages in one physical I/O, so subsequent
pages hit the cache.

The unit of work is a *page*; callers ask for sequential or random reads and
writes of a number of pages and the subsystem translates that into physical
I/Os, controller service and disk busy time.

Event coalescing
----------------
An uncontended I/O chain -- alternating disk-busy and controller-busy phases
-- normally costs two heap round-trips per phase.  When the chosen disk has
no competition and the controller is idle, the whole chain is covered by a
single :class:`~repro.sim.core.BatchTimeout` macro-event instead, with the
chain *virtualised*: a replay cursor applies each phase transition (busy
flags, ``users`` membership, busy-time pieces, ``physical_ios``) lazily
before any observation, using the same float folds as the per-chunk loop, so
utilisation accounting and disk-picking decisions are bit-identical.  Any
external request on the disk or the controller splits the macro-event at the
current phase boundary and the chain falls back to per-chunk mode from
there, exactly where the unbatched loop would have yielded the slot.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappush
from typing import Generator, List, Optional, Tuple

from repro.config.parameters import DiskConfig
from repro.sim import BatchHop, BatchTimeout, Environment, Resource, Timeout, coalescing_enabled
from repro.sim.resources import Request

__all__ = ["LruCache", "DiskArray"]

_PHASE_DISK = 0
_PHASE_CTL = 1


class LruCache:
    """A simple LRU page cache keyed by arbitrary hashable page identifiers."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._pages: "OrderedDict[object, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key: object) -> bool:
        return key in self._pages

    def access(self, key: object) -> bool:
        """Record an access; returns True on hit, False on miss (and inserts)."""
        if self.capacity == 0:
            self.misses += 1
            return False
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self.insert(key)
        return False

    def insert(self, key: object) -> None:
        """Insert a page, evicting the least recently used one if needed."""
        if self.capacity == 0:
            return
        if key in self._pages:
            self._pages.move_to_end(key)
            return
        if len(self._pages) >= self.capacity:
            self._pages.popitem(last=False)
        self._pages[key] = None

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _ChainBatch:
    """Virtualised uncontended disk/controller chain under one macro-event.

    ``n`` chunks alternate a disk phase (``busy_full``/``busy_last`` seconds)
    and -- when the controller time is non-zero -- a controller phase
    (``ctl_full``/``ctl_last`` seconds).  The batch is created *after* the
    real grant of the first chunk's disk request; every later transition is
    replayed by :meth:`sync` strictly before the observation time, mutating
    the two resources exactly as the per-chunk release/request pairs would
    (the transition *at* the wake time is performed for real by the owning
    generator).
    """

    __slots__ = (
        "array", "disk", "controller", "disk_req", "ctl_req", "n",
        "busy_full", "busy_last", "ctl_full", "ctl_last",
        "index", "phase", "next_time", "event", "split", "fired",
        "hop_index", "hop_phase", "hop_time", "hops", "has_marker", "relay",
        "_alive",
    )

    def __init__(
        self,
        array: "DiskArray",
        disk: Resource,
        disk_req: Request,
        n: int,
        busy_full: float,
        busy_last: float,
        ctl_full: float,
        ctl_last: float,
    ):
        env = array.env
        self.array = array
        self.disk = disk
        self.controller = array.controller
        self.disk_req = disk_req
        #: Placeholder claim installed in ``controller.users`` while a
        #: virtual controller phase is in flight (never triggered itself).
        self.ctl_req = Request(array.controller)
        self.n = n
        self.busy_full = busy_full
        self.busy_last = busy_last
        self.ctl_full = ctl_full
        self.ctl_last = ctl_last
        self.index = 1
        self.phase = _PHASE_DISK
        self.next_time = env._now + (busy_full if n > 1 else busy_last)
        self.split = False
        self.fired = False
        # Fold the chain end exactly as the per-chunk loop advances the clock.
        end = env._now
        for j in range(1, n + 1):
            end += busy_full if j < n else busy_last
            ctl_time = ctl_full if j < n else ctl_last
            if ctl_time > 0.0:
                end += ctl_time
        # Deferred macro-event driven by the hop cursor: heap entries land at
        # the same simulated moments the per-chunk loop would push its
        # timeouts, preserving same-timestamp event-id ordering.
        self.event = BatchTimeout(env, end, defer=True)
        self.hop_index = 1
        self.hop_phase = _PHASE_DISK
        self.hop_time = self.next_time
        self.hops = 0
        self.relay = False
        self._alive = True
        if self._hop_final(1, _PHASE_DISK):
            # Single-chunk chain without a controller part: the first disk
            # phase is the whole chain, schedule the macro-event directly.
            self.has_marker = False
            eid = env._eid = env._eid + 1
            heappush(env._queue, (end, eid, self.event))
        else:
            self.hops = 1
            self.has_marker = True
            BatchHop(env, self, self.next_time)
        array._batch = self
        disk._batch = self
        array.controller._batch = self

    # -- hop cursor --------------------------------------------------------
    def _hop_final(self, i: int, phase: int) -> bool:
        """True if (chunk ``i``, ``phase``) ends at the chain end itself."""
        if i < self.n:
            return False
        if phase == _PHASE_CTL:
            return True
        return self.ctl_last <= 0.0

    def _hop_step(self, i: int, phase: int, t: float):
        """One phase transition of the hop fold (no accounting)."""
        if phase == _PHASE_DISK:
            ct = self.ctl_full if i < self.n else self.ctl_last
            if ct > 0.0:
                return i, _PHASE_CTL, t + ct
        i += 1
        return i, _PHASE_DISK, t + (self.busy_full if i < self.n else self.busy_last)

    def hop(self, horizon: float) -> None:
        """Advance the hop cursor at least one transition, at most to ``horizon``.

        Invoked by the kernel when this chain's pending heap entry surfaces
        with no competing event scheduled before ``horizon``; the interior
        transitions up to the horizon are then provably undisturbed and are
        crossed in a single jump.

        When a competing event shares this boundary's instant (``horizon``
        equals the boundary time), the phase transition is *realized*
        instead: it is applied inclusively right here -- the same pop
        position where the unbatched release would run -- and the follow-up
        push is *relayed* through a same-instant marker.  Unbatched, the
        boundary takes two heap hops within the instant: the phase timeout
        pops (release), the re-granted request pops, and only the latter
        pushes the next phase timeout.  The relay entry occupies the
        request's ``(time, eid)`` slot, so the next boundary's event is
        allocated its id in the instant's second wave exactly as the
        unbatched push would be -- otherwise it wins same-instant
        tie-breaks it should lose.
        """
        if self.split:
            self._alive = False
            if self.relay:
                # Preempted between the realize and this relay entry: the
                # relay slot is where the unbatched re-granted request would
                # push the next phase timeout, so reschedule the wake here.
                self.event.split(self.next_time)
            else:
                # Preempted with this marker already at the split boundary:
                # the marker's (time, eid) slot is exactly where the
                # unbatched chunk timeout would pop, so fire the wake here
                # (see preempt()).
                self.fired = True
                self.event.fire()
            return
        if self.relay:
            # Second wave of a realized boundary: jump onward from here.
            self.relay = False
        elif horizon <= self.hop_time:
            self.sync(self.hop_time, inclusive=True)
            self.relay = True
            self.hops += 1
            BatchHop(self.event.env, self, self.hop_time)
            return
        i, phase, t = self._hop_step(self.hop_index, self.hop_phase, self.hop_time)
        while not self._hop_final(i, phase):
            ni, nphase, nt = self._hop_step(i, phase, t)
            if nt > horizon:
                break
            i, phase, t = ni, nphase, nt
        env = self.event.env
        if self._hop_final(i, phase):
            self.has_marker = False
            eid = env._eid = env._eid + 1
            heappush(env._queue, (self.event._when, eid, self.event))
        else:
            self.hop_index = i
            self.hop_phase = phase
            self.hop_time = t
            self.hops += 1
            BatchHop(env, self, t)

    def sync(self, now: float, inclusive: bool = False) -> None:
        """Replay phase transitions strictly before ``now``.

        With ``inclusive`` the transition *at* ``now`` is applied as well --
        used by :meth:`hop` to realize a boundary whose instant is shared
        with a competing event.
        """
        nt = self.next_time
        if nt > now or (nt == now and not inclusive):
            return
        array = self.array
        disk = self.disk
        ctl = self.controller
        disk_req = self.disk_req
        i = self.index
        phase = self.phase
        n = self.n
        while nt < now or (inclusive and nt == now):
            if phase == _PHASE_DISK:
                # End of chunk i's disk phase: release the disk ...
                disk._busy_time += disk._busy_servers * (nt - disk._last_change)
                disk._last_change = nt
                disk._busy_servers -= 1
                disk.users.discard(disk_req)
                ctl_time = self.ctl_full if i < n else self.ctl_last
                if ctl_time > 0.0:
                    # ... and occupy the (idle, by construction) controller.
                    ctl._last_change = nt
                    ctl._busy_servers += 1
                    ctl.users.add(self.ctl_req)
                    phase = _PHASE_CTL
                    nt += ctl_time
                else:
                    if i >= n:  # pragma: no cover - chain end is the macro time
                        break
                    i += 1
                    array.physical_ios += 1
                    disk._last_change = nt
                    disk._busy_servers += 1
                    disk.users.add(disk_req)
                    nt += self.busy_full if i < n else self.busy_last
            else:
                # End of chunk i's controller phase: release the controller
                # and start the next chunk on the disk.
                ctl._busy_time += ctl._busy_servers * (nt - ctl._last_change)
                ctl._last_change = nt
                ctl._busy_servers -= 1
                ctl.users.discard(self.ctl_req)
                if i >= n:  # pragma: no cover - chain end is the macro time
                    break
                i += 1
                array.physical_ios += 1
                disk._last_change = nt
                disk._busy_servers += 1
                disk.users.add(disk_req)
                phase = _PHASE_DISK
                nt += self.busy_full if i < n else self.busy_last
        self.index = i
        self.phase = phase
        self.next_time = nt

    def preempt(self) -> None:
        """A competing request arrived: split at the current phase boundary.

        When the pending marker sits exactly at the split boundary (the
        cursor has not jumped past the in-flight phase -- the common case
        under contention), the wake is left to the marker itself so it keeps
        the event-id slot the unbatched chunk timeout would hold; see
        :meth:`hop`.  Only a cursor that already jumped ahead falls back to
        rescheduling through :meth:`BatchTimeout.split` (a fresh, later-id
        heap entry).
        """
        env = self.event.env
        self.sync(env._now)
        self.split = True
        if self.has_marker and (self.relay or self.hop_time == self.next_time):
            self._unhook()  # stop virtualising; the live marker carries the wake
        else:
            self._alive = False  # orphan any pending BatchHop entry
            self.deactivate()
            self.event.split(self.next_time)

    def _unhook(self) -> None:
        """Detach the batch from the array and its resources (idempotent)."""
        if self.array._batch is self:
            self.array._batch = None
        if self.disk._batch is self:
            self.disk._batch = None
        if self.controller._batch is self:
            self.controller._batch = None

    def deactivate(self) -> None:
        """Unhook the batch and kill any pending marker (idempotent)."""
        self._alive = False
        self._unhook()

    def finalize(self, now: float) -> None:
        """Settle replayed state at wake/teardown time."""
        self.sync(now)
        self.deactivate()

    def pages_consumed(self, total_pages: int, full_pages: int) -> int:
        """Pages covered through the chunk in flight at the wake boundary."""
        if self.index >= self.n:
            return total_pages
        return self.index * full_pages

    def elided_events(self) -> int:
        """Heap pushes the unbatched chain would have made for the covered span."""
        i = self.index
        n = self.n
        full = 2 + (2 if self.ctl_full > 0.0 else 0)
        last = 2 + (2 if self.ctl_last > 0.0 else 0)
        covered = (i - 1) * full + (last if i >= n else full)
        if self.phase == _PHASE_DISK:
            # The in-flight chunk's controller part runs for real after the
            # wake; only its disk part was covered.
            ctl_time = self.ctl_full if i < n else self.ctl_last
            if ctl_time > 0.0:
                covered -= 2
        if self.fired:
            # The wake reused the final marker's heap entry: no extra push.
            actual = self.hops
        else:
            actual = self.hops + (2 if self.split else 1)
        return max(0, covered - actual)


class DiskArray:
    """All disks of one PE plus their controller and cache.

    Physical I/Os are dispatched to the least-loaded disk (shortest queue,
    then fewest users), which approximates the striping of fragments and
    temporary files over the PE's disks.
    """

    def __init__(self, env: Environment, config: DiskConfig, pe_id: int = 0):
        self.env = env
        self.config = config
        self.pe_id = pe_id
        count = max(1, config.disks_per_pe)
        self.disks: List[Resource] = [
            Resource(env, capacity=1, name=f"disk[{pe_id}.{index}]") for index in range(count)
        ]
        self.controller = Resource(env, capacity=1, name=f"diskctl[{pe_id}]")
        #: Pages fetched per physical sequential I/O (>= 1; used by the
        #: execution layer to derive I/O counts without re-clamping).
        self.prefetch = max(1, config.prefetch_pages)
        self.cache = LruCache(config.cache_pages)
        self.pages_read = 0
        self.pages_written = 0
        self.physical_ios = 0
        #: The (single) active chain batch of this array, if any.
        self._batch: Optional[_ChainBatch] = None
        self._coalesce = coalescing_enabled()

    # -- helpers -----------------------------------------------------------
    def _pick_disk(self, preferred: Optional[int] = None) -> Resource:
        batch = self._batch
        if batch is not None:
            # Bring the virtualised disk/controller state up to date before
            # reading busy flags for the placement decision.
            batch.sync(self.env._now)
        disks = self.disks
        if preferred is not None:
            return disks[preferred % len(disks)]
        if len(disks) == 1:
            return disks[0]
        # First disk with the smallest (queue_length, busy) pair -- the same
        # disk min(key=...) selected, without a lambda per call.
        best = disks[0]
        best_queued = best._queued
        best_busy = best._busy_servers
        for disk in disks:
            queued = disk._queued
            if queued > best_queued:
                continue
            busy = disk._busy_servers
            if queued < best_queued or busy < best_busy:
                best = disk
                best_queued = queued
                best_busy = busy
        return best

    def _can_batch(self, disk: Resource) -> bool:
        """Uncontended-chain condition, checked after the first disk grant."""
        controller = self.controller
        return (
            self._coalesce
            and self._batch is None
            and disk._queued == 0
            and controller._busy_servers == 0
            and controller._queued == 0
        )

    def _physical_io(
        self, disk: Resource, busy_time: float, controller_pages: int
    ) -> Generator:
        """One physical I/O: queue at the disk, then at the controller."""
        self.physical_ios += 1
        env = self.env
        config = self.config
        batch = None
        req = disk.request()
        try:
            yield req
            if self._can_batch(disk):
                batch = _ChainBatch(
                    self, disk, req, 1,
                    busy_time, busy_time,
                    0.0, config.controller_time(controller_pages),
                )
                yield batch.event
            else:
                yield env.timeout(busy_time)
        finally:
            if batch is not None:
                batch.finalize(env._now)
                if batch.phase == _PHASE_CTL:
                    # The disk half already finished (virtually); the real
                    # disk release was replayed, hand back the controller.
                    self.controller.release(batch.ctl_req)
                else:
                    disk.release(req)
            else:
                disk.release(req)
        if batch is not None:
            env.events_coalesced += batch.elided_events()
            if batch.phase != _PHASE_DISK:
                return
            # Split before the controller phase: serve it for real.
        controller_time = config.controller_time(controller_pages)
        if controller_time > 0:
            controller = self.controller
            req = controller.request()
            try:
                yield req
                yield env.timeout(controller_time)
            finally:
                controller.release(req)

    # -- public operations ---------------------------------------------------
    def read_sequential(
        self, pages: int, preferred_disk: Optional[int] = None
    ) -> Generator:
        """Sequential read of ``pages`` pages with controller prefetching.

        Used for relation scans, clustered index scans and temporary file
        scans.  One physical I/O is issued per ``prefetch_pages`` pages.
        """
        if pages <= 0:
            return
        self.pages_read += pages
        yield from self._sequential_io(pages, preferred_disk)

    def _sequential_io(self, pages: int, preferred_disk: Optional[int]) -> Generator:
        """Chunked physical I/Os for a sequential read or write.

        The per-chunk work of :meth:`_physical_io` is inlined (no sub-generator
        per chunk) -- scans issue tens of thousands of these per point.  An
        uncontended chain is coalesced into one macro-event (module
        docstring); a split resumes this per-chunk loop at the boundary.
        """
        env = self.env
        controller = self.controller
        prefetch = self.prefetch
        remaining = pages
        while remaining > 0:
            chunk = prefetch if remaining > prefetch else remaining
            disk = self._pick_disk(preferred_disk)
            self.physical_ios += 1
            req = disk.request()
            batch = None
            try:
                yield req
                # Re-read per chunk: fault injection swaps ``self.config``
                # mid-run (disk degradation); each chunk runs at the speed
                # in force when its disk grant arrives.
                config = self.config
                busy = config.sequential_io_time(chunk)
                if self._can_batch(disk):
                    # Chunk schedule of the remaining pages: every chunk is a
                    # full prefetch except the last.
                    n = (remaining + prefetch - 1) // prefetch
                    last_pages = remaining - (n - 1) * prefetch
                    batch = _ChainBatch(
                        self, disk, req, n,
                        config.sequential_io_time(prefetch),
                        config.sequential_io_time(last_pages),
                        config.controller_time(prefetch),
                        config.controller_time(last_pages),
                    )
                    yield batch.event
                else:
                    yield Timeout(env, busy)
            finally:
                if batch is not None:
                    batch.finalize(env._now)
                    if batch.phase == _PHASE_CTL:
                        self.controller.release(batch.ctl_req)
                    else:
                        disk.release(req)
                else:
                    disk.release(req)
            if batch is None:
                controller_time = config.controller_time(chunk)
                if controller_time > 0:
                    req = controller.request()
                    try:
                        yield req
                        yield Timeout(env, controller_time)
                    finally:
                        controller.release(req)
                remaining -= chunk
            else:
                env.events_coalesced += batch.elided_events()
                if batch.phase == _PHASE_DISK:
                    # Woke at the end of the in-flight chunk's disk phase:
                    # its controller part runs for real before the loop
                    # resumes per-chunk mode.
                    chunk_pages = prefetch if batch.index < batch.n else (
                        remaining - (batch.n - 1) * prefetch
                    )
                    controller_time = config.controller_time(chunk_pages)
                    if controller_time > 0:
                        req = controller.request()
                        try:
                            yield req
                            yield Timeout(env, controller_time)
                        finally:
                            controller.release(req)
                remaining -= batch.pages_consumed(remaining, prefetch)

    def read_random(self, page_key: object = None, preferred_disk: Optional[int] = None) -> Generator:
        """Random single-page read, going through the controller LRU cache."""
        self.pages_read += 1
        if page_key is not None and self.cache.access(page_key):
            # Cache hit: controller service and transmission only.
            controller = self.controller
            req = controller.request()
            try:
                yield req
                yield self.env.timeout(self.config.controller_time(1))
            finally:
                controller.release(req)
            return
        busy = self.config.random_io_time()
        yield from self._physical_io(self._pick_disk(preferred_disk), busy, 1)

    def write_sequential(
        self, pages: int, preferred_disk: Optional[int] = None
    ) -> Generator:
        """Sequential write of ``pages`` pages (temporary files, checkpoints)."""
        if pages <= 0:
            return
        self.pages_written += pages
        yield from self._sequential_io(pages, preferred_disk)

    def write_random(self, preferred_disk: Optional[int] = None) -> Generator:
        """Random single-page write (log forces, dirty page flushes)."""
        self.pages_written += 1
        busy = self.config.random_io_time()
        yield from self._physical_io(self._pick_disk(preferred_disk), busy, 1)

    # -- statistics ----------------------------------------------------------
    def utilization(self) -> float:
        """Average utilisation across all disks of this PE."""
        if not self.disks:
            return 0.0
        return sum(disk.utilization() for disk in self.disks) / len(self.disks)

    def snapshot(self) -> Tuple[float, float]:
        """(now, aggregate busy time) for differential utilisation."""
        now = self.env.now
        busy = sum(disk.busy_time() for disk in self.disks)
        return now, busy

    def utilization_since(
        self, snapshot: Tuple[float, float], current: Tuple[float, float]
    ) -> float:
        """Average utilisation across disks between two :meth:`snapshot` reads."""
        then, busy_then = snapshot
        now, busy_now = current
        elapsed = now - then
        if elapsed <= 0 or not self.disks:
            return 0.0
        return min(1.0, (busy_now - busy_then) / (elapsed * len(self.disks)))

    @property
    def queue_length(self) -> int:
        """Total number of waiting I/O requests across the PE's disks."""
        return sum(disk._queued for disk in self.disks)
