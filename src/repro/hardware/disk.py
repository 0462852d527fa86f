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
single macro-event instead, with the chain *virtualised*: a ``_ChainBatch``,
a :class:`~repro.sim.core.BatchRun` subclass, folds the phase ends and
replays each phase transition (busy flags, ``users`` membership, busy-time
pieces) lazily before any observation, using the same float folds as the
per-chunk loop, so utilisation accounting and disk-picking decisions are
bit-identical; the marker, relay and split protocol is the kernel's.  Any
external request on the disk or the controller splits the macro-event at
the current phase boundary and the chain falls back to per-chunk mode from
there, exactly where the unbatched loop would have yielded the slot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generator, List, Optional, Tuple

from repro.config.parameters import DiskConfig
from repro.sim import BatchRun, Environment, Resource, Timeout, coalescing_enabled
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


class _ChainBatch(BatchRun):
    """Virtualised uncontended disk/controller chain under one macro-event.

    ``n`` chunks alternate a disk phase (``busy_full``/``busy_last`` seconds)
    and -- when the controller time is non-zero -- a controller phase
    (``ctl_full``/``ctl_last`` seconds); every phase end is a boundary.  The
    batch is created *after* the real grant of the first chunk's disk
    request; every later transition is replayed by :meth:`sync` strictly
    before the observation time, mutating the two resources exactly as the
    per-chunk release/request pairs would (the transition *at* the wake time
    is performed for real by the owning generator).  ``index`` (1-based
    chunk) and ``phase`` say where the replay stands.
    """

    __slots__ = (
        "array", "disk", "controller", "disk_req", "ctl_claim", "n",
        "ctl_full", "ctl_last", "index", "phase",
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
        # Fold the phase ends exactly as the per-chunk loop advances the clock.
        t = env._now
        bounds = []
        for j in range(1, n + 1):
            t += busy_full if j < n else busy_last
            bounds.append(t)
            ctl_time = ctl_full if j < n else ctl_last
            if ctl_time > 0.0:
                t += ctl_time
                bounds.append(t)
        BatchRun.__init__(self, env, bounds)
        self.array = array
        self.disk = disk
        self.controller = array.controller
        self.disk_req = disk_req
        self.ctl_claim = array._ctl_claim
        self.n = n
        self.ctl_full = ctl_full
        self.ctl_last = ctl_last
        self.index = 1
        self.phase = _PHASE_DISK
        array._batch = self
        disk._batch = self
        array.controller._batch = self

    def sync(self, now: float, inclusive: bool = False) -> None:
        nt = self.next_time
        if nt > now or (nt == now and not inclusive):
            return
        disk = self.disk
        ctl = self.controller
        disk_req = self.disk_req
        bounds = self.bounds
        k = self.next_index
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
                if (self.ctl_full if i < n else self.ctl_last) > 0.0:
                    # ... and occupy the (idle, by construction) controller.
                    ctl._last_change = nt
                    ctl._busy_servers += 1
                    ctl.users.add(self.ctl_claim)
                    phase = _PHASE_CTL
                else:
                    i += 1
                    disk._last_change = nt
                    disk._busy_servers += 1
                    disk.users.add(disk_req)
            else:
                # End of chunk i's controller phase: release the controller
                # and start the next chunk on the disk.
                ctl._busy_time += ctl._busy_servers * (nt - ctl._last_change)
                ctl._last_change = nt
                ctl._busy_servers -= 1
                ctl.users.discard(self.ctl_claim)
                i += 1
                disk._last_change = nt
                disk._busy_servers += 1
                disk.users.add(disk_req)
                phase = _PHASE_DISK
            k += 1
            nt = bounds[k]
        self.next_index = k
        self.next_time = nt
        self.index = i
        self.phase = phase

    def _detach(self) -> None:
        if self.array._batch is self:
            self.array._batch = None
        if self.disk._batch is self:
            self.disk._batch = None
        if self.controller._batch is self:
            self.controller._batch = None

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
            actual = self.hops + (2 if self.split_index else 1)
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
        #: Placeholder claim a chain batch installs in ``controller.users``
        #: while a virtual controller phase is in flight (never triggered).
        #: The controller is FIFO, so one claim per array serves every batch:
        #: at most one batch at a time can be in a controller phase.
        self._ctl_claim = Request(self.controller)
        #: Pages fetched per physical sequential I/O (>= 1; used by the
        #: execution layer to derive I/O counts without re-clamping).
        self.prefetch = max(1, config.prefetch_pages)
        self.cache = LruCache(config.cache_pages)
        #: The (single) active chain batch of this array, if any.
        self._batch: Optional[_ChainBatch] = None
        self._coalesce = coalescing_enabled()

    # -- helpers -----------------------------------------------------------
    def _pick_disk(self) -> Resource:
        batch = self._batch
        if batch is not None:
            # Bring the virtualised disk/controller state up to date before
            # reading busy flags for the placement decision.
            batch.sync(self.env._now)
        disks = self.disks
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
        env = self.env
        controller_time = self.config.controller_time(controller_pages)
        batch = None
        req = disk.request()
        try:
            yield req
            if self._can_batch(disk):
                batch = _ChainBatch(
                    self, disk, req, 1,
                    busy_time, busy_time,
                    0.0, controller_time,
                )
                yield batch.event
            else:
                yield Timeout(env, busy_time)
        finally:
            if batch is not None:
                batch.finalize(env._now)
                if batch.phase == _PHASE_CTL:
                    # The disk half already finished (virtually); the real
                    # disk release was replayed, hand back the controller.
                    self.controller.release(self._ctl_claim)
                else:
                    disk.release(req)
            else:
                disk.release(req)
        if batch is not None:
            env.events_coalesced += batch.elided_events()
            if batch.phase != _PHASE_DISK:
                return
            # Split before the controller phase: serve it for real.
        if controller_time > 0:
            controller = self.controller
            req = controller.request()
            try:
                yield req
                yield Timeout(env, controller_time)
            finally:
                controller.release(req)

    # -- public operations ---------------------------------------------------
    def read_sequential(self, pages: int) -> Generator:
        """Sequential read of ``pages`` pages with controller prefetching.

        Used for relation scans, clustered index scans and temporary file
        scans.  One physical I/O is issued per ``prefetch_pages`` pages.
        """
        return self._sequential_io(pages)

    def _sequential_io(self, pages: int) -> Generator:
        """Chunked physical I/Os for a sequential read or write.

        The per-chunk work of :meth:`_physical_io` is inlined (no sub-generator
        per chunk) -- scans issue tens of thousands of these per point.  An
        uncontended chain is coalesced into one macro-event (module
        docstring); a split resumes this per-chunk loop at the boundary.
        ``pages <= 0`` does nothing.
        """
        env = self.env
        controller = self.controller
        prefetch = self.prefetch
        remaining = pages
        while remaining > 0:
            chunk = prefetch if remaining > prefetch else remaining
            disk = self._pick_disk()
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
                        self.controller.release(self._ctl_claim)
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

    def read_random(self, page_key: object = None) -> Generator:
        """Random single-page read, going through the controller LRU cache.

        Like :meth:`write_random`, this returns the I/O's generator for the
        caller to ``yield from``; the cache lookup and the disk choice happen
        at the call.
        """
        if page_key is not None and self.cache.access(page_key):
            return self._cached_io()
        busy = self.config.random_io_time()
        return self._physical_io(self._pick_disk(), busy, 1)

    def _cached_io(self) -> Generator:
        """Cache hit: controller service and transmission only."""
        controller = self.controller
        req = controller.request()
        try:
            yield req
            yield Timeout(self.env, self.config.controller_time(1))
        finally:
            controller.release(req)

    def write_sequential(self, pages: int) -> Generator:
        """Sequential write of ``pages`` pages (temporary files, checkpoints)."""
        return self._sequential_io(pages)

    def write_random(self) -> Generator:
        """Random single-page write (log forces, dirty page flushes)."""
        busy = self.config.random_io_time()
        return self._physical_io(self._pick_disk(), busy, 1)

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
