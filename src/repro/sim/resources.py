"""Resource abstractions for the discrete-event kernel.

Three families of shared entities are provided, mirroring what the database
simulator needs:

* :class:`Resource` / :class:`PriorityResource` -- a server (or a set of
  servers) with a request queue.  CPUs, disks, disk controllers and the
  network links are modelled as resources.
* :class:`Container` -- a pool of homogeneous "stuff" (e.g. memory pages)
  with blocking ``get``/``put``.
* :class:`Store` -- a queue of discrete items (e.g. messages) with blocking
  ``get``/``put``.

All request-like events are context managers so the canonical usage is::

    with resource.request() as req:
        yield req
        yield env.timeout(service_time)

Hot-path notes: resources maintain the invariant that live (non-cancelled)
requests only wait in the queue while every server slot is taken, so
``request()`` grants immediately without touching the queue whenever a slot
is free.  Cancelled requests are discarded *lazily* when they surface at the
queue head (O(1) per cancellation, instead of an O(n) scan-and-remove), and
:class:`PriorityResource` keeps its queue as a heap ordered by
``(priority, arrival)`` -- the exact tie-break order of the previous
linear-scan implementation, so grant order is unchanged.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.core import PENDING, Environment, Event, SimulationError

__all__ = ["Resource", "PriorityResource", "Request", "Container", "Store"]

#: Cancelled-entry count past which a queue is eligible for compaction.
_COMPACT_THRESHOLD = 32


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "_key", "cancelled")

    def __init__(self, resource: "Resource", priority: int = 0):
        # Inlined Event.__init__: requests are created on every CPU slice,
        # disk I/O and network transfer.
        self.env = resource.env
        self.callbacks = None
        self._value = PENDING
        self._ok = True
        self.resource = resource
        self.priority = priority
        self._key = resource._counter = resource._counter + 1
        self.cancelled = False

    # Context manager protocol: releases the slot on exit.
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op once granted)."""
        if self._value is PENDING and not self.cancelled:
            self.cancelled = True
            # The request stays in the queue and is discarded when it
            # surfaces at the head; only the live-waiter count drops now.
            resource = self.resource
            resource._queued -= 1
            cancelled = resource._cancelled = resource._cancelled + 1
            # Churn guard: once enough dead entries accumulate *and* they
            # dominate the queue, compact it in one pass so heap pushes stay
            # O(log live) instead of O(log total) under cancellation storms.
            if cancelled >= _COMPACT_THRESHOLD and cancelled * 2 >= len(resource.queue):
                resource._compact()


class Resource:
    """A FIFO multi-server resource.

    ``capacity`` servers are available; additional requests queue in FIFO
    order.  Utilisation accounting (busy server time) is kept so that the
    control node can compute CPU/disk utilisation without extra bookkeeping
    in the callers.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        #: Requests currently holding a server slot (unordered; membership
        #: and removal are O(1)).
        self.users: set[Request] = set()
        self.queue: Any = self._make_queue()
        self._counter = 0
        self._queued = 0  # live (non-cancelled) waiting requests
        self._cancelled = 0  # dead entries still sitting in the queue
        # Utilisation accounting.
        self._busy_time = 0.0
        self._last_change = env.now
        self._busy_servers = 0
        #: Active macro-event batch virtualising this resource (see the
        #: hardware coalescing layers); None outside a batched run.
        self._batch: Any = None

    def _make_queue(self):
        return deque()

    def _compact(self) -> None:
        """Drop cancelled entries from the queue in one pass (FIFO order kept)."""
        self.queue = deque(req for req in self.queue if not req.cancelled)
        self._cancelled = 0

    # -- accounting ------------------------------------------------------
    def _account(self) -> None:
        batch = self._batch
        if batch is not None:
            # An observer is about to read the accounting mid-batch: replay
            # the micro-step boundaries the unbatched run would already have
            # processed so the float sums are bit-identical.
            batch.sync(self.env._now)
        now = self.env._now
        busy = self._busy_servers
        if busy:
            self._busy_time += busy * (now - self._last_change)
        self._last_change = now

    @property
    def count(self) -> int:
        """Number of servers currently in use."""
        return self._busy_servers

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting (cancelled ones excluded)."""
        return self._queued

    def busy_time(self) -> float:
        """Aggregate busy server-time accumulated so far."""
        self._account()
        return self._busy_time

    def utilization(self, since_time: float = 0.0, since_busy: float = 0.0) -> float:
        """Average utilisation (0..1) since a reference point."""
        self._account()
        elapsed = self.env.now - since_time
        if elapsed <= 0:
            return 0.0
        return (self._busy_time - since_busy) / (elapsed * self.capacity)

    def snapshot(self) -> tuple[float, float]:
        """Return (now, busy_time) for later differential utilisation."""
        self._account()
        return self.env.now, self._busy_time

    # -- queueing --------------------------------------------------------
    def request(self, priority: int = 0) -> Request:
        """Request one server slot; the returned event triggers when granted."""
        batch = self._batch
        if batch is not None:
            # A competing request arrived mid-batch: charge the elapsed
            # prefix of the macro-event and split it on the next micro-step
            # boundary, then proceed against the (now exact) resource state.
            batch.preempt()
        req = Request(self, priority)
        busy = self._busy_servers
        if busy < self.capacity:
            # Invariant: live requests only queue while all slots are taken,
            # so a free slot means nobody may be granted before us.
            env = self.env
            now = env._now
            if busy:
                self._busy_time += busy * (now - self._last_change)
            self._last_change = now
            self.users.add(req)
            self._busy_servers = busy + 1
            # Inlined req.succeed(self): the grant joins the same-instant lane.
            req._value = self
            eid = env._eid = env._eid + 1
            env._lane.append((now, eid, req))
        else:
            self._queued += 1
            self._enqueue(req)
        return req

    def release(self, request: Request) -> None:
        """Release a previously granted slot (ungranted requests are cancelled)."""
        try:
            self.users.remove(request)
        except KeyError:
            request.cancel()
            return
        now = self.env._now
        busy = self._busy_servers
        self._busy_time += busy * (now - self._last_change)
        self._last_change = now
        self._busy_servers = busy - 1
        if self.queue:
            self._trigger_queue()

    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)

    def _trigger_queue(self) -> None:
        queue = self.queue
        while self._busy_servers < self.capacity and queue:
            req = queue.popleft()
            if req.cancelled:
                self._cancelled -= 1
                continue
            self._queued -= 1
            self._grant(req)

    def _grant(self, req: Request) -> None:
        now = self.env._now
        busy = self._busy_servers
        if busy:
            self._busy_time += busy * (now - self._last_change)
        self._last_change = now
        self.users.add(req)
        self._busy_servers = busy + 1
        req.succeed(self)


class PriorityResource(Resource):
    """A resource whose queue is ordered by priority (lower value first).

    Ties are broken FIFO via the per-resource request counter.  This is used
    for CPUs when OLTP transactions must take precedence over complex query
    work (see the paper's memory-adaptive join discussion, footnote 4).

    The queue is a binary heap on ``(priority, arrival counter)``; grants pop
    the minimum, which is exactly the request the previous linear scan
    selected, so the service order is unchanged.
    """

    def _make_queue(self):
        return []

    def _enqueue(self, request: Request) -> None:
        heappush(self.queue, (request.priority, request._key, request))

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        The heap is ordered by ``(priority, arrival counter)`` tuples, which
        are unique per request, so rebuilding from the surviving entries
        yields exactly the same grant order.
        """
        queue = [entry for entry in self.queue if not entry[2].cancelled]
        heapify(queue)
        self.queue = queue
        self._cancelled = 0

    def _trigger_queue(self) -> None:
        queue = self.queue
        while self._busy_servers < self.capacity and queue:
            req = heappop(queue)[2]
            if req.cancelled:
                self._cancelled -= 1
                continue
            self._queued -= 1
            self._grant(req)


class Container:
    """A pool of continuous or discrete capacity with blocking get/put.

    Used for token-style accounting (e.g. free page frames).  ``get``
    requests are served FIFO; a larger request blocks smaller later ones to
    preserve fairness (no starvation of big memory requests).
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if init < 0 or init > capacity:
            raise SimulationError("init must lie in [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    def get(self, amount: float) -> Event:
        """Blocking request to remove ``amount`` from the container."""
        if amount < 0:
            raise SimulationError("amount must be non-negative")
        event = Event(self.env)
        self._getters.append((event, amount))
        self._serve()
        return event

    def put(self, amount: float) -> Event:
        """Blocking request to add ``amount`` to the container."""
        if amount < 0:
            raise SimulationError("amount must be non-negative")
        event = Event(self.env)
        self._putters.append((event, amount))
        self._serve()
        return event

    def _serve(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed(amount)
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed(amount)
                    progress = True


class Store:
    """An unbounded (or bounded) queue of discrete items with blocking get."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[tuple[Event, Optional[Callable[[Any], bool]]]] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        """Add an item; blocks while the store is at capacity."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._serve()
        return event

    def get(self, filter_fn: Optional[Callable[[Any], bool]] = None) -> Event:
        """Remove and return the first item (optionally matching a filter)."""
        event = Event(self.env)
        self._getters.append((event, filter_fn))
        self._serve()
        return event

    def __len__(self) -> int:
        return len(self.items)

    def _serve(self) -> None:
        progress = True
        while progress:
            progress = False
            items = self.items
            while self._putters and len(items) < self.capacity:
                event, item = self._putters.popleft()
                items.append(item)
                event.succeed(item)
                progress = True
            if self._getters and items:
                event, filter_fn = self._getters[0]
                found = None
                if filter_fn is None:
                    found = items.popleft()
                else:
                    for candidate in items:
                        if filter_fn(candidate):
                            found = candidate
                            items.remove(candidate)
                            break
                if found is not None:
                    self._getters.popleft()
                    event.succeed(found)
                    progress = True
                else:
                    break
