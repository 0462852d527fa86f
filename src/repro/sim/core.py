"""Generator-based discrete-event simulation kernel.

This is the substrate on which the whole Shared Nothing database simulator is
built.  The design follows the classic process-interaction style (as in SimPy):
simulation processes are Python generators that ``yield`` :class:`Event`
objects; the :class:`Environment` advances simulated time and resumes processes
when the events they wait on are triggered.

Only the features actually needed by the database simulator are implemented,
which keeps the kernel small, fast and easy to test:

* :class:`Environment` -- event queue and clock.
* :class:`Event` -- one-shot events with success/failure values.
* :class:`Timeout` -- an event triggered after a simulated delay.
* :class:`Process` -- wraps a generator into an event (its termination).
* :class:`AllOf` -- a condition event over several events.

Resource abstractions (servers, token pools, stores) live in
:mod:`repro.sim.resources`.

The kernel is the hot path of every experiment point, so the implementation
trades a little uniformity for constant-factor speed:

* callback lists are allocated lazily (most events have zero or one waiter;
  ``callbacks`` is ``None`` until the first waiter registers and the
  :data:`PROCESSED` sentinel once the callbacks have run);
* scheduled entries are bare ``(time, eid, event)`` triples -- the
  tie-breaking event id alone fixes FIFO order at equal times;
* an entry scheduled *at the current instant* (a triggered event, a
  resource or lock grant, a process start or end, an interrupt) goes to a
  FIFO *lane* instead of the timed heap.  Eids only grow and the clock
  cannot move while the lane holds an entry, so the lane is always sorted
  and costs O(1) per entry instead of a heap push and pop;
* :meth:`Environment.run` pops whichever head of the lane, the timed heap
  and the batch-marker heap is smallest by ``(time, eid)`` -- exactly the
  sequence one heap holding all three would pop -- and walks its callbacks
  once;
* a process whose yielded target has *already been processed* is resumed
  synchronously instead of round-tripping an intermediate event through the
  queue.

Events still fire in ``(time, schedule order)`` sequence and callback
registration order is preserved.  One scheduling contract is deliberately
different from the pre-overhaul kernel: a process yielding an event that was
*already processed* continues immediately (same timestamp), instead of being
re-queued behind other events already scheduled at the current time.  No
simulator code path depends on the old deferred ordering -- the golden-file
determinism test (``tests/test_determinism.py``) pins that experiment
outcomes are byte-identical across the overhaul.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, List, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "BatchTimeout",
    "BatchHop",
    "BatchRun",
    "BatchWalk",
    "Process",
    "AllOf",
    "Environment",
    "PENDING",
    "PROCESSED",
    "coalescing_enabled",
]


def coalescing_enabled() -> bool:
    """True unless ``REPRO_COALESCE=0`` disables macro-event coalescing.

    Hardware servers read this once at construction time, so a toggle applies
    to newly built systems (the A/B comparisons in the perf harness and the
    determinism tests run each mode in a fresh driver/subprocess).
    """
    return os.environ.get("REPRO_COALESCE", "1") != "0"


class SimulationError(Exception):
    """Raised for illegal uses of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that has been interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Pending:
    """Sentinel for the value of an event that has not been triggered."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


class _Processed:
    """Sentinel stored in ``Event.callbacks`` once the callbacks have run.

    The sentinel is *falsy*: a :class:`BatchTimeout` that was split leaves its
    original heap entry behind, so the same event can surface in the run loop
    twice.  The second pop sees ``callbacks is PROCESSED`` -- falsy -- and
    (the event being successful) drops the entry without touching the
    ``elif not event._ok`` error path, at zero cost to the hot loop.
    """

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PROCESSED>"


PENDING = _Pending()
PROCESSED = _Processed()


class Event:
    """A one-shot occurrence in simulated time.

    Events start *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers them, which schedules them for processing; at processing time
    every registered callback is invoked exactly once.

    ``callbacks`` is ``None`` while no waiter has registered (the list is
    allocated lazily), a list of callables while waiters are registered, and
    the :data:`PROCESSED` sentinel once the event has been processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Any = None
        self._value: Any = PENDING
        self._ok: bool = True

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def value(self) -> Any:
        """The value of the event (raises if still pending)."""
        if self._value is PENDING:
            raise SimulationError("value of untriggered event is not available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        eid = env._eid = env._eid + 1
        env._lane.append((env._now, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on the event.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after ``delay`` units of simulated time."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Inlined Event.__init__ + scheduling: timeouts are the most common
        # event by far and are born triggered.
        self.env = env
        self.callbacks = None
        self._value = value
        self._ok = True
        eid = env._eid = env._eid + 1
        heappush(env._queue, (env._now + delay, eid, self))


class BatchTimeout(Event):
    """A macro-event covering a coalesced run of uncontended micro-steps.

    Unlike :class:`Timeout` it is scheduled at an *absolute* simulated time:
    the caller computes the end of the batched run by folding the micro-step
    durations with repeated float additions, so the end time is bit-identical
    to the clock value the unbatched per-step loop would have reached.

    With ``defer=True`` the event is *not* pushed onto the heap at creation;
    the owning batch drives it through the :class:`BatchHop` protocol instead
    and pushes it only when the hop cursor reaches the batch end (or on
    :meth:`split`).  Deferral keeps the heap-entry *push moments* aligned with
    the moments the unbatched loop would push its per-step timeouts, which is
    what makes same-timestamp tie-breaking (event-id order) reproducible.

    :meth:`split` is the deterministic preemption hook: when a competing
    request arrives mid-batch, the batch owner charges the elapsed prefix of
    the run and reschedules this event to the first micro-step boundary at or
    after the arrival, where the remainder is requeued through the ordinary
    per-step path.  A superseded heap entry is left in place; it is skipped
    when popped because the event is already processed (see
    :class:`_Processed`).
    """

    __slots__ = ("_when",)

    def __init__(
        self, env: "Environment", at: float, value: Any = None, defer: bool = False
    ):
        if at < env._now:
            raise SimulationError(f"batch end {at} lies in the past (now={env._now})")
        self.env = env
        self.callbacks = None
        self._value = value
        self._ok = True
        self._when = at
        if not defer:
            eid = env._eid = env._eid + 1
            heappush(env._queue, (at, eid, self))

    def split(self, at: float) -> None:
        """Reschedule the macro-event to an earlier absolute time ``at``.

        ``at`` must lie in ``[now, end]``.  A fresh heap entry is pushed (the
        event id keeps same-time ordering consistent with an event scheduled
        at the preemption instant); the old entry becomes a stale duplicate.
        """
        env = self.env
        if self.callbacks is PROCESSED:
            raise SimulationError("cannot split an already processed BatchTimeout")
        if at > self._when:
            raise SimulationError(f"split time {at} lies beyond the batch end {self._when}")
        if at < env._now:
            raise SimulationError(f"split time {at} lies in the past (now={env._now})")
        self._when = at
        eid = env._eid = env._eid + 1
        heappush(env._queue, (at, eid, self))

    def fire(self) -> None:
        """Dispatch the deferred macro-event inline, at the caller's position.

        Used by a preempted batch whose pending :class:`BatchHop` marker
        already sits at the split boundary: the marker's heap entry holds
        exactly the ``(time, eid)`` slot the unbatched per-step timeout
        would occupy, so the wake must run at the marker's pop position.
        Pushing a fresh entry (as :meth:`split` does) would give the wake a
        *later* event id -- allocated at the preemption instant instead of
        the step start -- and lose same-instant tie-breaks against events
        scheduled in between.
        """
        env = self.env
        if self.callbacks is PROCESSED:
            raise SimulationError("cannot fire an already processed BatchTimeout")
        self._when = env._now
        callbacks = self.callbacks
        self.callbacks = PROCESSED
        if callbacks:
            for callback in callbacks:
                callback(self)


_INF = float("inf")


def _hop_dispatch(event: "Event") -> None:
    """Advance a macro-event batch past the quiet stretch ahead of it.

    Runs as the (sole) callback of a popped :class:`BatchHop` entry.  Hop
    entries live in the environment's *marker heap* (``env._hops``), not in
    the real event queue: they carry no simulation semantics, so the horizon
    a batch may advance towards is the next **real** event -- other batches'
    markers are transparent.  That is what lets a fleet of simultaneously
    batched resources jump straight to their macro ends instead of
    leap-frogging one another boundary by boundary, while each marker still
    pops in exact ``(time, eid)`` order relative to real events (so a
    boundary sharing an instant with a real event is realized at precisely
    the pop position the unbatched release would occupy).
    """
    batch = event.batch
    if batch._alive:
        env = event.env
        if env._lane:
            # A same-instant entry is a real event at ``now``.
            batch.hop(env._now)
        else:
            queue = env._queue
            batch.hop(queue[0][0] if queue else _INF)


class BatchHop(Event):
    """Scheduling-only marker that walks a batch's micro-step boundaries.

    A live batch keeps exactly one pending heap entry: either a ``BatchHop``
    at an interior boundary or (once the cursor reaches the end) the
    :class:`BatchTimeout` itself.  Each hop entry is pushed at the simulated
    moment the unbatched loop would push the corresponding per-step timeout,
    so event-id tie-breaking at equal timestamps is preserved exactly; when
    the heap holds nothing before the batch end, the cursor jumps there in a
    single hop and the interior boundaries cost nothing.

    The owning batch -- a :class:`BatchRun` subclass (CPU quantum runs,
    disk/controller chains) or a :class:`BatchWalk` (network chains) --
    provides ``_alive`` (False once split or finished) and ``hop(horizon)``
    (advance the cursor and push the follow-up entry).

    Hop entries are scheduling metadata, not simulation events: they are
    pushed onto the environment's separate marker heap (``env._hops``) so
    that they never appear in another batch's horizon, while the run loop
    still pops them in exact ``(time, eid)`` order relative to real events.
    They *do* consume event ids -- each marker is pushed at the simulated
    instant the unbatched loop would push the corresponding per-step
    timeout, preserving same-instant tie-break positions.
    """

    __slots__ = ("batch",)

    def __init__(self, env: "Environment", batch: Any, at: float):
        self.env = env
        self.callbacks = [_hop_dispatch]
        self._value = None
        self._ok = True
        self.batch = batch
        eid = env._eid = env._eid + 1
        heappush(env._hops, (at, eid, self))


class BatchRun:
    """A coalesced run of uncontended micro-steps, virtualised by one macro-event.

    ``bounds`` are the step ends in ascending order, each the float the
    per-step loop reaches (the caller folds them from ``env.now`` in the
    loop's order); the last one is the run's end, where the deferred
    :class:`BatchTimeout` ``event`` fires unless the run is split earlier.
    The run keeps exactly one pending heap entry: a :class:`BatchHop` marker
    at ``bounds[hop_index]`` or, once the marker cursor reaches the end, the
    macro-event itself.

    Subclasses supply the accounting of their steps:

    * ``sync(now, inclusive=False)`` applies, in order, what the per-step
      loop does at every boundary strictly before ``now`` (and at ``now``
      with ``inclusive``), advancing the replay cursor ``next_index`` /
      ``next_time`` (the first boundary not applied yet);
    * ``_detach()`` drops the resource hooks through which observers and
      competing requests reach the run (idempotent).

    Two rules keep the heap pushes, and so every same-instant tie-break,
    where the per-step loop would put them (see :meth:`hop`):

    * *relay* -- a boundary that shares its instant with a real event is
      applied when its marker pops, and a second marker is pushed at the
      same instant, so the next event id is allocated in that instant's
      second wave, as the per-step re-grant would allocate it;
    * *fire* -- a run preempted while its marker sits at the split boundary
      wakes at that marker's own heap slot, not at a fresh, later one.
    """

    __slots__ = (
        "event", "bounds", "next_index", "next_time", "hop_index", "hops",
        "has_marker", "split_index", "fired", "relay", "_alive",
    )

    def __init__(self, env: "Environment", bounds: List[float]):
        self.event = BatchTimeout(env, bounds[-1], defer=True)
        self.bounds = bounds
        self.next_index = 0
        self.next_time = bounds[0]
        self.hop_index = 0
        self.split_index = 0  # 1-based split boundary; 0 = not split
        self.fired = False
        self.relay = False
        self._alive = True
        if len(bounds) == 1:
            self.hops = 0
            self.has_marker = False
            eid = env._eid = env._eid + 1
            heappush(env._queue, (bounds[0], eid, self.event))
        else:
            self.hops = 1
            self.has_marker = True
            BatchHop(env, self, bounds[0])

    def sync(self, now: float, inclusive: bool = False) -> None:  # pragma: no cover
        raise NotImplementedError

    def _detach(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def hop(self, horizon: float) -> None:
        """Advance the marker cursor at least one boundary, at most to ``horizon``.

        Called by the kernel when the run's marker pops with no real event
        before ``horizon``: every boundary up to the horizon is provably
        undisturbed, so the cursor jumps across all of them at once.

        When the horizon equals the marker's boundary, a real event shares
        its instant: the boundary is applied inclusively right here, the
        pop position of the per-step release, and the follow-up push is
        *relayed* through a same-instant marker.  Per step, the boundary
        takes two heap pops within the instant (the step timeout, then the
        re-granted request), and only the second pushes the next step's
        timeout; the relay entry holds the request's ``(time, eid)`` slot.
        """
        if self.split_index:
            self._alive = False
            if self.relay:
                # Preempted between the applied boundary and its relay: the
                # relay slot is where the per-step re-grant would push the
                # next step, so reschedule the wake from here.
                self.event.split(self.next_time)
            else:
                # Preempted with this marker at the split boundary: its slot
                # is where the per-step timeout pops (see preempt()).
                self.fired = True
                self.event.fire()
            return
        bounds = self.bounds
        i = self.hop_index
        if self.relay:
            # Second wave of an applied boundary: jump onward from here.
            self.relay = False
        elif horizon <= bounds[i]:
            self.sync(bounds[i], True)
            self.relay = True
            self.hops += 1
            BatchHop(self.event.env, self, bounds[i])
            return
        last = len(bounds) - 1
        i += 1
        while i < last and bounds[i + 1] <= horizon:
            i += 1
        event = self.event
        env = event.env
        if i == last:
            self.has_marker = False
            eid = env._eid = env._eid + 1
            heappush(env._queue, (event._when, eid, event))
        else:
            self.hop_index = i
            self.hops += 1
            BatchHop(env, self, bounds[i])

    def preempt(self) -> None:
        """A competing request arrived: split on the next boundary.

        After :meth:`sync`, ``next_time`` is the first boundary at or after
        now, where the per-step loop would release and let the newcomer
        compete.  If the pending marker (or relay entry) sits there, the wake
        is left to it, so it keeps the per-step timeout's ``(time, eid)``
        slot (see :meth:`hop`); a cursor that already jumped past is
        orphaned and the wake rescheduled by :meth:`BatchTimeout.split`.
        """
        self.sync(self.event.env._now)
        self.split_index = self.next_index + 1
        self._detach()
        if self.has_marker and (
            self.relay or self.bounds[self.hop_index] == self.next_time
        ):
            return
        self._alive = False
        self.event.split(self.next_time)

    def finalize(self, now: float) -> None:
        """Settle the replayed state at wake or teardown time."""
        self._alive = False
        self._detach()
        self.sync(now)


class BatchWalk:
    """Accounting-free batch over a precomputed ascending boundary fold.

    For chains whose interior boundaries have *no observable side effects*
    (e.g. back-to-back network transfers on an uncontended fabric): the
    walker only preserves the heap-entry cadence of the unbatched loop --
    each :class:`BatchHop` lands on a boundary, quiet stretches are crossed
    in one jump, and the deferred :class:`BatchTimeout` fires at ``end``.

    ``boundaries`` are the interior step ends (chain end excluded), computed
    by the caller with the same float fold as the unbatched loop.
    """

    __slots__ = ("event", "boundaries", "hop_index", "hops", "_alive")

    def __init__(self, env: "Environment", boundaries: List[float], end: float):
        self.event = BatchTimeout(env, end, defer=True)
        self.boundaries = boundaries
        self.hop_index = 0
        self.hops = 0
        self._alive = True
        if boundaries:
            self.hops = 1
            BatchHop(env, self, boundaries[0])
        else:
            eid = env._eid = env._eid + 1
            heappush(env._queue, (end, eid, self.event))

    def hop(self, horizon: float) -> None:
        """Advance at least one boundary, at most to ``horizon``."""
        boundaries = self.boundaries
        i = self.hop_index + 1
        n = len(boundaries)
        while i < n and boundaries[i] <= horizon:
            i += 1
        event = self.event
        env = event.env
        if i >= n:
            eid = env._eid = env._eid + 1
            heappush(env._queue, (event._when, eid, event))
        else:
            self.hop_index = i
            self.hops += 1
            BatchHop(env, self, boundaries[i])


class Initialize(Event):
    """Internal event used to start a process at creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        eid = env._eid = env._eid + 1
        env._lane.append((env._now, eid, self))


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that triggers when the generator
    terminates; its value is the generator's return value.
    """

    __slots__ = ("_generator", "_target", "_group")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        self.env = env
        self.callbacks = None
        self._value = PENDING
        self._ok = True
        self._generator = generator
        # Inherit the spawning process's kill-group (if any) so that child
        # processes spawned mid-task can be torn down with their parent.
        parent = env._active_process
        group = getattr(parent, "_group", None) if parent is not None else None
        self._group = group
        if group is not None:
            group[self] = None
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not PENDING:  # already terminated
            return
        target = self._target
        if target is None:
            raise SimulationError("cannot interrupt a process before it starts")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.callbacks = [self._resume]
        # Bypass the regular waiting: stop listening to the old target (which
        # may already be triggered -- scheduled but not yet processed).
        callbacks = target.callbacks
        if callbacks is not None and callbacks is not PROCESSED:
            try:
                callbacks.remove(self._resume)
            except ValueError:
                pass
        self.env._schedule(interrupt_event)

    def _leave_group(self) -> None:
        group = self._group
        if group is not None:
            self._group = None
            group.pop(self, None)

    def kill(self) -> None:
        """Terminate the process immediately, without scheduling anything.

        Unlike :meth:`interrupt`, the generator is closed synchronously
        (``GeneratorExit`` runs its ``finally`` blocks, releasing resource
        requests, finalizing batches and freeing memory) and the process
        event never fires -- waiters, if any, are simply never resumed.
        This is the primitive used by fault injection to abort in-flight
        work on a crashed PE.
        """
        if self._value is not PENDING:  # already terminated
            return
        target = self._target
        if target is not None:
            callbacks = target.callbacks
            if callbacks is not None and callbacks is not PROCESSED:
                try:
                    callbacks.remove(self._resume)
                except ValueError:
                    pass
                # A failed event (e.g. a deadlock abort racing the kill at
                # the same instant) with no remaining listeners would raise
                # at environment level when popped; defuse it.
                if not callbacks and not target._ok:
                    target._ok = True
                    target._value = None
        self._target = None
        self._leave_group()
        self._ok = True
        self._value = None
        self._generator.close()

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        while True:
            env._active_process = self
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # Propagate failures (or interrupts) into the generator.
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                self._target = None
                env._active_process = None
                self._leave_group()
                if self._value is PENDING:
                    self._ok = True
                    self._value = stop.value
                    env._schedule(self)
                return
            except BaseException as exc:
                self._target = None
                env._active_process = None
                self._leave_group()
                if self._value is PENDING:
                    self._ok = False
                    self._value = exc
                    env._schedule(self)
                    return
                raise  # pragma: no cover - defensive
            env._active_process = None

            try:
                callbacks = next_event.callbacks
            except AttributeError:
                raise SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                ) from None
            self._target = next_event
            if callbacks is None:
                next_event.callbacks = [self._resume]
                return
            if callbacks is not PROCESSED:
                callbacks.append(self._resume)
                return
            # Fast path: the yielded event was already processed -- resume
            # synchronously at the current time instead of round-tripping an
            # intermediate event through the heap.
            event = next_event


class AllOf(Event):
    """Triggers when all component events have triggered.

    Succeeds with ``{index: value}`` of the component events, or fails with
    the first component failure.
    """

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self.env = env
        self.callbacks = None
        self._value = PENDING
        self._ok = True
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        check = self._check
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is PROCESSED:
                check(event)
            elif callbacks is None:
                event.callbacks = [check]
            else:
                callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed({index: part._value for index, part in enumerate(self.events)})


class Environment:
    """Simulation environment: clock, event queue and scheduler."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Timed heap: entries scheduled for a later instant.
        self._queue: list[tuple[float, int, Event]] = []
        #: Same-instant lane: entries scheduled at the current instant, in
        #: eid order.  Eids only grow and the clock cannot move while the
        #: lane holds an entry, so a FIFO keeps it sorted in O(1).
        self._lane: deque[tuple[float, int, Event]] = deque()
        #: Marker heap for :class:`BatchHop` entries -- popped in merged
        #: ``(time, eid)`` order with ``_queue`` but kept apart so batch
        #: cursors see only *real* events in their horizon.
        self._hops: list[tuple[float, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Heap pushes *avoided* by macro-event coalescing (maintained by the
        #: hardware batching layers; purely observational).
        self.events_coalesced = 0

    @property
    def events_dispatched(self) -> int:
        """Number of entries scheduled so far (every event id allocated).

        Lane entries, timed-heap entries and batch markers all count.

        Together with :attr:`events_coalesced` this yields the coalescing
        ratio ``(dispatched + coalesced) / dispatched`` -- how many events the
        equivalent unbatched run would have scheduled per event actually
        dispatched.
        """
        return self._eid

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event creation --------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers once every event in ``events`` has."""
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event) -> None:
        """Schedule an already triggered ``event`` at the current instant."""
        eid = self._eid = self._eid + 1
        self._lane.append((self._now, eid, event))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue is exhausted or ``until`` is reached."""
        if until is None:
            limit = _INF
        elif until < self._now:
            raise SimulationError(f"until ({until}) lies in the past")
        else:
            limit = until
        # This loop is the single hottest piece of code in the whole
        # simulator.  It pops the smallest ``(time, eid)`` head of three
        # sorted sources: the same-instant lane, the timed heap and the
        # batch-hop marker heap.  Lane entries all sit at ``now``, so while
        # the lane holds one, only a heap entry at ``now`` with a smaller
        # eid (scheduled before the lane head) can come first, and the clock
        # stays put.  A failed event (or crashed process) nobody waits for
        # is a programming error: it is raised, not silently dropped.
        lane = self._lane
        popleft = lane.popleft
        queue = self._queue
        hops = self._hops
        while True:
            if lane:
                head = lane[0]
                if queue and queue[0] < head:
                    if hops and hops[0] < queue[0]:
                        event = heappop(hops)[2]
                    else:
                        event = heappop(queue)[2]
                elif hops and hops[0] < head:
                    event = heappop(hops)[2]
                else:
                    event = popleft()[2]
            else:
                if hops and (not queue or hops[0] < queue[0]):
                    source = hops
                elif queue:
                    source = queue
                else:
                    break
                when = source[0][0]
                if when > limit:
                    break
                event = heappop(source)[2]
                self._now = when
            callbacks = event.callbacks
            event.callbacks = PROCESSED
            if callbacks:
                for callback in callbacks:
                    callback(event)
            elif not event._ok:
                raise event._value
        if until is not None:
            self._now = until
