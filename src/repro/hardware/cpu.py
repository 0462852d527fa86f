"""CPU server of a processing element.

Every major processing step requests CPU service (paper §4): transaction
initiation (BOT), object accesses in main memory, I/O overhead, communication
overhead and commit processing.  Service times are derived from the
instruction cost table (Fig. 4) and the CPU speed in MIPS.

OLTP transactions may be given priority over complex-query work; the
underlying :class:`~repro.sim.resources.PriorityResource` serves lower
priority values first.

Event coalescing
----------------
Multi-quantum demands normally cost one request/timeout round-trip per
quantum.  When the CPU is uncontended (single server, nothing queued) the
whole remaining demand is covered by one macro-event instead: a
``_QuantumBatch``, a :class:`~repro.sim.core.BatchRun` subclass that only
folds the quantum boundaries and replays their busy time; the marker, relay
and split protocol is the kernel's.  Semantics are pinned to the unbatched
loop:

* the macro end time and every virtual quantum boundary are computed by the
  *same left-fold of float additions* the per-quantum loop performs, so
  completion times are bit-identical;
* busy-time accounting is replayed lazily at the same boundaries (and topped
  up by ``Resource._account`` at observation points), so utilisation windows
  are bit-identical;
* the moment a competing request arrives -- OLTP preemption included -- the
  macro-event splits on the first quantum boundary at or after the arrival:
  the holder releases there (granting the newcomer exactly as the unbatched
  release would) and re-queues its remainder through the per-quantum path.
"""

from __future__ import annotations

import logging
from typing import Generator

from repro.config.parameters import CpuConfig, InstructionCosts
from repro.sim import BatchRun, Environment, PriorityResource, Timeout, coalescing_enabled

__all__ = ["CpuServer", "PRIORITY_OLTP", "PRIORITY_QUERY"]

#: Priority levels: lower value is served first.
PRIORITY_OLTP = 0
PRIORITY_QUERY = 5

_logger = logging.getLogger(__name__)

#: Relative float-rounding slack before a >1.0 windowed utilisation is
#: reported as an accounting error rather than clamped silently.
_UTILIZATION_SLACK = 1e-9


class _QuantumBatch(BatchRun):
    """One coalesced run of ``n`` uncontended CPU quanta.

    The run's boundaries fold ``n - 1`` full quanta of ``sec_q`` seconds and
    a final slice of ``sec_final`` seconds from the start.  :meth:`sync`
    adds, at every boundary it replays, the busy-time piece the per-quantum
    release would add; the boundary *at* the current time is left to the
    real ``release()`` so piece order matches.
    """

    __slots__ = ("resource",)

    def __init__(
        self,
        env: Environment,
        resource: PriorityResource,
        n: int,
        sec_q: float,
        sec_final: float,
    ):
        t = env._now
        bounds = []
        for _ in range(n - 1):
            t += sec_q
            bounds.append(t)
        bounds.append(t + sec_final)
        BatchRun.__init__(self, env, bounds)
        self.resource = resource
        resource._batch = self

    def sync(self, now: float, inclusive: bool = False) -> None:
        nt = self.next_time
        if nt > now or (nt == now and not inclusive):
            return
        res = self.resource
        bounds = self.bounds
        i = self.next_index
        while nt < now or (inclusive and nt == now):
            # Per quantum, the holder releases and at once re-acquires the
            # sole slot at each boundary: one busy piece ending there.
            res._busy_time += res._busy_servers * (nt - res._last_change)
            res._last_change = nt
            i += 1
            nt = bounds[i]
        self.next_index = i
        self.next_time = nt

    def _detach(self) -> None:
        if self.resource._batch is self:
            self.resource._batch = None


class CpuServer:
    """The CPU(s) of one PE with utilisation bookkeeping.

    Besides the lifetime utilisation (from the resource accounting), the
    server keeps a *windowed* utilisation that the control node polls
    periodically -- dynamic load balancing reacts to the recent past, not to
    the whole history.
    """

    def __init__(
        self,
        env: Environment,
        config: CpuConfig,
        costs: InstructionCosts,
        pe_id: int = 0,
    ):
        self.env = env
        self.config = config
        self.costs = costs
        self.pe_id = pe_id
        self.resource = PriorityResource(env, capacity=config.cpus_per_pe, name=f"cpu[{pe_id}]")
        self._quantum = max(1, config.quantum_instructions)
        # Quantum coalescing virtualises a single-server resource; multi-CPU
        # PEs fall back to per-quantum slicing.
        self._coalesce = coalescing_enabled() and config.cpus_per_pe == 1
        self._window_start_time = 0.0
        self._window_start_busy = 0.0
        self._windowed_utilization = 0.0

    # -- service -----------------------------------------------------------
    def seconds_for(self, instructions: float) -> float:
        """CPU service time for a request of ``instructions``."""
        return self.config.seconds_for(instructions)

    def consume(
        self, instructions: float, priority: int = PRIORITY_QUERY
    ) -> Generator:
        """Simulation process step: occupy the CPU for ``instructions``.

        Demands larger than the scheduling quantum are served in slices so
        that concurrently running transactions share the CPU in a
        round-robin fashion (and higher-priority OLTP work gets in between
        slices) instead of waiting for one another's full demand.  When the
        CPU is uncontended the slices are coalesced into one macro-event
        with identical semantics (see the module docstring).

        Usage inside a process: ``yield from cpu.consume(50_000)``.
        """
        if instructions <= 0:
            return
        env = self.env
        resource = self.resource
        quantum = self._quantum
        if instructions <= quantum:
            # Fast path: most demands (message handling, per-chunk CPU work)
            # fit in one quantum -- no slicing arithmetic needed.
            req = resource.request(priority=priority)
            try:
                yield req
                yield Timeout(env, self.config.seconds_for(instructions))
            finally:
                resource.release(req)
            return
        coalesce = self._coalesce
        remaining = instructions
        while remaining > 0:
            req = resource.request(priority=priority)
            try:
                yield req
                # Re-read per slice: fault injection swaps ``self.config``
                # mid-run (stragglers), and a new slice must run at the
                # speed in force when it starts.
                seconds_for = self.config.seconds_for
                if coalesce and remaining > quantum and resource._queued == 0:
                    # Uncontended: cover every remaining quantum with one
                    # macro-event.  Slice count and boundaries replicate the
                    # unbatched loop's float arithmetic exactly.
                    n = 1
                    r = remaining
                    while r > quantum:
                        n += 1
                        r -= quantum
                    batch = _QuantumBatch(
                        env, resource, n, seconds_for(quantum), seconds_for(r)
                    )
                    try:
                        yield batch.event
                    finally:
                        batch.finalize(env._now)
                    k = batch.split_index
                    if k == 0 or k >= n:
                        env.events_coalesced += max(0, 2 * n - 2 - batch.hops)
                        remaining = 0
                    else:
                        env.events_coalesced += max(0, 2 * k - 2 - batch.hops)
                        for _ in range(k):
                            remaining -= quantum
                else:
                    slice_instructions = quantum if remaining > quantum else remaining
                    yield Timeout(env, seconds_for(slice_instructions))
                    remaining -= slice_instructions
            finally:
                resource.release(req)

    # -- utilisation -------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Lifetime average utilisation (0..1)."""
        return self.resource.utilization()

    def close_window(self) -> float:
        """Close the current measurement window and return its utilisation.

        Called by the control node every report interval.  A value beyond
        1.0 (modulo float-rounding slack) means the busy-time accounting
        double-counted somewhere; it is logged loudly instead of being
        silently hidden by the clamp.
        """
        now, busy = self.resource.snapshot()
        elapsed = now - self._window_start_time
        if elapsed > 0:
            utilization = (busy - self._window_start_busy) / (
                elapsed * self.config.cpus_per_pe
            )
            if utilization > 1.0 + _UTILIZATION_SLACK:
                _logger.warning(
                    "cpu[%d]: windowed utilisation %.12f exceeds 1.0 "
                    "(window %.6f..%.6f) -- busy-time accounting double-counted",
                    self.pe_id,
                    utilization,
                    self._window_start_time,
                    now,
                )
            self._windowed_utilization = utilization if utilization < 1.0 else 1.0
        self._window_start_time = now
        self._window_start_busy = busy
        return self._windowed_utilization

    @property
    def recent_utilization(self) -> float:
        """Utilisation of the most recently closed window."""
        return self._windowed_utilization

    @property
    def queue_length(self) -> int:
        """Number of CPU requests currently waiting."""
        return self.resource.queue_length
