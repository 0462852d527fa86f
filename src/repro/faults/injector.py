"""Runtime fault injector.

:class:`FaultRuntime` interprets an expanded fault plan inside a running
:class:`~repro.simulation.system.ParallelSystem`: an injector *process*
sleeps until each event's instant and applies it -- killing and
resubmitting in-flight work for crashes, swapping hardware configs for
stragglers (splitting any active coalesced macro-event first, PR 6), and
simulating explicit repartitioning work for membership changes.

The runtime also owns the observability side: an availability step
function and labeled anomaly windows, folded into per-window timeline
rows (``availability`` / ``anomaly``) by the timeline collector.

Every system builds a :class:`FaultRuntime`.  An empty plan injects
nothing: the runtime starts no injector process and so schedules no
event, and its gates admit every transaction unchanged.  Its registry of
in-flight transactions is pruned as it grows, so on any run it holds
about twice the live transactions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.database.allocation import failover_scan_sites
from repro.faults.plan import FaultEvent, expand_events
from repro.workload.query import JoinQuery, Transaction

__all__ = ["FaultRuntime"]

#: Registry size below which ``track`` never prunes.
_MIN_PRUNE_AT = 64


def _overlaps(steps, start: float, end: float):
    """``(step, length)`` for each step of a ``(time, ...)`` step function
    that overlaps the window [start, end), ``length`` being the overlap."""
    for index, step in enumerate(steps):
        seg_start = step[0] if step[0] > start else start
        seg_end = steps[index + 1][0] if index + 1 < len(steps) else end
        if seg_end > end:
            seg_end = end
        if seg_end > seg_start:
            yield step, seg_end - seg_start


class _TxnRecord:
    """Registry entry for one in-flight transaction."""

    __slots__ = ("txn", "pes", "group")

    def __init__(self, txn: Transaction, pes: set):
        self.txn = txn
        self.pes = pes
        #: Insertion-ordered dict used as an ordered set of live processes
        #: (the root process plus every descendant, via group inheritance
        #: in the simulation kernel).  Processes remove themselves on
        #: termination, so an empty group means the transaction is done.
        self.group: Dict[object, None] = {}


class _AnomalyWindow:
    __slots__ = ("start", "end", "kind", "pe")

    def __init__(self, start: float, kind: str, pe: int):
        self.start = start
        self.end: Optional[float] = None
        self.kind = kind
        self.pe = pe


class FaultRuntime:
    """Interprets a fault plan against a live system."""

    def __init__(self, system, events: Sequence[FaultEvent]):
        self.system = system
        self.env = system.env
        self.events: List[FaultEvent] = expand_events(events)
        num_pe = system.config.num_pe
        for event in self.events:
            if event.rack is not None:
                racks = system.config.topology.racks
                if event.rack >= racks:
                    raise ValueError(
                        f"fault targets rack {event.rack} but the topology has "
                        f"{racks} rack(s)"
                    )
            elif event.pe >= num_pe:
                raise ValueError(
                    f"fault targets PE {event.pe} but the system has {num_pe} PEs"
                )
        self.alive = [True] * num_pe
        # Join-processor pool membership: PEs targeted by a pe_add start
        # outside the pool and join once their rebalancing completes.
        add_targets = {e.pe for e in self.events if e.kind == "pe_add"}
        self.joined = [pe_id not in add_targets for pe_id in range(num_pe)]
        self.cpu_factor = [1.0] * num_pe
        self.disk_factor = [1.0] * num_pe
        self._base_cpu = [pe.cpu.config for pe in system.pes]
        self._base_disk = [pe.disks.config for pe in system.pes]
        self._records: Dict[int, _TxnRecord] = {}
        # ``track`` prunes finished records once the registry outgrows this.
        self._prune_at = _MIN_PRUNE_AT
        self._held: List[Transaction] = []
        self._windows: List[_AnomalyWindow] = []
        self._steps: List[Tuple[float, int, int]] = []
        self._data_steps: List[Tuple[float, float]] = []
        # Active cascading-overload surges, keyed by the crash target so the
        # matching recover can retract exactly its own contribution.
        self._surges: Dict[Tuple[str, int], float] = {}
        # PEs that ever recover in this plan; a crash of any other PE is a
        # *permanent* loss and (under replication) triggers re-replication.
        self._recover_pes = set()
        for event in self.events:
            if event.kind == "pe_recover":
                self._recover_pes.update(self._targets(event))
        self._step(0.0)
        self._started = False
        # Counters (exposed in benchmarks / debugging).
        self.injected = 0
        self.kills = 0
        self.resubmits = 0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.events:
            self.env.process(self._injector_loop())

    def _injector_loop(self):
        env = self.env
        for event in self.events:
            if event.time > env.now:
                yield env.timeout(event.time - env.now)
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        self.injected += 1
        self._prune_registry()
        handler = getattr(self, f"_apply_{event.kind}")
        handler(event)

    def _targets(self, event: FaultEvent) -> List[int]:
        """PEs targeted by one crash/recover event (rack-scoped or single)."""
        if event.rack is None:
            return [event.pe]
        num_pe = len(self.alive)
        topology = self.system.config.topology
        return [
            pe_id
            for pe_id in range(num_pe)
            if topology.rack_of(pe_id, num_pe) == event.rack
        ]

    def dead_pes(self) -> FrozenSet[int]:
        """PEs currently crashed (empty set when everything is alive)."""
        return self._dead

    # -- availability / anomaly bookkeeping -----------------------------------
    def _step(self, time: float) -> None:
        """Refresh the membership views after ``alive``/``joined`` changed,
        and record one step of the availability step functions."""
        alive, joined = self.alive, self.joined
        self._dead = frozenset(pe_id for pe_id, up in enumerate(alive) if not up)
        self._eligible = tuple(
            pe_id for pe_id, (up, member) in enumerate(zip(alive, joined)) if up and member
        )
        self._steps.append((time, len(self._eligible), sum(joined)))
        self._data_steps.append((time, self._data_fraction()))

    def _data_fraction(self) -> float:
        """Fraction of database tuples with at least one alive copy *now*."""
        dead = self.dead_pes()
        catalog = self.system.catalog
        total = 0
        reachable = 0
        for name in catalog.names:
            relation = catalog.relation(name)
            for pe_id, fragment in relation.fragments.items():
                total += fragment.num_tuples
                if pe_id not in dead:
                    reachable += fragment.num_tuples
                    continue
                backup = relation.backup_of(pe_id)
                if backup is not None and backup not in dead:
                    reachable += fragment.num_tuples
        return reachable / total if total else 1.0

    def _open_window(self, kind: str, pe: int) -> _AnomalyWindow:
        window = _AnomalyWindow(self.env.now, kind, pe)
        self._windows.append(window)
        return window

    def _close_windows(self, kinds: Sequence[str], pe: int) -> None:
        for window in self._windows:
            if window.end is None and window.pe == pe and window.kind in kinds:
                window.end = self.env.now

    def window_stats(self, start: float, end: float) -> Tuple[float, str]:
        """Fold the fault record into one timeline window [start, end).

        Returns ``(availability, anomaly)``: availability is the
        time-integral of alive-and-joined PEs over joined PEs (1.0 when the
        pool was empty for the whole window -- nothing was expected of it),
        anomaly is a stable ``kind:peN`` label join of overlapping injected
        windows (empty when the window is clean).
        """
        numerator = 0.0
        denominator = 0.0
        for (_, alive_joined, joined), length in _overlaps(self._steps, start, end):
            numerator += alive_joined * length
            denominator += joined * length
        availability = numerator / denominator if denominator > 0 else 1.0
        labels = sorted(
            {
                f"{window.kind}:pe{window.pe}"
                for window in self._windows
                if window.start < end and (window.end is None or window.end > start)
            }
        )
        return availability, "+".join(labels)

    def data_availability(self, start: float, end: float) -> float:
        """Effective availability of one window [start, end).

        Time-integral of the fraction of database tuples with at least one
        alive copy -- under replication a crashed PE costs no availability
        as long as the backups of its fragments survive, whereas in the
        single-copy system every crash makes its fragments unreachable.
        """
        numerator = 0.0
        duration = 0.0
        for (_, fraction), length in _overlaps(self._data_steps, start, end):
            numerator += fraction * length
            duration += length
        return numerator / duration if duration > 0 else 1.0

    # -- scheduling hooks ------------------------------------------------------
    def eligible_processors(self) -> Tuple[int, ...]:
        """PEs currently usable as join processors (alive and in the pool)."""
        return self._eligible

    def _next_eligible(self, pe: int) -> Optional[int]:
        """Cyclically next alive-and-joined PE after ``pe`` (None if none)."""
        num_pe = len(self.alive)
        for offset in range(1, num_pe + 1):
            candidate = (pe + offset) % num_pe
            if self.alive[candidate] and self.joined[candidate]:
                return candidate
        return None

    # -- submission interception ------------------------------------------------
    def _join_pes(self, query: JoinQuery) -> set:
        """PEs a join touches for its data, accounting for replica failover."""
        catalog = self.system.catalog
        dead = self.dead_pes()
        pes: set = set()
        for name in (query.inner_relation, query.outer_relation):
            relation = catalog.relation(name)
            if dead and relation.backups:
                sites = failover_scan_sites(relation, dead)
                if sites is not None:
                    pes.update(pe_id for pe_id, _, _ in sites)
                    continue
            pes.update(relation.node_ids)
        return pes

    def _data_reachable(self, query: JoinQuery) -> bool:
        """True when every fragment the join scans has an alive copy."""
        dead = self.dead_pes()
        if not dead:
            return True
        catalog = self.system.catalog
        for name in (query.inner_relation, query.outer_relation):
            relation = catalog.relation(name)
            if not any(pe_id in dead for pe_id in relation.node_ids):
                continue
            if not relation.backups:
                return False
            if failover_scan_sites(relation, dead) is None:
                return False
        return True

    def on_submit(self, transaction: Transaction) -> bool:
        """Gate a routed transaction; False holds it for later resubmission.

        Join coordinators routed onto unusable PEs are remapped (cyclically)
        to the next usable one; joins whose *data* is unreachable (the home
        PE is down and, under replication, so is every backup copy), and
        OLTP transactions whose home PE is down, are held -- with replicas
        the reads fail over to surviving copies instead.
        """
        if isinstance(transaction, JoinQuery):
            if not self._data_reachable(transaction):
                self._held.append(transaction)
                return False
            coordinator = transaction.coordinator_pe
            if not (self.alive[coordinator] and self.joined[coordinator]):
                remapped = self._next_eligible(coordinator)
                if remapped is None:
                    self._held.append(transaction)
                    return False
                transaction.coordinator_pe = remapped
            return True
        home = transaction.home_pe
        if home is None:
            home = transaction.coordinator_pe
        if not self.alive[home]:
            self._held.append(transaction)
            return False
        return True

    def track(self, transaction: Transaction, process) -> None:
        """Register a root process (and, via inheritance, its descendants)."""
        if isinstance(transaction, JoinQuery):
            pes = self._join_pes(transaction)
            pes.add(transaction.coordinator_pe)
        else:
            home = transaction.home_pe
            if home is None:
                home = transaction.coordinator_pe
            pes = {home}
        record = _TxnRecord(transaction, pes)
        record.group[process] = None
        process._group = record.group
        self._records[transaction.txn_id] = record
        if len(self._records) > self._prune_at:
            self._prune_registry()

    def note_plan(self, query: JoinQuery, processors: Sequence[int]) -> None:
        """Extend a join's PE set with its chosen join processors."""
        record = self._records.get(query.txn_id)
        if record is not None:
            record.pes.update(processors)

    def _prune_registry(self) -> None:
        """Drop the records of finished transactions (empty kill-groups).

        Crashes and drains prune before they read the registry, and
        ``note_plan`` reads only its own live record, so when a prune runs
        cannot change an outcome.  ``track`` prunes whenever the registry
        doubles, which bounds it at about twice the live transactions.
        """
        self._records = {
            txn_id: record for txn_id, record in self._records.items() if record.group
        }
        self._prune_at = max(_MIN_PRUNE_AT, 2 * len(self._records))

    # -- hardware speed control --------------------------------------------------
    def _apply_speed(self, pe_id: int) -> None:
        """Swap the PE's hardware configs to the current factors.

        Any active coalesced macro-event is split at the fault instant first
        (PR 6 invariant: batched == unbatched), so already-elapsed virtual
        time is accounted at the old speed and the remainder re-runs at the
        new one.
        """
        pe = self.system.pes[pe_id]
        cpu_batch = pe.cpu.resource._batch
        if cpu_batch is not None:
            cpu_batch.preempt()
        disk_batch = pe.disks._batch
        if disk_batch is not None:
            disk_batch.preempt()
        pe.cpu.config = self._base_cpu[pe_id].scaled(self.cpu_factor[pe_id])
        pe.disks.config = self._base_disk[pe_id].scaled(self.disk_factor[pe_id])
        self._sync_status(pe_id)

    def _sync_status(self, pe_id: int) -> None:
        """Push availability/speed into the control node's view of the PE."""
        status = self.system.control_node.status_of(pe_id)
        status.available = self.alive[pe_id] and self.joined[pe_id]
        status.speed_factor = self.cpu_factor[pe_id]

    # -- event handlers -----------------------------------------------------------
    def _apply_degrade(self, event: FaultEvent) -> None:
        self.cpu_factor[event.pe] = event.factor
        self.disk_factor[event.pe] = event.factor
        self._apply_speed(event.pe)
        self._open_window("degrade", event.pe)

    def _apply_disk_fail(self, event: FaultEvent) -> None:
        self.disk_factor[event.pe] = event.factor
        self._apply_speed(event.pe)
        self._open_window("disk_fail", event.pe)

    def _apply_restore(self, event: FaultEvent) -> None:
        self.cpu_factor[event.pe] = 1.0
        self.disk_factor[event.pe] = 1.0
        self._apply_speed(event.pe)
        self._close_windows(("degrade", "disk_fail"), event.pe)

    def _surge_key(self, event: FaultEvent) -> Tuple[str, int]:
        if event.rack is not None:
            return ("rack", event.rack)
        return ("pe", event.pe)

    def _apply_surge_scale(self) -> None:
        """Push the product of active surges into the open-workload arrivals."""
        scale = 1.0
        for value in self._surges.values():
            scale *= value
        generator = getattr(self.system, "workload_generator", None)
        if generator is not None:
            generator.rate_scale = scale

    def _apply_pe_crash(self, event: FaultEvent) -> None:
        targets = self._targets(event)
        for pe_id in targets:
            self.alive[pe_id] = False
        self._step(self.env.now)
        for pe_id in targets:
            self._sync_status(pe_id)
            self._open_window("pe_crash", pe_id)
        if event.surge is not None:
            self._surges[self._surge_key(event)] = event.surge
            self._apply_surge_scale()
        target_set = set(targets)
        victims = sorted(
            txn_id
            for txn_id, record in self._records.items()
            if record.pes & target_set
        )
        restartable: List[Transaction] = []
        for txn_id in victims:
            record = self._records.pop(txn_id)
            self._kill_record(record)
            restartable.append(record.txn)
        if restartable:
            self.env.process(self._resubmit_later(restartable, event.restart_delay))
        # Permanent loss of a PE under replication: restore redundancy by
        # copying its fragments from the surviving backups to new hosts
        # (DynaHash-style rebalancing cost, charged to network + disks).
        if self.system.config.replication is not None:
            for pe_id in targets:
                if pe_id not in self._recover_pes:
                    self.env.process(self._re_replicate(pe_id))

    def _re_replicate(self, pe_id: int):
        """Ship the lost fragments' pages from their surviving copy."""
        catalog = self.system.catalog
        for name in catalog.names:
            relation = catalog.relation(name)
            if not relation.backups or not relation.has_fragment_on(pe_id):
                continue
            backup = relation.backup_of(pe_id)
            if backup is None or not self.alive[backup]:
                continue  # no surviving copy -- nothing to re-replicate from
            target = self._next_eligible(backup)
            if target is None or target == backup:
                continue
            pages = relation.fragment_on(pe_id).pages
            if pages > 0:
                yield from self._ship_pages(backup, target, pages)

    def _ship_pages(self, src: int, dst: int, pages: int):
        """Copy ``pages`` pages from ``src`` onto ``dst``'s disks."""
        page_size = self.system.config.buffer.page_size_bytes
        yield from self.system.network.transfer_chain([page_size] * pages, src=src, dst=dst)
        yield from self.system.pes[dst].disks.write_sequential(pages)

    def _kill_record(self, record: _TxnRecord) -> None:
        self.kills += 1
        # Deepest-first: descendants were inserted after their parents, and
        # closing a child's generator before its parent keeps the parent's
        # cleanup (finally blocks) from observing half-torn-down children.
        for process in reversed(list(record.group)):
            process.kill()
        txn_id = record.txn.txn_id
        # The MPL slot first, then the locks and pages: grants made at this
        # instant are scheduled in that order.
        for pe in self.system.pes:
            pe.transactions.purge_txn(txn_id)
        owner = f"join-{txn_id}"
        for pe in self.system.pes:
            pe.locks.purge_txn(txn_id)
            pe.buffer.purge_owner(owner)

    def _resubmit_later(self, transactions: List[Transaction], delay: float):
        if delay > 0:
            yield self.env.timeout(delay)
        for transaction in transactions:
            self._resubmit(transaction)

    def _resubmit(self, transaction: Transaction) -> None:
        """Re-run a killed/held transaction, bypassing the arrival routers
        (their RNG streams must only advance once per original arrival)."""
        if self.system._launch(transaction):
            self.resubmits += 1

    def _apply_pe_recover(self, event: FaultEvent) -> None:
        targets = self._targets(event)
        for pe_id in targets:
            self.alive[pe_id] = True
        self._step(self.env.now)
        for pe_id in targets:
            self._sync_status(pe_id)
            self._close_windows(("pe_crash",), pe_id)
        if self._surges.pop(self._surge_key(event), None) is not None:
            self._apply_surge_scale()
        self._release_held()

    def _release_held(self) -> None:
        held = self._held
        self._held = []
        for transaction in held:
            self._resubmit(transaction)

    def _apply_pe_add(self, event: FaultEvent) -> None:
        window = self._open_window("pe_add", event.pe)
        self.env.process(self._rebalance_in(event, window))

    def _rebalance_in(self, event: FaultEvent, window: _AnomalyWindow):
        """Ship partitions onto the joining PE, then admit it to the pool."""
        donor = self._next_eligible(event.pe)
        if event.pages > 0 and donor is not None:
            yield from self._ship_pages(donor, event.pe, event.pages)
        self.joined[event.pe] = True
        self._step(self.env.now)
        self._sync_status(event.pe)
        window.end = self.env.now
        self._release_held()

    def _apply_pe_remove(self, event: FaultEvent) -> None:
        pe_id = event.pe
        self.joined[pe_id] = False
        self._step(self.env.now)
        self._sync_status(pe_id)
        window = self._open_window("pe_remove", pe_id)
        self.env.process(self._rebalance_out(event, window))

    def _inflight_on(self, pe_id: int) -> bool:
        """True while any registered in-flight transaction touches ``pe_id``."""
        self._prune_registry()
        return any(pe_id in record.pes for record in self._records.values())

    def _rebalance_out(self, event: FaultEvent, window: _AnomalyWindow):
        """Drain the removed PE's partitions onto its cyclic successor.

        A *planned* drain (``drain=true``) waits for the PE's in-flight
        transactions first: the pool departure already stopped new work from
        being placed there, so polling until the registry clears gives a
        zero-abort removal.
        """
        if event.drain:
            while self._inflight_on(event.pe):
                yield self.env.timeout(0.25)
        receiver = self._next_eligible(event.pe)
        if event.pages > 0 and receiver is not None and self.alive[event.pe]:
            yield from self._ship_pages(event.pe, receiver, event.pages)
        window.end = self.env.now
