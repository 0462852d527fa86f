"""The same-instant lane changes no dispatch: it equals the one-heap kernel.

``Environment`` keeps the entries scheduled at the current instant in a FIFO
lane beside its timed heap and pops whichever head is smallest by
``(time, eid)``.  ``_HeapLane`` is a test-only stand-in for that lane: it
is always falsy and pushes every entry onto the timed heap, so an
environment carrying it runs the one-heap kernel the lane replaced.  Every
program below must dispatch the same ``(time, eid)`` sequence, allocate the
same event ids and coalesce the same events on both kernels.
"""

from collections import deque
from contextlib import contextmanager
from heapq import heappush

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.sim.core as core
import repro.simulation.system as system_module
from repro.config import CpuConfig, DiskConfig, InstructionCosts
from repro.engine.deadlock import DeadlockDetector
from repro.engine.lock import DeadlockAbort, LockManager, LockMode
from repro.experiments.scenarios import mixed_workload_config
from repro.hardware import PRIORITY_OLTP, PRIORITY_QUERY, CpuServer, DiskArray
from repro.sim import Environment, Interrupt, PriorityResource, Resource
from repro.simulation.driver import SimulationDriver


class _HeapLane:
    """Stand-in for ``Environment._lane`` that reproduces the one-heap kernel."""

    def __init__(self, queue):
        self._queue = queue

    def __bool__(self):
        return False

    def append(self, entry):
        heappush(self._queue, entry)

    def popleft(self):  # pragma: no cover - a falsy lane is never popped
        raise AssertionError("the one-heap kernel never pops the lane")


class _RecordingLane(deque):
    """The real lane, noting the ``(time, eid)`` of every entry it hands out."""

    def __init__(self, dispatched):
        super().__init__()
        self.dispatched = dispatched
        self.pops = 0

    def popleft(self):
        entry = super().popleft()
        self.dispatched.append(entry[:2])
        self.pops += 1
        return entry


class _Kernel:
    """Builds environments on one kernel and records what their run loop pops.

    While :meth:`installed`, every heap pop of the run loop is noted in
    ``dispatched`` (the lane notes its own), and ``merged`` counts heap
    pops taken while the lane still held entries: heap entries at the
    current instant that were scheduled before the lane's head.
    """

    def __init__(self, one_heap):
        self.one_heap = one_heap
        self.dispatched = []
        self.lane = None
        self.merged = 0

    def environment(self):
        env = Environment()
        if self.one_heap:
            env._lane = _HeapLane(env._queue)
        else:
            env._lane = self.lane = _RecordingLane(self.dispatched)
        return env

    @contextmanager
    def installed(self):
        heappop = core.heappop

        def recording_heappop(heap):
            entry = heappop(heap)
            self.dispatched.append(entry[:2])
            if self.lane:
                self.merged += 1
            return entry

        core.heappop = recording_heappop
        try:
            yield self
        finally:
            core.heappop = heappop


# -- generated programs ----------------------------------------------------------------
#
# A program is a list of process scripts ``(start, ops)``: a script with a
# start time is launched then, one without only by another script's
# ``spawn``.  Script ``i`` runs as transaction ``i + 1``.

_DELAYS = st.sampled_from([0.0, 0.0025, 0.005, 0.01])
_TARGETS = st.integers(0, 5)
_OPS = st.one_of(
    st.tuples(st.just("wait"), _DELAYS),
    st.just(("now",)),
    st.tuples(st.just("use"), st.integers(0, 2), _DELAYS, st.integers(0, 1),
              st.one_of(st.none(), _DELAYS)),
    st.tuples(st.just("lock"), st.integers(0, 1), st.sampled_from(["x", "y", 7]),
              st.booleans()),
    st.tuples(st.just("cpu"), st.sampled_from([40_000, 250_000, 1_230_000]),
              st.sampled_from([PRIORITY_OLTP, PRIORITY_QUERY])),
    st.tuples(st.just("disk"), st.sampled_from([1, 5, 12])),
    st.tuples(st.just("rand"), st.sampled_from([None, 0, 1])),
    st.tuples(st.just("allof"), st.lists(_DELAYS, max_size=3)),
    st.tuples(st.just("spawn"), _TARGETS),
    st.tuples(st.just("interrupt"), _TARGETS),
    st.tuples(st.just("kill"), _TARGETS),
)
_PROGRAMS = st.lists(
    st.tuples(st.one_of(st.none(), st.sampled_from([0.0, 0.005, 0.02])),
              st.lists(_OPS, max_size=8)),
    min_size=1, max_size=6,
)

#: Covers every feature.  Scripts 0 and 1 deadlock on x and y, and the
#: detector aborts transaction 2; script 0 then runs a CPU quantum batch,
#: which script 2's OLTP work preempts, and script 2's random reads split
#: script 6's disk chain.  Script 4 queues behind script 3 for resource 0
#: and gives up (a cancel), is interrupted by script 3 (after an ``AllOf``),
#: then spawns script 5 and kills it while it waits for lock 7.  Script 0's
#: zero-delay timeout sits on the heap at the current instant while later
#: same-instant entries fill the lane.
_FIXED = [
    (0.0, [("wait", 0.0), ("lock", 0, "x", True), ("wait", 0.005), ("lock", 0, "y", True),
           ("cpu", 1_230_000, PRIORITY_QUERY)]),
    (0.0, [("lock", 0, "y", True), ("wait", 0.005), ("lock", 0, "x", True)]),
    (0.0625, [("cpu", 40_000, PRIORITY_OLTP), ("rand", 1), ("rand", 1)]),
    (0.0, [("use", 0, 0.01, 0, None), ("now",), ("allof", [0.0, 0.005]), ("interrupt", 4)]),
    (0.0, [("use", 0, 0.01, 0, 0.0025), ("wait", 0.02), ("lock", 1, 7, True),
           ("wait", 0.01), ("spawn", 5), ("wait", 0.005), ("kill", 5)]),
    (None, [("lock", 1, 7, False), ("disk", 5)]),
    (0.06, [("disk", 12)]),
]


def _run_program(scripts, environment):
    env = environment()
    trace = []
    procs = {}
    resources = [Resource(env, capacity=1), Resource(env, capacity=2),
                 PriorityResource(env, capacity=1)]
    locks = []
    detector = DeadlockDetector(
        env, detection_interval=0.05,
        abort_callback=lambda txn: any([manager.abort_waiter(txn) for manager in locks]),
    )
    locks.extend(LockManager(env, pe_id=i, deadlock_detector=detector) for i in range(2))
    cpu = CpuServer(env, CpuConfig(mips=20), InstructionCosts())
    disks = DiskArray(env, DiskConfig(disks_per_pe=1))

    def start(index):
        if index < len(scripts) and index not in procs:
            procs[index] = env.process(body(index))

    def op(index, txn, step):
        kind, *args = step
        if kind == "wait":
            yield env.timeout(args[0])
        elif kind == "now":
            event = env.event()
            event.succeed(index)
            yield event
        elif kind == "use":
            which, hold, priority, patience = args
            resource = resources[which]
            request = resource.request(priority=priority)
            try:
                if patience is not None:
                    yield env.timeout(patience)
                    if not request.triggered:
                        trace.append((env.now, index, "gave up"))
                        return
                yield request
                yield env.timeout(hold)
            finally:
                resource.release(request)
        elif kind == "lock":
            which, key, exclusive = args
            mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
            yield locks[which].acquire(txn, key, mode)
        elif kind == "cpu":
            yield from cpu.consume(args[0], priority=args[1])
        elif kind == "disk":
            yield from disks.read_sequential(args[0])
        elif kind == "rand":
            yield from disks.read_random(page_key=args[0])
        elif kind == "allof":
            done = env.event()
            done.succeed()
            yield env.all_of([env.timeout(delay) for delay in args[0]] + [done])
        elif kind == "spawn":
            start(args[0])
        else:
            target = procs.get(args[0])
            if args[0] == index or target is None or not target.is_alive:
                return
            if kind == "interrupt":
                target.interrupt(index)
            else:
                target.kill()
                for manager in locks:
                    manager.purge_txn(args[0] + 1)
                trace.append((env.now, index, "killed", args[0]))

    def body(index):
        txn = index + 1
        try:
            for number, step in enumerate(scripts[index][1]):
                try:
                    yield from op(index, txn, step)
                except Interrupt as interrupt:
                    trace.append((env.now, index, number, "interrupted", interrupt.cause))
                except DeadlockAbort:
                    trace.append((env.now, index, number, "deadlock"))
                    return
                trace.append((env.now, index, number))
        finally:
            for manager in locks:
                manager.release_all(txn)

    def launcher():
        for at, index in sorted((at, index) for index, (at, _) in enumerate(scripts)
                                if at is not None):
            if at > env.now:
                yield env.timeout(at - env.now)
            start(index)

    detector.start()
    env.process(launcher())
    try:
        env.run(until=1.0)
        outcome = None
    except Exception as exc:  # the same failure, at the same point, on both kernels
        outcome = repr(exc)
    return trace, outcome, env._eid, env.events_coalesced


def _both_kernels(run):
    """``run(environment)`` on the lane kernel and on the one-heap kernel."""
    kernels = []
    for one_heap in (False, True):
        with _Kernel(one_heap).installed() as kernel:
            kernel.result = run(kernel.environment)
        kernels.append(kernel)
    return kernels


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_PROGRAMS)
@example(_FIXED)
def test_generated_programs_dispatch_alike_on_both_kernels(scripts):
    lane, heap = _both_kernels(lambda environment: _run_program(scripts, environment))
    assert lane.result == heap.result  # trace, failure, eids, coalesced events
    assert lane.dispatched == heap.dispatched


def test_fixed_program_reaches_every_feature():
    lane, heap = _both_kernels(lambda environment: _run_program(_FIXED, environment))
    trace, outcome, _, coalesced = lane.result
    assert outcome is None
    labels = {item for entry in trace for item in entry if isinstance(item, str)}
    assert {"deadlock", "interrupted", "gave up", "killed"} <= labels
    if core.coalescing_enabled():
        assert coalesced > 0
    # Both sources take part, and a heap entry at the current instant is
    # popped ahead of lane entries scheduled after it.
    assert 0 < lane.lane.pops < len(lane.dispatched)
    assert lane.merged > 0
    assert (lane.result, lane.dispatched) == (heap.result, heap.dispatched)


def test_mixed_run_is_identical_on_the_one_heap_kernel(monkeypatch):
    config = mixed_workload_config(4, oltp_placement="B")

    def run(environment):
        monkeypatch.setattr(system_module, "Environment", environment)
        driver = SimulationDriver(config, strategy="OPT-IO-CPU")
        result = driver.run_timed(3.0).to_dict()
        return result, driver.env._eid, driver.env.events_coalesced

    lane, heap = _both_kernels(run)
    assert lane.result[0]["oltp_completed"] > 0
    assert lane.result == heap.result
    assert lane.dispatched == heap.dispatched
    assert lane.merged > 0
