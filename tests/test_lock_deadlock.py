"""Tests for strict 2PL locking and central deadlock detection."""


from repro.engine import DeadlockAbort, DeadlockDetector, LockManager, LockMode
from repro.sim import Environment


def _waiting(locks):
    """Requests queued in a lock table."""
    return sum(len(entry.waiters) for entry in locks._table.values())


def _edges(detector):
    """Edges of the detector's waits-for graph."""
    return sum(len(targets) for targets in detector._waits_for.values())


def test_shared_locks_are_compatible():
    env = Environment()
    locks = LockManager(env)
    done = []

    def reader(txn):
        yield locks.acquire(txn, "page1", LockMode.SHARED)
        done.append((txn, env.now))
        yield env.timeout(5)
        locks.release_all(txn)

    env.process(reader(1))
    env.process(reader(2))
    env.run()
    assert [t for _, t in done] == [0, 0]


def test_exclusive_lock_blocks_and_is_granted_on_release():
    env = Environment()
    locks = LockManager(env)
    done = []

    def writer(txn, delay, hold):
        yield env.timeout(delay)
        yield locks.acquire(txn, "page1", LockMode.EXCLUSIVE)
        done.append((txn, env.now))
        yield env.timeout(hold)
        locks.release_all(txn)

    waiting = []

    def probe():
        yield env.timeout(5)
        waiting.append(_waiting(locks))

    env.process(writer(1, 0, 10))
    env.process(writer(2, 1, 1))
    env.process(probe())
    env.run()
    assert done == [(1, 0), (2, 10)]
    assert waiting == [1]


def test_lock_upgrade_same_transaction():
    env = Environment()
    locks = LockManager(env)
    done = []

    def proc():
        yield locks.acquire(7, "page1", LockMode.SHARED)
        yield locks.acquire(7, "page1", LockMode.EXCLUSIVE)
        done.append(env.now)
        locks.release_all(7)

    env.process(proc())
    env.run()
    assert done == [0]
    assert locks._table == {}


def test_reacquire_held_lock_is_immediate():
    env = Environment()
    locks = LockManager(env)
    done = []

    def proc():
        yield locks.acquire(1, "r", LockMode.EXCLUSIVE)
        yield locks.acquire(1, "r", LockMode.SHARED)
        done.append(env.now)
        locks.release_all(1)

    env.process(proc())
    env.run()
    assert done == [0]


def test_fifo_fairness_no_queue_jumping():
    env = Environment()
    locks = LockManager(env)
    order = []

    def holder():
        yield locks.acquire(1, "r", LockMode.EXCLUSIVE)
        yield env.timeout(10)
        locks.release_all(1)

    def exclusive_waiter():
        yield env.timeout(1)
        yield locks.acquire(2, "r", LockMode.EXCLUSIVE)
        order.append(("x", env.now))
        yield env.timeout(5)
        locks.release_all(2)

    def shared_latecomer():
        yield env.timeout(2)
        yield locks.acquire(3, "r", LockMode.SHARED)
        order.append(("s", env.now))
        locks.release_all(3)

    env.process(holder())
    env.process(exclusive_waiter())
    env.process(shared_latecomer())
    env.run()
    assert order == [("x", 10), ("s", 15)]


def test_waiting_count_and_held_count():
    env = Environment()
    locks = LockManager(env)

    def holder():
        yield locks.acquire(1, "r", LockMode.EXCLUSIVE)
        yield env.timeout(10)
        locks.release_all(1)

    def waiter():
        yield env.timeout(1)
        yield locks.acquire(2, "r", LockMode.EXCLUSIVE)
        locks.release_all(2)

    env.process(holder())
    env.process(waiter())
    env.run(until=5)
    assert list(locks._table["r"].holders) == [1]
    assert _waiting(locks) == 1
    env.run()
    assert _waiting(locks) == 0
    assert locks._table == {}


# -- deadlock detection -------------------------------------------------------------
def test_find_cycle_simple():
    env = Environment()
    detector = DeadlockDetector(env)
    detector.add_wait(1, 2)
    detector.add_wait(2, 1)
    cycle = detector.find_cycle()
    assert cycle is not None
    assert set(cycle) == {1, 2}


def test_no_cycle_in_chain():
    env = Environment()
    detector = DeadlockDetector(env)
    detector.add_wait(1, 2)
    detector.add_wait(2, 3)
    assert detector.find_cycle() is None


def test_detect_and_resolve_picks_youngest_victim():
    env = Environment()
    aborted = []
    detector = DeadlockDetector(env, abort_callback=lambda txn: aborted.append(txn) or True)
    detector.add_wait(10, 20)
    detector.add_wait(20, 10)
    victims = detector.detect_and_resolve()
    assert victims == [20]
    assert aborted == [20]
    assert _edges(detector) == 0
    assert detector.find_cycle() is None


def test_self_wait_is_ignored():
    env = Environment()
    detector = DeadlockDetector(env)
    detector.add_wait(1, 1)
    assert _edges(detector) == 0


def test_remove_transaction_clears_edges():
    env = Environment()
    detector = DeadlockDetector(env)
    detector.add_wait(1, 2)
    detector.add_wait(3, 1)
    detector.remove_transaction(1)
    assert _edges(detector) == 0


def test_end_to_end_deadlock_resolution():
    """Two transactions locking two pages in opposite order deadlock; the
    detector aborts the younger one and the older one finishes."""
    env = Environment()
    committed = []
    aborted = []
    locks = LockManager(env)
    found = []

    def abort(txn_id):
        found.append(locks.abort_waiter(txn_id))
        return found[-1]

    detector = DeadlockDetector(env, detection_interval=1.0, abort_callback=abort)
    locks.deadlock_detector = detector
    detector.start()

    def txn(txn_id, first, second):
        try:
            yield locks.acquire(txn_id, first, LockMode.EXCLUSIVE)
            yield env.timeout(0.5)
            yield locks.acquire(txn_id, second, LockMode.EXCLUSIVE)
            yield env.timeout(0.1)
            committed.append(txn_id)
            locks.release_all(txn_id)
        except DeadlockAbort:
            aborted.append(txn_id)

    env.process(txn(1, "pageA", "pageB"))
    env.process(txn(2, "pageB", "pageA"))
    env.run(until=20)
    assert aborted == [2]
    assert committed == [1]
    assert found == [True]  # one waiter aborted, found waiting here


def test_periodic_detection_runs_without_cycles():
    env = Environment()
    detector = DeadlockDetector(env, detection_interval=0.5)
    sweeps = []
    detect = detector.detect_and_resolve

    def recorded():
        sweeps.append(detect())
        return sweeps[-1]

    detector.detect_and_resolve = recorded
    detector.start()
    detector.start()  # idempotent
    env.run(until=3)
    assert sweeps == [[]] * 6  # one empty sweep per 0.5 s, not two
