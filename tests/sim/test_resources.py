"""Unit tests for resource abstractions (servers, containers, stores)."""

import pytest

from repro.sim import Container, Environment, PriorityResource, Resource, SimulationError, Store


def test_resource_serialises_two_users():
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []

    def user(name, service):
        with cpu.request() as req:
            yield req
            start = env.now
            yield env.timeout(service)
            log.append((name, start, env.now))

    env.process(user("a", 5))
    env.process(user("b", 3))
    env.run()
    assert log == [("a", 0, 5), ("b", 5, 8)]


def test_resource_capacity_two_runs_in_parallel():
    env = Environment()
    cpu = Resource(env, capacity=2)
    log = []

    def user(name):
        with cpu.request() as req:
            yield req
            yield env.timeout(4)
            log.append((name, env.now))

    for name in ["a", "b", "c"]:
        env.process(user(name))
    env.run()
    assert log == [("a", 4), ("b", 4), ("c", 8)]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_utilization_accounting():
    env = Environment()
    disk = Resource(env, capacity=1)

    def user():
        with disk.request() as req:
            yield req
            yield env.timeout(3)

    env.process(user())
    env.run(until=10)
    assert disk.busy_time() == pytest.approx(3.0)
    assert disk.utilization() == pytest.approx(0.3)


def test_resource_utilization_differential_snapshot():
    env = Environment()
    disk = Resource(env, capacity=1)

    def user(delay):
        yield env.timeout(delay)
        with disk.request() as req:
            yield req
            yield env.timeout(2)

    env.process(user(0))
    env.process(user(10))
    env.run(until=10)
    t0, busy0 = disk.snapshot()
    env.run(until=20)
    assert disk.utilization(since_time=t0, since_busy=busy0) == pytest.approx(0.2)


def test_priority_resource_orders_by_priority():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    order = []

    def user(name, priority):
        with cpu.request(priority=priority) as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    def submit():
        # Occupy the server, then queue a low- and a high-priority request.
        yield env.timeout(0)

    def holder():
        with cpu.request(priority=0) as req:
            yield req
            yield env.timeout(5)
            order.append("holder-done")

    env.process(holder())

    def late_submitters():
        yield env.timeout(1)
        env.process(user("low", priority=10))
        yield env.timeout(1)
        env.process(user("high", priority=1))

    env.process(late_submitters())
    env.run()
    assert order == ["holder-done", "high", "low"]


def test_priority_resource_fifo_within_same_priority():
    env = Environment()
    cpu = PriorityResource(env, capacity=1)
    order = []

    def user(name):
        with cpu.request(priority=5) as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    def holder():
        with cpu.request() as req:
            yield req
            yield env.timeout(2)

    env.process(holder())

    def submit():
        yield env.timeout(0.5)
        env.process(user("first"))
        env.process(user("second"))

    env.process(submit())
    env.run()
    assert order == ["first", "second"]


def test_request_cancel_releases_queue_slot():
    env = Environment()
    cpu = Resource(env, capacity=1)
    log = []

    def holder():
        with cpu.request() as req:
            yield req
            yield env.timeout(5)

    def canceller():
        yield env.timeout(1)
        req = cpu.request()
        yield env.timeout(1)
        req.cancel()
        log.append("cancelled")

    def other():
        yield env.timeout(3)
        with cpu.request() as req:
            yield req
            log.append(("other", env.now))

    env.process(holder())
    env.process(canceller())
    env.process(other())
    env.run()
    assert ("other", 5) in log


def test_container_get_blocks_until_put():
    env = Environment()
    pool = Container(env, capacity=100, init=0)
    log = []

    def consumer():
        yield pool.get(10)
        log.append(("got", env.now))

    def producer():
        yield env.timeout(4)
        yield pool.put(10)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [("got", 4)]
    assert pool._level == 0


def test_container_rejects_negative_amount():
    env = Environment()
    pool = Container(env, capacity=10, init=5)
    with pytest.raises(SimulationError):
        pool.get(-1)
    with pytest.raises(SimulationError):
        pool.put(-1)


def test_container_init_bounds():
    env = Environment()
    with pytest.raises(SimulationError):
        Container(env, capacity=10, init=20)


def test_container_put_blocks_at_capacity():
    env = Environment()
    pool = Container(env, capacity=10, init=10)
    log = []

    def producer():
        yield pool.put(5)
        log.append(("put", env.now))

    def consumer():
        yield env.timeout(3)
        yield pool.get(8)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert log == [("put", 3)]
    assert pool._level == 7


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in ["x", "y", "z"]:
            yield store.put(item)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == ["x", "y", "z"]


def test_store_get_with_filter():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        yield store.put({"dest": 1})
        yield store.put({"dest": 2})

    def consumer():
        item = yield store.get(lambda msg: msg["dest"] == 2)
        received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [{"dest": 2}]
    assert len(store) == 1


def test_store_get_blocks_until_item_arrives():
    env = Environment()
    store = Store(env)
    log = []

    def consumer():
        item = yield store.get()
        log.append((env.now, item))

    def producer():
        yield env.timeout(6)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [(6, "late")]
