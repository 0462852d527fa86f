"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5, 7.5]


def test_run_until_stops_at_boundary():
    env = Environment()
    log = []

    def proc():
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(proc())
    env.run(until=3.5)
    assert log == [1, 2, 3]
    assert env.now == 3.5


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_run_until_past_rejected():
    env = Environment()

    def proc():
        yield env.timeout(10)

    env.process(proc())
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child():
        yield env.timeout(3)
        return 42

    def parent():
        value = yield env.process(child())
        results.append((env.now, value))

    env.process(parent())
    env.run()
    assert results == [(3, 42)]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(7)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(7, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_process_exception_propagates_to_parent():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1)
        raise ValueError("child failed")

    def parent():
        try:
            yield env.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["child failed"]


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(4)
        target.interrupt("wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [(4, "wake up")]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    assert not proc.is_alive
    proc.interrupt("late")  # must not raise
    env.run()


def test_all_of_waits_for_every_event():
    env = Environment()
    log = []

    def proc():
        yield env.all_of([env.timeout(2), env.timeout(5), env.timeout(1)])
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [5]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    log = []

    def proc():
        yield env.all_of([])
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [0]


def test_yield_on_already_processed_event():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    log = []

    def late_waiter():
        yield env.timeout(3)
        value = yield gate
        log.append((env.now, value))

    env.process(late_waiter())
    env.run()
    assert log == [(3, "early")]


def test_events_fire_in_fifo_order_at_same_time():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1)
        order.append(name)

    for name in ["a", "b", "c"]:
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_value_of_pending_event_raises():
    env = Environment()
    gate = env.event()
    with pytest.raises(SimulationError):
        _ = gate.value


def test_active_process_is_none_outside_callbacks():
    env = Environment()

    def proc():
        assert env._active_process is not None
        yield env.timeout(1)

    env.process(proc())
    assert env._active_process is None
    env.run()
    assert env._active_process is None
