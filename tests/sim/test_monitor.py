"""Unit tests for value and time-weighted monitors."""

import pytest

from repro.sim import Environment, TimeWeightedMonitor, ValueMonitor


def test_value_monitor_basic_stats():
    mon = ValueMonitor("rt")
    for value in [1.0, 2.0, 3.0, 4.0]:
        mon.record(value)
    assert mon.count == 4
    assert mon.mean == pytest.approx(2.5)
    assert mon.minimum == 1.0
    assert mon.maximum == 4.0
    assert mon.stddev == pytest.approx(1.2909944, rel=1e-6)


def test_value_monitor_percentiles():
    mon = ValueMonitor()
    for value in range(1, 101):
        mon.record(float(value))
    assert mon.percentile(50) == pytest.approx(50.5)
    assert mon.percentile(0) == 1.0
    assert mon.percentile(100) == 100.0


def test_value_monitor_percentile_bounds():
    mon = ValueMonitor()
    mon.record(1.0)
    with pytest.raises(ValueError):
        mon.percentile(101)


def test_value_monitor_empty():
    mon = ValueMonitor()
    assert mon.mean == 0.0
    assert mon.percentile(50) == 0.0
    assert mon.confidence_interval() == 0.0


def test_value_monitor_reset():
    mon = ValueMonitor()
    mon.record(10.0)
    mon.reset()
    assert mon.count == 0
    assert mon.mean == 0.0


def test_value_monitor_running_extrema_survive_reset():
    """minimum/maximum are running values; reset must re-arm them."""
    mon = ValueMonitor()
    mon.record(10.0)
    mon.record(-5.0)
    assert (mon.minimum, mon.maximum) == (-5.0, 10.0)
    mon.reset()
    assert (mon.minimum, mon.maximum) == (0.0, 0.0)  # empty convention
    mon.record(3.0)
    assert (mon.minimum, mon.maximum) == (3.0, 3.0)
    mon.record(7.0)
    mon.record(1.0)
    assert (mon.minimum, mon.maximum) == (1.0, 7.0)
    # Percentile cache invalidation across records.
    assert mon.percentile(50) == 3.0
    mon.record(9.0)
    assert mon.percentile(100) == 9.0


def test_value_monitor_confidence_interval_shrinks_with_samples():
    small = ValueMonitor()
    large = ValueMonitor()
    data = [1.0, 2.0, 3.0, 4.0, 5.0]
    for value in data:
        small.record(value)
    for value in data * 20:
        large.record(value)
    assert large.confidence_interval() < small.confidence_interval()


def test_time_weighted_monitor_average():
    env = Environment()
    mon = TimeWeightedMonitor(env, initial=0.0)

    def proc():
        yield env.timeout(10)
        mon.update(4.0)
        yield env.timeout(10)
        mon.update(0.0)
        yield env.timeout(20)

    env.process(proc())
    env.run()
    # 0 for 10, 4 for 10, 0 for 20 => average = 40/40 = 1.0
    assert mon.time_average() == pytest.approx(1.0)


def test_time_weighted_monitor_add_and_reset():
    env = Environment()
    mon = TimeWeightedMonitor(env, initial=2.0)

    def proc():
        yield env.timeout(5)
        mon.add(3.0)
        mon.reset()
        yield env.timeout(5)

    env.process(proc())
    env.run()
    assert mon.value == 5.0
    assert mon.time_average() == pytest.approx(5.0)
