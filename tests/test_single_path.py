"""Properties of the control-node reads and psu-noIO on arbitrary clusters.

Uniform, heterogeneous and faulted systems share one expression per
decision; these properties hold for every mix of node capacity, straggler
speed and availability, and pin the uniform case bit for bit.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.config.parameters import ControlConfig, NodeClass
from repro.scheduling import ControlNode, CostModel
from repro.sim import Environment
from repro.workload import JoinQuery

utilizations = st.floats(min_value=0.0, max_value=1.0)
# Straggler speed factors in (0, 1]; speeds near the float minimum would only
# test underflow of the weighted sums, so the floor is a 1000x slowdown.
speeds = st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0))


@st.composite
def node_statuses(draw, capacities=st.sampled_from([0.5, 1.0, 2.0]), speeds=speeds):
    """(pe_id, capacity, speed, available, utilisation, free pages) rows."""
    rows = draw(
        st.lists(
            st.tuples(
                capacities,
                speeds,
                st.booleans(),
                utilizations,
                st.integers(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return [(pe_id, *row) for pe_id, row in enumerate(rows)]


def control_node(rows) -> ControlNode:
    """A control node whose view of each PE is set straight from ``rows``."""
    pes = [
        SimpleNamespace(pe_id=pe_id, cpu_factor=capacity,
                        buffer=SimpleNamespace(free_pages=free))
        for pe_id, capacity, _speed, _available, _util, free in rows
    ]
    control = ControlNode(Environment(), pes, ControlConfig())
    for pe_id, _capacity, speed, available, util, _free in rows:
        status = control.status_of(pe_id)
        status.speed_factor = speed
        status.available = available
        status.cpu_utilization = util
    return control


def available_ids(rows):
    return {pe_id for pe_id, _c, _s, available, _u, _f in rows if available}


@settings(max_examples=300, deadline=None)
@given(node_statuses())
def test_nodes_by_cpu_ranks_available_pes_by_headroom(rows):
    ranked = control_node(rows).nodes_by_cpu()
    ids = [status.pe_id for status in ranked]
    assert len(ids) == len(set(ids))
    assert set(ids) == available_ids(rows)

    def headroom(status):
        return (1.0 - status.cpu_utilization) * status.cpu_capacity * status.speed_factor

    for first, second in zip(ranked, ranked[1:]):
        assert headroom(first) > headroom(second) or (
            headroom(first) == headroom(second) and first.pe_id < second.pe_id
        )


def test_headroom_ties_break_by_pe_index():
    """Utilisations closer than one ulp of their headroom rank as tied: the
    lower PE index wins even though its raw utilisation is higher."""
    rows = [
        (0, 1.0, 1.0, True, math.nextafter(0.1, 1.0), 50),
        (1, 1.0, 1.0, True, 0.1, 50),
    ]
    assert [status.pe_id for status in control_node(rows).nodes_by_cpu()] == [0, 1]


@settings(max_examples=300, deadline=None)
@given(node_statuses())
def test_avail_memory_leaves_out_unavailable_pes(rows):
    avail = control_node(rows).avail_memory()
    assert {status.pe_id for status in avail} == available_ids(rows)
    keys = [(-status.free_memory_pages, status.pe_id) for status in avail]
    assert keys == sorted(keys)


@settings(max_examples=300, deadline=None)
@given(node_statuses(capacities=st.just(1.0), speeds=st.just(1.0)))
def test_average_cpu_utilization_is_the_plain_mean_at_unit_weights(rows):
    utils = [util for _p, _c, _s, available, util, _f in rows if available]
    # Left-to-right, as sum() adds floats before Python 3.12 (later versions
    # compensate, which can move the last bit).
    total = 0.0
    for util in utils:
        total += util
    expected = total / len(utils) if utils else 0.0
    assert control_node(rows).average_cpu_utilization() == expected


@settings(max_examples=300, deadline=None)
@given(node_statuses())
def test_average_cpu_utilization_lies_within_the_available_range(rows):
    utils = [util for _p, _c, _s, available, util, _f in rows if available]
    average = control_node(rows).average_cpu_utilization()
    if not utils:
        assert average == 0.0
        return
    # A weighted mean, up to the rounding of its two sums.
    slack = 1e-12
    assert min(utils) - slack <= average <= max(utils) + slack


@st.composite
def buffer_systems(draw):
    """Systems with 0-3 node classes of differing buffer pool sizes."""
    num_pe = draw(st.integers(min_value=1, max_value=16))
    classes = []
    start = 0
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        count = draw(st.integers(min_value=1, max_value=6))
        if start + count > num_pe:
            break
        factor = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
        classes.append(NodeClass(name=f"c{index}", count=count, memory_factor=factor))
        start += count
    config = SystemConfig(num_pe=num_pe, node_classes=tuple(classes))
    pages = draw(st.integers(min_value=5, max_value=200))
    return config.with_overrides(buffer=replace(config.buffer, buffer_pages=pages))


@settings(max_examples=200, deadline=None)
@given(
    buffer_systems(),
    st.floats(min_value=0.0005, max_value=0.05),
    st.sampled_from([1.0, 1.05, 1.2]),
)
def test_psu_no_io_is_the_smallest_degree_whose_largest_pools_hold_the_table(
    config, selectivity, fudge
):
    query = JoinQuery(scan_selectivity=selectivity, fudge_factor=fudge)
    cost_model = CostModel(config)
    profile = cost_model.profile(query)
    needed = profile.inner_pages * profile.fudge_factor
    pools = sorted(
        (config.effective_buffer_pages(pe) for pe in range(config.num_pe)), reverse=True
    )
    holding = [k for k in range(1, config.num_pe + 1) if sum(pools[:k]) >= needed]
    expected = holding[0] if holding else config.num_pe
    assert cost_model.psu_no_io(query) == expected
