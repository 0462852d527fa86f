"""Tests for relations, fragments, indices, declustering and the catalog."""

import pytest
from hypothesis import given, strategies as st

from repro.config import OltpConfig, RelationConfig, SystemConfig
from repro.database import BTreeIndex, Catalog, Fragment, decluster, split_evenly
from repro.execution.operators import plan_scan
from repro.scheduling.cost_model import CostModel
from repro.workload import JoinQuery


# -- split_evenly -----------------------------------------------------------
def test_split_evenly_exact():
    assert split_evenly(10, 5) == [2, 2, 2, 2, 2]


def test_split_evenly_remainder_goes_first():
    assert split_evenly(11, 3) == [4, 4, 3]


def test_split_evenly_rejects_zero_parts():
    with pytest.raises(ValueError):
        split_evenly(10, 0)


@given(st.integers(min_value=0, max_value=10_000_000), st.integers(min_value=1, max_value=200))
def test_split_evenly_properties(total, parts):
    shares = split_evenly(total, parts)
    assert sum(shares) == total
    assert len(shares) == parts
    assert max(shares) - min(shares) <= 1


# -- fragments ---------------------------------------------------------------
def test_fragment_pages_and_matching():
    frag = Fragment(relation_name="A", pe_id=0, num_tuples=1000, blocking_factor=20)
    assert frag.pages == 50
    assert frag.matching_tuples(0.01) == 10
    assert frag.matching_pages(0.01) == 1
    assert frag.matching_pages(0.0) == 0


def test_fragment_selectivity_validation():
    frag = Fragment(relation_name="A", pe_id=0, num_tuples=1000, blocking_factor=20)
    with pytest.raises(ValueError):
        frag.matching_tuples(1.5)


# -- declustering -------------------------------------------------------------
def test_decluster_uniform_distribution():
    config = RelationConfig(name="A", num_tuples=250_000, declustering_fraction=0.2)
    relation = decluster(config, pe_ids=list(range(8)))
    assert len(relation.fragments) == 8
    sizes = [frag.num_tuples for frag in relation.fragments.values()]
    assert sum(sizes) == 250_000
    assert max(sizes) - min(sizes) <= 1


def test_decluster_requires_nodes():
    config = RelationConfig(name="A", num_tuples=100)
    with pytest.raises(ValueError):
        decluster(config, pe_ids=[])


def test_relation_rejects_duplicate_fragment():
    config = RelationConfig(name="A", num_tuples=100)
    relation = decluster(config, pe_ids=[0, 1])
    with pytest.raises(ValueError):
        relation.add_fragment(
            Fragment(relation_name="A", pe_id=0, num_tuples=10, blocking_factor=20)
        )


def test_relation_rejects_foreign_fragment():
    config = RelationConfig(name="A", num_tuples=100)
    relation = decluster(config, pe_ids=[0])
    with pytest.raises(ValueError):
        relation.add_fragment(
            Fragment(relation_name="B", pe_id=5, num_tuples=10, blocking_factor=20)
        )


def test_relation_matching_pages_paper_values():
    """The inner relation at 1 % selectivity occupies 125 pages (paper §3.1)."""
    cost_model = CostModel(SystemConfig())
    for selectivity, tuples, pages in ((0.01, 2_500, 125), (0.001, 250, 13), (0.05, 12_500, 625)):
        profile = cost_model.profile(JoinQuery(scan_selectivity=selectivity))
        assert (profile.inner_tuples, profile.inner_pages) == (tuples, pages)


# -- B+-tree index -------------------------------------------------------------
def test_btree_height_grows_with_entries():
    small = BTreeIndex(relation_name="A", num_entries=100)
    large = BTreeIndex(relation_name="A", num_entries=1_000_000)
    assert small.height <= large.height
    assert small.height >= 1


def test_btree_height_known_values():
    index = BTreeIndex(relation_name="A", num_entries=200, entries_per_page=200)
    assert index.height == 1
    index = BTreeIndex(relation_name="A", num_entries=40_000, entries_per_page=200)
    assert index.height == 2
    index = BTreeIndex(relation_name="A", num_entries=250_000, entries_per_page=200)
    assert index.height == 3


def test_btree_range_scan_pages():
    # A clustered-index range scan descends the tree once per fragment.
    config = SystemConfig(num_pe=10)
    relation = Catalog.from_config(config).relation("A")
    pe_id = relation.node_ids[0]
    for selectivity in (0.0, 0.01):
        work = plan_scan(relation, pe_id, selectivity, tuple_size_bytes=400)
        assert work.index_pages == relation.index.height
    with pytest.raises(ValueError):
        plan_scan(relation, pe_id, 2.0, tuple_size_bytes=400)


# -- catalog -------------------------------------------------------------------
def test_catalog_from_config_contains_a_and_b():
    config = SystemConfig(num_pe=40)
    catalog = Catalog.from_config(config)
    assert "A" in catalog
    assert "B" in catalog
    a_nodes = catalog.relation("A").node_ids
    b_nodes = catalog.relation("B").node_ids
    assert set(a_nodes) == set(config.a_node_ids)
    assert set(b_nodes) == set(config.b_node_ids)
    # Disjoint allocation (paper §5.1).
    assert set(a_nodes).isdisjoint(b_nodes)


def test_catalog_with_oltp_adds_account_relation():
    config = SystemConfig(num_pe=40, oltp=OltpConfig(placement="B"))
    catalog = Catalog.from_config(config)
    assert "ACCT" in catalog
    assert set(catalog.relation("ACCT").node_ids) == set(config.b_node_ids)


def test_catalog_unknown_relation_message():
    catalog = Catalog.from_config(SystemConfig(num_pe=10))
    with pytest.raises(KeyError, match="unknown relation"):
        catalog.relation("Z")


def test_catalog_fragments_on_node():
    config = SystemConfig(num_pe=10)
    catalog = Catalog.from_config(config)
    a_node = config.a_node_ids[0]
    fragments = [
        relation.fragment_on(a_node) for relation in catalog if relation.has_fragment_on(a_node)
    ]
    assert any(frag.relation_name == "A" for frag in fragments)
    assert not any(frag.relation_name == "B" for frag in fragments)


def test_catalog_add_duplicate_rejected():
    config = SystemConfig(num_pe=10)
    catalog = Catalog.from_config(config)
    with pytest.raises(ValueError):
        catalog.add(catalog.relation("A"))


@given(st.integers(min_value=10, max_value=80))
def test_catalog_total_tuples_preserved(num_pe):
    config = SystemConfig(num_pe=num_pe)
    catalog = Catalog.from_config(config)
    for name, tuples in (("A", 250_000), ("B", 1_000_000)):
        fragments = catalog.relation(name).fragments.values()
        assert sum(frag.num_tuples for frag in fragments) == tuples
