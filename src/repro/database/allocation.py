"""Declustering of relations across processing elements and disks.

The paper declusters each relation uniformly across a *disjoint* subset of the
PEs: relation B over 80 % of the nodes, relation A over the remaining 20 %
(§5.1).  Each PE holds the same number of tuples of "its" relation so that
scan work is statically balanced.  Fragments are spread round-robin over the
PE's disks.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Sequence, Tuple

from repro.config.parameters import REPLICATION_POLICIES, RelationConfig, SystemConfig
from repro.database.index import BTreeIndex
from repro.database.relation import Fragment, Relation

__all__ = [
    "decluster",
    "allocate_paper_database",
    "split_evenly",
    "assign_replicas",
    "failover_scan_sites",
    "REPLICATION_POLICIES",
]


def split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` items into ``parts`` near-equal integer shares.

    The first ``total % parts`` shares get one extra item, so the shares sum
    exactly to ``total`` and differ by at most one.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, remainder = divmod(total, parts)
    return [base + (1 if index < remainder else 0) for index in range(parts)]


def decluster(config: RelationConfig, pe_ids: Sequence[int]) -> Relation:
    """Horizontally decluster a relation across the given PEs.

    Tuples are divided as evenly as possible, one fragment per PE.
    """
    if not pe_ids:
        raise ValueError(f"relation {config.name} needs at least one PE")
    relation = Relation(
        config=config,
        index=BTreeIndex(relation_name=config.name, num_entries=config.num_tuples),
    )
    shares = split_evenly(config.num_tuples, len(pe_ids))
    for pe_id, share in zip(pe_ids, shares):
        relation.add_fragment(
            Fragment(
                relation_name=config.name,
                pe_id=pe_id,
                num_tuples=share,
                blocking_factor=config.blocking_factor,
            )
        )
    return relation


def assign_replicas(relation: Relation, policy: str) -> None:
    """Assign a backup PE to every fragment of ``relation``.

    ``chained`` implements chained declustering (Hsiao/DeWitt): the backup of
    the fragment on ring position ``i`` lives on ring position ``i + 1``, so a
    single failure lets the read load spread across all survivors.  ``mirror``
    pairs adjacent ring positions (even ``i`` with ``i + 1``, the last node of
    an odd-sized ring wrapping to position 0): a failure doubles the partner's
    load.  Rings with a single PE keep no backup (nowhere disjoint to put it).
    """
    if policy not in REPLICATION_POLICIES:
        raise ValueError(
            f"unknown replication policy {policy!r}; expected one of {REPLICATION_POLICIES}"
        )
    ring = relation.node_ids
    size = len(ring)
    if size < 2:
        relation.replication = policy
        relation.backups = {}
        return
    backups: dict[int, int] = {}
    if policy == "chained":
        for index, pe_id in enumerate(ring):
            backups[pe_id] = ring[(index + 1) % size]
    else:  # mirror
        for index, pe_id in enumerate(ring):
            if index % 2 == 0:
                partner = ring[index + 1] if index + 1 < size else ring[0]
            else:
                partner = ring[index - 1]
            backups[pe_id] = partner
    relation.replication = policy
    relation.backups = backups


def failover_scan_sites(
    relation: Relation,
    dead: AbstractSet[int],
) -> Optional[List[Tuple[int, Fragment, float]]]:
    """Scan sites ``(pe_id, fragment, fraction)`` given a set of dead PEs.

    With every ring PE alive the primaries serve their own fragments in full
    (byte-identical to the single-copy plan).  Under chained declustering with
    exactly one dead ring PE the balanced split is used: the dead PE's
    fragment is read entirely at its backup, and every other fragment at ring
    offset ``j`` from the failure is split ``j/(n-1)`` at its primary and
    ``(n-1-j)/(n-1)`` at its backup, giving each survivor ``n/(n-1)`` load.
    Any other failure pattern falls back to whole-fragment failover (backup if
    the primary is dead).  Returns ``None`` when some fragment has no alive
    copy -- the data is unreachable and the query must be held.
    """
    ring = relation.node_ids
    dead_in_ring = [pe_id for pe_id in ring if pe_id in dead]
    if not dead_in_ring:
        return [(pe_id, relation.fragment_on(pe_id), 1.0) for pe_id in ring]
    size = len(ring)
    if relation.replication == "chained" and len(dead_in_ring) == 1 and size >= 2:
        failed_index = ring.index(dead_in_ring[0])
        sites: List[Tuple[int, Fragment, float]] = []
        for offset in range(size):
            position = (failed_index + offset) % size
            fragment = relation.fragment_on(ring[position])
            if offset == 0:
                sites.append((ring[(position + 1) % size], fragment, 1.0))
                continue
            primary_share = offset / (size - 1)
            if primary_share > 0.0:
                sites.append((ring[position], fragment, primary_share))
            if primary_share < 1.0:
                sites.append((ring[(position + 1) % size], fragment, 1.0 - primary_share))
        return sites
    sites = []
    for pe_id in ring:
        fragment = relation.fragment_on(pe_id)
        if pe_id not in dead:
            sites.append((pe_id, fragment, 1.0))
            continue
        backup = relation.backup_of(pe_id)
        if backup is None or backup in dead:
            return None
        sites.append((backup, fragment, 1.0))
    return sites


def allocate_paper_database(config: SystemConfig) -> dict[str, Relation]:
    """Create the paper's database allocation for a given system size.

    Relation A occupies the first 20 % of the PEs, relation B the remaining
    80 %; the two sets are disjoint.  Additional per-node OLTP relations
    ("ACCT") are created when an OLTP workload is configured; they are local
    to their node (affinity-based routing accesses only local data).
    """
    relations: dict[str, Relation] = {}
    relations["A"] = decluster(config.relation_a, config.a_node_ids)
    relations["B"] = decluster(config.relation_b, config.b_node_ids)
    if config.oltp is not None:
        oltp_nodes = (
            config.a_node_ids if config.oltp.placement.upper() == "A" else config.b_node_ids
        )
        # One account-style relation per OLTP node, disjoint from A and B so
        # that joins and OLTP transactions never conflict on locks (§5.3).
        account = RelationConfig(
            name="ACCT",
            num_tuples=100_000 * len(oltp_nodes),
            tuple_size_bytes=100,
            blocking_factor=80,
            declustering_fraction=len(oltp_nodes) / config.num_pe,
        )
        relations["ACCT"] = decluster(account, oltp_nodes)
    if config.replication is not None:
        for relation in relations.values():
            assign_replicas(relation, config.replication)
    return relations
