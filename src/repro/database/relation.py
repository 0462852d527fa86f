"""Runtime representation of relations and their horizontal fragments.

The database is modelled as a set of partitions (paper §4): a partition
represents a relation fragment living on one processing element and a set of
that PE's disks.  Tuples are not materialised individually -- the simulator
works with tuple/page counts, which is all the cost model needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config.parameters import RelationConfig
from repro.database.index import BTreeIndex

__all__ = ["Fragment", "Relation"]


@dataclass(frozen=True)
class Fragment:
    """A horizontal fragment of a relation stored on a single PE."""

    relation_name: str
    pe_id: int
    num_tuples: int
    blocking_factor: int

    @property
    def pages(self) -> int:
        """Number of data pages occupied by this fragment."""
        return math.ceil(self.num_tuples / self.blocking_factor)

    def matching_tuples(self, selectivity: float) -> int:
        """Tuples of this fragment matching a predicate of given selectivity."""
        if not 0.0 <= selectivity <= 1.0:
            raise ValueError(f"selectivity {selectivity} outside [0, 1]")
        return round(self.num_tuples * selectivity)

    def matching_pages(self, selectivity: float) -> int:
        """Pages that must be read through a clustered index for ``selectivity``."""
        matching = self.matching_tuples(selectivity)
        if matching == 0:
            return 0
        return math.ceil(matching / self.blocking_factor)


@dataclass
class Relation:
    """A relation together with its physical design and fragmentation."""

    config: RelationConfig
    fragments: Dict[int, Fragment] = field(default_factory=dict)
    index: Optional[BTreeIndex] = None
    # Replica placement: ``replication`` names the policy ("mirror" or
    # "chained", ``None`` = single copy) and ``backups`` maps each primary
    # PE to the PE holding the full backup copy of its fragment.
    replication: Optional[str] = None
    backups: Dict[int, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def num_tuples(self) -> int:
        return self.config.num_tuples

    @property
    def pages(self) -> int:
        return self.config.pages

    @property
    def node_ids(self) -> List[int]:
        """PE identifiers holding fragments of this relation (sorted)."""
        return sorted(self.fragments)

    def fragment_on(self, pe_id: int) -> Fragment:
        """Fragment stored on ``pe_id`` (raises KeyError if none)."""
        return self.fragments[pe_id]

    def has_fragment_on(self, pe_id: int) -> bool:
        return pe_id in self.fragments

    def backup_of(self, pe_id: int) -> Optional[int]:
        """PE holding the backup copy of ``pe_id``'s fragment (None if none)."""
        return self.backups.get(pe_id)

    def add_fragment(self, fragment: Fragment) -> None:
        """Register a fragment (one per PE)."""
        if fragment.relation_name != self.name:
            raise ValueError(
                f"fragment of {fragment.relation_name} added to relation {self.name}"
            )
        if fragment.pe_id in self.fragments:
            raise ValueError(f"PE {fragment.pe_id} already holds a fragment of {self.name}")
        self.fragments[fragment.pe_id] = fragment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Relation({self.name}, {self.num_tuples} tuples, "
            f"{len(self.fragments)} fragments)"
        )
