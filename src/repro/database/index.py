"""B+-tree index model.

Indices are not materialised; the model derives the tree height, which a
clustered-index scan (:func:`repro.execution.operators.plan_scan`) charges as
its root-to-leaf descent before reading the matching data pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BTreeIndex"]


@dataclass(frozen=True)
class BTreeIndex:
    """A B+-tree index over one attribute of a relation.

    The index is clustered: tuples are stored in index order, so a range
    predicate of selectivity ``s`` touches ``ceil(s * data_pages)``
    consecutive data pages.  The OLTP selects' non-clustered accesses are
    costed by :mod:`repro.workload.tpcb` instead.
    """

    relation_name: str
    entries_per_page: int = 200  # key/RID pairs per index page
    num_entries: int = 0  # == tuples of the indexed relation

    @property
    def height(self) -> int:
        """Number of index levels (root .. leaf)."""
        if self.num_entries <= 1:
            return 1
        leaves = max(1, math.ceil(self.num_entries / self.entries_per_page))
        levels = 1
        nodes = leaves
        while nodes > 1:
            nodes = math.ceil(nodes / self.entries_per_page)
            levels += 1
        return levels
