"""B+-tree index model.

Indices are not materialised; the model estimates the number of index page
accesses (and hence I/O and CPU work) for clustered and unclustered index
scans, which is what the workload processing layer needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BTreeIndex"]


@dataclass(frozen=True)
class BTreeIndex:
    """A B+-tree index over one attribute of a relation.

    ``clustered`` indices store tuples in index order, so a range predicate of
    selectivity ``s`` touches ``ceil(s * data_pages)`` consecutive data pages.
    Unclustered indices require one data page access per matching tuple in the
    worst case (the model used by the paper's OLTP selects).
    """

    relation_name: str
    clustered: bool = True
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

    @property
    def leaf_pages(self) -> int:
        """Number of leaf pages of the index."""
        return max(1, math.ceil(self.num_entries / self.entries_per_page))

    def index_pages_for_range(self, selectivity: float) -> int:
        """Index pages traversed for a range scan of the given selectivity."""
        if not 0.0 <= selectivity <= 1.0:
            raise ValueError(f"selectivity {selectivity} outside [0, 1]")
        matching_leaves = math.ceil(self.leaf_pages * selectivity) if selectivity else 0
        # Root-to-leaf descent plus the additional matching leaf pages.
        return self.height + max(0, matching_leaves - 1)

    def data_page_accesses_for_tuples(self, matching_tuples: int, data_pages: int) -> int:
        """Data page accesses when fetching ``matching_tuples`` via the index."""
        if matching_tuples <= 0:
            return 0
        if self.clustered:
            return min(data_pages, matching_tuples)
        return matching_tuples  # each tuple may live on a different page
