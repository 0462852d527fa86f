"""System catalog: the set of relations known to the simulated DBMS."""

from __future__ import annotations

from typing import Dict, List

from repro.config.parameters import SystemConfig
from repro.database.allocation import allocate_paper_database
from repro.database.relation import Relation

__all__ = ["Catalog"]


class Catalog:
    """Named collection of relations with convenience lookups.

    The catalog is purely static during a simulation run: the paper stresses
    that the database allocation on disk cannot be changed per query, which is
    exactly why load balancing must act on the dynamically redistributable
    intermediate results instead.
    """

    def __init__(self, relations: Dict[str, Relation] | None = None):
        self._relations: Dict[str, Relation] = dict(relations or {})

    @classmethod
    def from_config(cls, config: SystemConfig) -> "Catalog":
        """Build the paper's standard database allocation for ``config``."""
        return cls(allocate_paper_database(config))

    # -- lookups -----------------------------------------------------------
    def relation(self, name: str) -> Relation:
        """Relation by name (raises KeyError with a helpful message)."""
        try:
            return self._relations[name]
        except KeyError:
            known = ", ".join(sorted(self._relations)) or "<none>"
            raise KeyError(f"unknown relation {name!r}; catalog holds: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self):
        return iter(self._relations.values())

    @property
    def names(self) -> List[str]:
        return sorted(self._relations)

    def add(self, relation: Relation) -> None:
        """Register a new relation (name must be unused)."""
        if relation.name in self._relations:
            raise ValueError(f"relation {relation.name!r} already registered")
        self._relations[relation.name] = relation
