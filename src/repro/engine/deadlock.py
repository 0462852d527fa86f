"""Central global deadlock detection.

Global deadlocks are resolved by a central deadlock detection scheme
(paper §4): every lock manager reports waits-for edges to this detector; a
periodic sweep searches the global waits-for graph for cycles and aborts the
youngest transaction of each cycle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.sim import Environment

__all__ = ["DeadlockDetector"]

#: Callback used to abort a victim: ``abort(txn_id) -> bool``.
AbortCallback = Callable[[int], bool]


class DeadlockDetector:
    """Maintains the global waits-for graph and periodically breaks cycles."""

    def __init__(
        self,
        env: Environment,
        detection_interval: float = 1.0,
        abort_callback: Optional[AbortCallback] = None,
    ):
        self.env = env
        self.detection_interval = detection_interval
        self.abort_callback = abort_callback
        self._waits_for: Dict[int, Set[int]] = {}
        self._running = False

    # -- graph maintenance ----------------------------------------------------
    def add_wait(self, waiter: int, holder: int) -> None:
        """Record that ``waiter`` waits for a lock held by ``holder``."""
        if waiter == holder:
            return
        self._waits_for.setdefault(waiter, set()).add(holder)

    def remove_wait_edges(self, waiter: int) -> None:
        """Remove all outgoing edges of ``waiter`` (its wait was satisfied)."""
        self._waits_for.pop(waiter, None)

    def remove_transaction(self, txn_id: int) -> None:
        """Remove a terminated transaction from the graph entirely."""
        self._waits_for.pop(txn_id, None)
        for targets in self._waits_for.values():
            targets.discard(txn_id)

    # -- detection ---------------------------------------------------------------
    def find_cycle(self) -> Optional[List[int]]:
        """Return one cycle in the waits-for graph, or None."""
        visited: Set[int] = set()
        on_stack: Set[int] = set()
        stack: List[int] = []

        def dfs(node: int) -> Optional[List[int]]:
            visited.add(node)
            on_stack.add(node)
            stack.append(node)
            for successor in self._waits_for.get(node, ()):
                if successor not in visited:
                    cycle = dfs(successor)
                    if cycle is not None:
                        return cycle
                elif successor in on_stack:
                    index = stack.index(successor)
                    return stack[index:]
            on_stack.discard(node)
            stack.pop()
            return None

        for node in list(self._waits_for):
            if node not in visited:
                cycle = dfs(node)
                if cycle is not None:
                    return cycle
        return None

    def detect_and_resolve(self) -> List[int]:
        """Break all cycles, returning the list of victim transaction ids.

        The youngest transaction (the one with the largest id, i.e. the most
        recently started) of each cycle is chosen as the victim.
        """
        victims: List[int] = []
        while True:
            cycle = self.find_cycle()
            if cycle is None:
                break
            victim = max(cycle)
            victims.append(victim)
            self.remove_transaction(victim)
            if self.abort_callback is not None:
                self.abort_callback(victim)
        return victims

    # -- periodic operation ----------------------------------------------------------
    def start(self) -> None:
        """Start the periodic detection process."""
        if self._running:
            return
        self._running = True
        self.env.process(self._run())

    def _run(self):
        while True:
            yield self.env.timeout(self.detection_interval)
            self.detect_and_resolve()
