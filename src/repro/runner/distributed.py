"""Distributed sweeps: enqueue on the coordinator, wait, fold.

:class:`DistributedRunner` is a drop-in replacement for
:class:`~repro.runner.runner.ParallelRunner` whose ``run_points`` ships the
work to a ``repro-lb serve`` coordinator instead of a local process pool:
it enqueues every not-yet-finished point as a task, waits for independent
worker processes (``repro-lb worker --url``, on any host that reaches the
coordinator) to drain the queue, and folds the stored results back **in
expansion order** -- so tables, aggregates and exports are byte-identical
to a local run of the same spec at any worker count.

The runner is resumable by construction: enqueueing skips tasks that are
already done, and results live in the coordinator's result store keyed by
the host-independent cache key, so re-running an interrupted client (or
re-dispatching the same scenario) only waits for the points that are still
missing.  The wait loop polls with capped exponential backoff (see
:func:`~repro.runner.backends.base.wait_for_tasks`), so an idle client does
not hammer the coordinator while workers grind through long points.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.runner.backends.base import (
    DEFAULT_MAX_ATTEMPTS,
    EnqueueSummary,
    wait_for_tasks,
)
from repro.runner.backends.http import HttpBackend
from repro.runner.runner import ParallelRunner, PointExecutionError
from repro.runner.spec import PointSpec
from repro.simulation.results import SimulationResult

__all__ = ["DistributedRunner"]


class DistributedRunner(ParallelRunner):
    """Runs scenario points through a coordinator's work queue.

    Inherits ``run``/``run_aggregated`` (spec expansion, result folding,
    aggregation) from :class:`ParallelRunner`; only point execution is
    replaced.  The first argument is the coordinator's URL (or a client of
    it).  ``timeout=None`` waits indefinitely -- pass a bound when no worker
    may be running (e.g. in CI) so a dead queue fails loudly instead of
    hanging.
    """

    def __init__(
        self,
        url: Union[str, HttpBackend],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_interval: float = 0.5,
        timeout: Optional[float] = None,
    ):
        queue = url if isinstance(url, HttpBackend) else HttpBackend(url)
        # The coordinator's result store doubles as this runner's cache, so
        # `run` inherits hit/miss accounting and any pre-seeded results.
        super().__init__(workers=1, cache=queue.results)
        self.queue = queue
        self.max_attempts = max_attempts
        self.poll_interval = poll_interval
        self.timeout = timeout
        self.last_enqueue: Optional[EnqueueSummary] = None

    def dispatch(self, points: Sequence[PointSpec]) -> EnqueueSummary:
        """Enqueue the points' unfinished tasks without waiting for them."""
        summary = self.queue.enqueue(points, max_attempts=self.max_attempts)
        self.last_enqueue = summary
        return summary

    def run_points(self, points: Sequence[PointSpec]) -> List[SimulationResult]:
        """Enqueue, wait for workers, and collect results in input order."""
        self.dispatch(points)
        task_ids = [self.queue.task_id(point) for point in points]
        wait_for_tasks(
            self.queue, set(task_ids), poll_interval=self.poll_interval, timeout=self.timeout
        )
        for point, task_id in zip(points, task_ids):
            if self.queue.is_done(task_id):
                continue
            if self.queue.load_task(task_id) is None:
                # The coordinator lost the task it accepted: it restarted
                # without a state directory.
                raise PointExecutionError(
                    point,
                    RuntimeError(
                        f"the coordinator at {self.queue.describe()} has no record of "
                        f"task {task_id}; it probably restarted without --state-dir "
                        "(restart it with --state-dir DIR to keep its queue)"
                    ),
                )
            error = self.queue.last_error(task_id) or "failed on a worker"
            raise PointExecutionError(
                point,
                RuntimeError(
                    f"task {task_id} exhausted its retry budget "
                    f"({self.queue.attempts(task_id)} attempt(s)): {error}"
                ),
            )
        results: List[SimulationResult] = []
        for point, task_id in zip(points, task_ids):
            result = self.queue.load_result(point)
            if result is None:
                raise PointExecutionError(
                    point,
                    RuntimeError(
                        f"task {task_id} is marked done but its result is "
                        f"missing from {self.queue.describe()}"
                    ),
                )
            results.append(result)
        return results
