"""`RunnerConfig`: the single construction path for every runner kind.

The CLI grew its runner options one PR at a time --
``--workers/--no-cache/--cache-dir/--distributed/--queue-dir/
--queue-timeout/--max-retries`` and now ``--url`` -- and each consumer
(CLI subcommands, tests, figure wrappers) re-encoded the
same "which runner do these flags mean?" decision tree.  This dataclass
is that decision tree, once: build a config (directly, or from parsed CLI
args via :meth:`from_args`), then :meth:`make_runner` yields the serial /
process-pool / distributed runner it describes, and :meth:`make_backend`
the queue backend for worker/status-style commands.

Precedence: a queue target (``url`` wins over ``queue_dir``) selects a
:class:`~repro.runner.distributed.DistributedRunner` whose backend owns
the result store (the local cache settings are meaningless there --
:meth:`from_args` warns when they are set); otherwise a local
:class:`~repro.runner.runner.ParallelRunner` over ``workers`` processes
with the configured cache.  Either way results fold in expansion order,
so the choice never changes tables, aggregates or exports.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Union

from repro.runner.backends.base import DEFAULT_LEASE_SECONDS

if TYPE_CHECKING:
    import argparse
    import os

    from repro.runner.backends.base import QueueBackend
    from repro.runner.cache import ResultCache
    from repro.runner.runner import ParallelRunner

__all__ = ["RunnerConfig"]


@dataclass(frozen=True)
class RunnerConfig:
    """Everything that selects and parameterises an execution driver."""

    #: Local process-pool width (0 = one per CPU core); ignored for
    #: distributed runs, whose parallelism is however many workers drain
    #: the queue.
    workers: Optional[int] = 1
    #: Disable the on-disk result cache for local runs.
    no_cache: bool = False
    #: Cache directory override (``None`` = ``$REPRO_CACHE_DIR`` default).
    cache_dir: Optional[Union[str, "os.PathLike"]] = None
    #: Pre-built cache object (tests); overrides ``no_cache``/``cache_dir``.
    cache: Optional["ResultCache"] = None
    #: Filesystem queue directory (selects a distributed runner).
    queue_dir: Optional[Union[str, "os.PathLike"]] = None
    #: Coordinator URL (selects a distributed runner over HTTP; wins over
    #: ``queue_dir`` when both are set).
    url: Optional[str] = None
    #: Give up waiting for workers after this long (``None`` = forever).
    queue_timeout: Optional[float] = None
    #: Attempts per newly enqueued task (``None`` = backend default of 3).
    max_retries: Optional[int] = None
    #: Lease/heartbeat timeout for filesystem queues (HTTP backends take
    #: the coordinator's value).
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    #: Floor of the distributed wait loop's backoff.
    poll_interval: float = 0.5

    @property
    def distributed(self) -> bool:
        return self.url is not None or self.queue_dir is not None

    @property
    def queue_target(self) -> Union[str, "os.PathLike", None]:
        """The backend locator (URL wins over directory), if any."""
        return self.url if self.url is not None else self.queue_dir

    @classmethod
    def from_args(cls, args: "argparse.Namespace") -> "RunnerConfig":
        """Build from parsed CLI flags (the ``_add_runner_arguments`` set).

        Validates the flag combinations the old decision tree enforced:
        ``--distributed`` without a queue target is an error, and cache
        flags are warned about (and ignored) on distributed runs, whose
        results live in the backend's own store.
        """
        url = getattr(args, "url", None)
        queue_dir = getattr(args, "queue_dir", None)
        if getattr(args, "distributed", False) and url is None and queue_dir is None:
            raise SystemExit("--distributed requires --queue-dir DIR or --url URL")
        if (url is not None or queue_dir is not None) and (
            getattr(args, "no_cache", False) or getattr(args, "cache_dir", None)
        ):
            print(
                "note: distributed runs keep results in the queue's own store; "
                "--no-cache/--cache-dir are ignored",
                file=sys.stderr,
            )
        return cls(
            workers=getattr(args, "workers", 1),
            no_cache=getattr(args, "no_cache", False),
            cache_dir=getattr(args, "cache_dir", None),
            queue_dir=queue_dir,
            url=url,
            queue_timeout=getattr(args, "queue_timeout", None),
            max_retries=getattr(args, "max_retries", None),
            lease_seconds=getattr(args, "lease", None) or DEFAULT_LEASE_SECONDS,
        )

    def with_updates(self, **updates: object) -> "RunnerConfig":
        return replace(self, **updates)

    def make_backend(self) -> "QueueBackend":
        """The queue backend this config points at (distributed configs only)."""
        from repro.runner.backends import make_backend

        target = self.queue_target
        if target is None:
            raise ValueError("config has no queue target (set url or queue_dir)")
        return make_backend(target, lease_seconds=self.lease_seconds)

    def make_runner(self) -> "ParallelRunner":
        """The execution driver this config describes."""
        if self.distributed:
            from repro.runner.distributed import DistributedRunner

            kwargs = {
                "timeout": self.queue_timeout,
                "poll_interval": self.poll_interval,
                "lease_seconds": self.lease_seconds,
            }
            if self.max_retries is not None:
                kwargs["max_attempts"] = self.max_retries
            return DistributedRunner(self.queue_target, **kwargs)
        from repro.runner.runner import ParallelRunner

        if self.cache is not None:
            cache = self.cache
        elif self.no_cache:
            cache = None
        else:
            from repro.runner.cache import ResultCache

            cache = ResultCache(self.cache_dir)
        return ParallelRunner(workers=self.workers, cache=cache)
