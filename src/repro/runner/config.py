"""`RunnerConfig`: the single construction path for every runner kind.

The CLI grew its runner options one PR at a time --
``--workers/--no-cache/--cache-dir/--url/--queue-timeout/--max-retries``
-- and each consumer (CLI subcommands, tests, figure wrappers) re-encoded
the same "which runner do these flags mean?" decision tree.  This dataclass
is that decision tree, once: build a config (directly, or from parsed CLI
args via :meth:`from_args`), then :meth:`make_runner` yields the serial /
process-pool / distributed runner it describes.

A coordinator ``url`` selects a
:class:`~repro.runner.distributed.DistributedRunner` whose coordinator owns
the result store (the local cache settings are meaningless there --
:meth:`from_args` warns when they are set); otherwise a local
:class:`~repro.runner.runner.ParallelRunner` over ``workers`` processes
with the configured cache.  Either way results fold in expansion order,
so the choice never changes tables, aggregates or exports.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    import argparse
    import os

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
    #: ``repro-lb serve`` coordinator URL (selects a distributed runner).
    url: Optional[str] = None
    #: Give up waiting for workers after this long (``None`` = forever).
    queue_timeout: Optional[float] = None
    #: Attempts per newly enqueued task (``None`` = the default of 3).
    max_retries: Optional[int] = None
    #: Floor of the distributed wait loop's backoff.
    poll_interval: float = 0.5

    @classmethod
    def from_args(cls, args: "argparse.Namespace") -> "RunnerConfig":
        """Build from parsed CLI flags (the ``_add_runner_arguments`` set).

        Cache flags are warned about (and ignored) on distributed runs,
        whose results live in the coordinator's own store.
        """
        url = getattr(args, "url", None)
        if url is not None and (
            getattr(args, "no_cache", False) or getattr(args, "cache_dir", None)
        ):
            print(
                "note: distributed runs keep results in the coordinator's store; "
                "--no-cache/--cache-dir are ignored",
                file=sys.stderr,
            )
        return cls(
            workers=getattr(args, "workers", 1),
            no_cache=getattr(args, "no_cache", False),
            cache_dir=getattr(args, "cache_dir", None),
            url=url,
            queue_timeout=getattr(args, "queue_timeout", None),
            max_retries=getattr(args, "max_retries", None),
        )

    def make_runner(self) -> "ParallelRunner":
        """The execution driver this config describes."""
        if self.url is not None:
            from repro.runner.distributed import DistributedRunner

            kwargs = {"timeout": self.queue_timeout, "poll_interval": self.poll_interval}
            if self.max_retries is not None:
                kwargs["max_attempts"] = self.max_retries
            return DistributedRunner(self.url, **kwargs)
        from repro.runner.runner import ParallelRunner

        if self.cache is not None:
            cache = self.cache
        elif self.no_cache:
            cache = None
        else:
            from repro.runner.cache import ResultCache

            cache = ResultCache(self.cache_dir)
        return ParallelRunner(workers=self.workers, cache=cache)
