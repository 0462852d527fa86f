"""Metrics collection and summary statistics."""

from repro import _lazy_exports

# Defining module -> the names this package re-exports from it.  They
# resolve on first access (PEP 562), so the coordinator's
# ``import repro.metrics.prometheus`` loads no simulator code.
__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.metrics.collector": ("MetricsCollector", "UtilizationSnapshot"),
    "repro.metrics.timeline": (
        "Timeline",
        "TimelineCollector",
        "TimelineWindow",
        "aggregate_timelines",
    ),
    "repro.metrics.prometheus": ("MetricFamily", "render_families", "validate_exposition"),
})
