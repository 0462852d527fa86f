"""Workload model: query classes, arrival generation, routing, OLTP, traces."""

from repro import _lazy_exports

# Defining module -> the names this package re-exports from it.  They
# resolve on first access (PEP 562), so ``import repro.workload.arrivals``
# (which the sweep spec needs) loads no simulator code.
__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.workload.arrivals": (
        "ARRIVAL_KINDS",
        "ArrivalProcess",
        "DeterministicArrivals",
        "OnOffArrivals",
        "PoissonArrivals",
        "SinusoidalArrivals",
        "StepArrivals",
        "TraceArrivals",
        "make_arrival_process",
    ),
    "repro.workload.generator": ("WorkloadClass", "WorkloadGenerator", "WorkloadSpec"),
    "repro.workload.query": (
        "JoinQuery",
        "OltpTransaction",
        "QueryClass",
        "ScanQuery",
        "Transaction",
        "UpdateStatement",
    ),
    "repro.workload.router": ("AffinityRouter", "RandomRouter", "RoundRobinRouter", "Router"),
    "repro.workload.tpcb": ("OltpCostProfile", "build_cost_profile"),
    "repro.workload.traces": ("Trace", "TraceRecord", "TraceReplayer", "generate_trace"),
})
