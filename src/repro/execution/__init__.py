"""Query execution: operators, PPHJ, parallel hash join, OLTP path."""

from repro.execution.oltp import execute_oltp_transaction
from repro.execution.operators import (
    ScanWork,
    parop_merge_instructions,
    plan_scan,
    redistribution_packets,
    scan_fragment,
)
from repro.execution.parallel_join import execute_join_query
from repro.execution.pphj import JoinProcessorShare, PPHJExecutor

__all__ = [
    "execute_oltp_transaction",
    "ScanWork",
    "parop_merge_instructions",
    "plan_scan",
    "redistribution_packets",
    "scan_fragment",
    "execute_join_query",
    "JoinProcessorShare",
    "PPHJExecutor",
]
