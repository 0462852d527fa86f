"""Node engine: buffer, locking, deadlock detection, MPL admission, read-only commit, PE."""

from repro.engine.buffer import BufferManager, WorkingSpace
from repro.engine.deadlock import DeadlockDetector
from repro.engine.lock import DeadlockAbort, LockManager, LockMode
from repro.engine.pe import ProcessingElement
from repro.engine.transaction import TransactionManager
from repro.engine.twopc import run_commit

__all__ = [
    "BufferManager",
    "WorkingSpace",
    "DeadlockDetector",
    "DeadlockAbort",
    "LockManager",
    "LockMode",
    "ProcessingElement",
    "TransactionManager",
    "run_commit",
]
