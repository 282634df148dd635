"""Transactional substrate: the OTSArjuna analogue (see DESIGN.md §2).

Provides a durable object store with a write-ahead log, strict-2PL locking
without waiting, flat one-phase transactions, and crash recovery by redo
replay.  The repository service stores scripts under these transactions.
The execution service keeps its dependency journal in the same kind of
store, but as self-committing BATCH records
(:meth:`ObjectStore.commit_batch`): one writer, one record per durability
barrier.  Replaying those records is what backs the paper's claim that
tasks eventually receive their inputs despite a finite number of crashes.
"""

from .ids import IdSource, ObjectId, TransactionId
from .locks import LockConflict, LockManager, LockMode
from .manager import (
    RetriesExhausted,
    Transaction,
    TransactionAborted,
    TransactionManager,
    TransactionState,
)
from .store import NoSuchObject, ObjectStore
from .wal import LogRecord, WriteAheadLog, replay

__all__ = [
    "IdSource",
    "LockConflict",
    "LockManager",
    "LockMode",
    "LogRecord",
    "NoSuchObject",
    "ObjectId",
    "ObjectStore",
    "RetriesExhausted",
    "Transaction",
    "TransactionAborted",
    "TransactionId",
    "TransactionManager",
    "TransactionState",
    "WriteAheadLog",
    "replay",
]
