"""Process-global I/O-path counters (the ``HOTPATH_STATS`` pattern).

``IOPATH_STATS`` counts the raw-speed I/O core's work: WAL forces vs the
physical syncs that actually hit the mirror file (group commit coalesces
many forces behind one sync), journal entries vs the batch records
that persist them, and marshal calls vs the zero-copy fast-path hits that
avoided a structural copy.  Benchmarks and tests reset it via the autouse
fixtures in ``tests/conftest.py`` / ``benchmarks/conftest.py``; production
code only ever increments, so the counters are free of branches.
"""

from __future__ import annotations


class IopathStats:
    """Counters for the I/O hot path (WAL, journal, marshal)."""

    __slots__ = (
        "wal_forces",
        "wal_syncs",
        "journal_entries",
        "journal_batches",
        "marshal_calls",
        "marshal_fast_hits",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.wal_forces = 0            # WriteAheadLog.force() calls
        self.wal_syncs = 0             # physical sync operations (fsyncs)
        self.journal_entries = 0       # execution-service journal entries
        self.journal_batches = 0       # journal flushes (one WAL record each)
        self.marshal_calls = 0         # top-level marshal() calls
        self.marshal_fast_hits = 0     # calls answered by reference (no copy)


IOPATH_STATS = IopathStats()
