"""Unit tests for the write-ahead log and replay."""

import pytest

from repro.txn.ids import ObjectId, TransactionId
from repro.txn import wal as w
from repro.txn.wal import WriteAheadLog, in_doubt, replay

T1, T2 = TransactionId(1), TransactionId(2)
A, B = ObjectId("a"), ObjectId("b")


class TestAppendForce:
    def test_lsn_monotonic(self):
        log = WriteAheadLog()
        r1 = log.append(w.BEGIN, T1)
        r2 = log.append(w.COMMIT, T1)
        assert r2.lsn == r1.lsn + 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WriteAheadLog().append("NOPE")

    def test_force_marks_durable(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        assert log.durable_length == 0
        log.force()
        assert log.durable_length == 1

    def test_lose_unforced_drops_tail(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        log.force()
        log.append(w.UPDATE, T1, A, 1)
        lost = log.lose_unforced()
        assert lost == 1
        assert len(log) == 1

    def test_lose_unforced_keeps_forced_records(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, A, 1)
        log.force()
        log.lose_unforced()
        assert [r.kind for r in log.durable_records()] == [w.BEGIN, w.UPDATE]


class TestReplay:
    def _committed_log(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, A, "v1")
        log.append(w.UPDATE, T1, B, "v2")
        log.append(w.COMMIT, T1)
        log.force()
        return log

    def test_committed_updates_applied(self):
        snapshot = replay(self._committed_log().durable_records())
        assert snapshot == {"a": "v1", "b": "v2"}

    def test_uncommitted_updates_presumed_aborted(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, A, "v1")
        log.force()
        assert replay(log.durable_records()) == {}

    def test_aborted_updates_discarded(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, A, "v1")
        log.append(w.ABORT, T1)
        log.force()
        assert replay(log.durable_records()) == {}

    def test_later_commit_overwrites(self):
        log = self._committed_log()
        log.append(w.BEGIN, T2)
        log.append(w.UPDATE, T2, A, "v9")
        log.append(w.COMMIT, T2)
        log.force()
        assert replay(log.durable_records())["a"] == "v9"

    def test_interleaved_transactions(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        log.append(w.BEGIN, T2)
        log.append(w.UPDATE, T1, A, 1)
        log.append(w.UPDATE, T2, B, 2)
        log.append(w.COMMIT, T2)
        log.append(w.ABORT, T1)
        log.force()
        assert replay(log.durable_records()) == {"b": 2}


class TestCheckpoint:
    def test_checkpoint_compacts_log(self):
        log = WriteAheadLog()
        for i in range(10):
            tid = TransactionId(i + 1)
            log.append(w.BEGIN, tid)
            log.append(w.UPDATE, tid, A, i)
            log.append(w.COMMIT, tid)
        log.force()
        log.checkpoint({"a": 9})
        assert len(log) == 1
        assert replay(log.durable_records()) == {"a": 9}

    def test_compaction_compares_no_records(self, monkeypatch):
        """The CHECKPOINT is the record just appended: finding it must not
        walk the log comparing records (``list.index`` did, once per
        record before it)."""
        log = WriteAheadLog()
        for i in range(300):
            log.append(w.BATCH, TransactionId(i + 1), None, {"a": i})
        log.force()
        comparisons = []
        monkeypatch.setattr(
            w.LogRecord, "__eq__", lambda self, other: comparisons.append(1) or self is other
        )
        log.checkpoint({"a": 299})
        assert comparisons == []
        assert [r.kind for r in log.all_records()] == [w.CHECKPOINT]
        assert log.durable_length == 1

    def test_replay_after_checkpoint_and_more_commits(self):
        log = WriteAheadLog()
        log.checkpoint({"a": 1})
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, B, 2)
        log.append(w.COMMIT, T1)
        log.force()
        assert replay(log.durable_records()) == {"a": 1, "b": 2}


class TestInDoubt:
    def test_prepared_without_outcome_is_in_doubt(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, A, 1)
        log.append(w.PREPARE, T1)
        log.force()
        assert in_doubt(log.durable_records()) == [T1]

    def test_committed_prepare_not_in_doubt(self):
        log = WriteAheadLog()
        log.append(w.PREPARE, T1)
        log.append(w.COMMIT, T1)
        log.force()
        assert in_doubt(log.durable_records()) == []

    def test_aborted_prepare_not_in_doubt(self):
        log = WriteAheadLog()
        log.append(w.PREPARE, T1)
        log.append(w.ABORT, T1)
        log.force()
        assert in_doubt(log.durable_records()) == []

    def test_json_serialization_of_records(self):
        log = WriteAheadLog()
        record = log.append(w.UPDATE, T1, A, {"x": 1})
        text = record.to_json()
        assert '"UPDATE"' in text and '"a"' in text

    def test_mirror_rows_carry_five_fields_and_no_padding(self):
        import json

        log = WriteAheadLog()
        update = log.append(w.UPDATE, T1, A, {"x": [1, 2], "y": {"z": None}})
        batch = log.append(w.BATCH, value={"k": {"n": 1}, "other": object})
        for record in (update, batch):
            row = record.to_json()
            assert list(json.loads(row)) == ["lsn", "kind", "txn", "obj", "value"]
            assert ", " not in row and '": ' not in row, row
        assert json.loads(update.to_json()) == {
            "lsn": 1, "kind": "UPDATE", "txn": [T1.number, T1.origin], "obj": "a",
            "value": {"x": [1, 2], "y": {"z": None}},
        }
        # values json cannot encode still fall back to their repr
        assert json.loads(batch.to_json())["value"]["other"] == repr(object)


class TestDiskMirror:
    def test_forced_records_mirrored_to_disk(self, tmp_path):
        import json

        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, A, "v1")
        log.append(w.COMMIT, T1)
        log.force()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds == [w.BEGIN, w.UPDATE, w.COMMIT]

    def test_unforced_records_not_mirrored(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        log.append(w.BEGIN, T1)
        assert not path.exists() or path.read_text() == ""

    def test_mirror_appends_across_forces(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        log.append(w.BEGIN, T1)
        log.force()
        log.append(w.COMMIT, T1)
        log.force()
        log.force()  # idempotent: nothing new to write
        assert len(path.read_text().strip().splitlines()) == 2

    def test_persistent_handle_reused_across_forces(self, tmp_path):
        """Regression: the mirror used to reopen the file on every force;
        it must write through one persistent handle."""
        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        log.append(w.BEGIN, T1)
        log.force()
        handle = log._mirror_fh
        assert handle is not None
        log.append(w.COMMIT, T1)
        log.force()
        assert log._mirror_fh is handle
        log.close()
        assert log._mirror_fh is None


class TestGroupCommit:
    """The one WAL discipline, on a default-constructed log: simulated
    durability per force, one physical sync per barrier (docs/PROTOCOLS.md
    §11)."""

    def _mirror_lines(self, path):
        return path.read_text().strip().splitlines() if path.exists() else []

    def test_force_advances_durability_without_sync(self, tmp_path, monkeypatch):
        import os

        from repro.core.instrument import IOPATH_STATS

        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        IOPATH_STATS.reset()
        for _ in range(5):
            log.append(w.BEGIN, T1)
            log.force()
        assert log.durable_length == 5  # simulated durability is per force
        assert IOPATH_STATS.wal_syncs == 0 and not fsyncs  # no physical sync yet
        assert len(self._mirror_lines(path)) == 5  # rows are written (buffered)
        assert log.sync() is True
        assert IOPATH_STATS.wal_syncs == 1 and len(fsyncs) == 1  # five forces, one fsync
        assert log.sync() is False  # barrier is idempotent
        assert len(fsyncs) == 1

    def test_auto_sync_at_group_max(self):
        from repro.core.instrument import IOPATH_STATS

        log = WriteAheadLog(group_max=3)
        IOPATH_STATS.reset()
        for _ in range(7):
            log.append(w.BEGIN, T1)
            log.force()
        # windows of 3: syncs fire at forces 3 and 6, force 7 stays pending
        assert IOPATH_STATS.wal_syncs == 2
        assert log.sync() is True

    def test_mirror_equals_durable_prefix_after_crash(self, tmp_path):
        """The regression the group-commit window must not introduce: after
        lose_unforced() the mirror file holds exactly the records up to
        _forced_upto — coalesced-but-unsynced rows included, volatile tail
        excluded."""
        import json

        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        log.append(w.BEGIN, T1)
        log.append(w.COMMIT, T1)
        log.force()
        log.append(w.BEGIN, T2)
        log.force()
        log.append(w.UPDATE, T2, A, "volatile")  # never forced
        log.lose_unforced()
        lines = self._mirror_lines(path)
        assert len(lines) == log.durable_length == 3
        assert [json.loads(l)["lsn"] for l in lines] == [
            r.lsn for r in log.durable_records()
        ]

    def test_mirror_equals_durable_prefix_after_torn_force(self, tmp_path):
        """Torn force during a coalescing window: all-but-last pending
        records become durable and the mirror agrees exactly."""
        import json

        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        log.append(w.BEGIN, T1)
        log.force()  # pending sync from an earlier force
        log.append(w.UPDATE, T1, A, "v1")
        log.append(w.COMMIT, T1)
        made_durable = log.torn_force()
        assert made_durable == 1  # UPDATE survives, COMMIT is torn
        log.lose_unforced()
        lines = self._mirror_lines(path)
        assert len(lines) == log.durable_length == 2
        assert [json.loads(l)["lsn"] for l in lines] == [
            r.lsn for r in log.durable_records()
        ]

    def test_torn_force_with_nothing_pending_still_drains_window(self, tmp_path):
        from repro.core.instrument import IOPATH_STATS

        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        log.append(w.BEGIN, T1)
        log.force()
        IOPATH_STATS.reset()
        log.append(w.COMMIT, T1)  # exactly one pending record: torn away
        assert log.torn_force() == 0
        assert IOPATH_STATS.wal_syncs == 1  # earlier force's row hit disk
        assert len(self._mirror_lines(path)) == 1

    def test_checkpoint_drains_window(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        log.append(w.BEGIN, T1)
        log.append(w.COMMIT, T1)
        log.force()
        log.checkpoint({"a": 1})
        assert log._pending_syncs == 0

    def test_store_sync_delegates_to_wal(self):
        from repro.core.instrument import IOPATH_STATS
        from repro.txn.store import ObjectStore

        store = ObjectStore("gc")
        IOPATH_STATS.reset()
        store.wal.append(w.BEGIN, T1)
        store.wal.force()
        assert IOPATH_STATS.wal_syncs == 0
        assert store.sync() is True
        assert IOPATH_STATS.wal_syncs == 1


class TestCheckpointUnderGroupCommit:
    """``checkpoint()`` is a durability barrier: every row pending from the
    coalescing window must be physically synced before (or together with)
    the CHECKPOINT record, and the truncation must preserve LSN-addressable
    replay (docs/PROTOCOLS.md §11 + §12: replication ships by LSN across
    checkpoint truncation)."""

    def _lines(self, path):
        return path.read_text().strip().splitlines() if path.exists() else []

    def test_pending_rows_synced_with_checkpoint(self, tmp_path):
        from repro.core.instrument import IOPATH_STATS

        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        IOPATH_STATS.reset()
        for _ in range(3):  # three forces, zero fsyncs: the window is open
            log.append(w.BEGIN, T1)
            log.append(w.COMMIT, T1)
            log.force()
        assert IOPATH_STATS.wal_syncs == 0
        log.checkpoint({"a": 1})
        # the barrier drained the window: every earlier row plus the
        # CHECKPOINT itself is on disk and fsynced
        assert log._pending_syncs == 0
        assert IOPATH_STATS.wal_syncs >= 1
        mirrored = self._lines(path)
        assert len(mirrored) == 7  # 6 pre-checkpoint rows + CHECKPOINT
        assert '"CHECKPOINT"' in mirrored[-1]

    def test_crash_after_checkpoint_replays_snapshot(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, A, 1)
        log.append(w.COMMIT, T1)
        log.force()
        log.checkpoint({"a": 1})
        log.append(w.BEGIN, T2)  # volatile tail, torn away by the crash
        log.lose_unforced()
        assert replay(log.durable_records()) == {"a": 1}
        assert log._pending_syncs == 0  # crash path drained the window

    def test_lsns_stable_across_truncation(self):
        log = WriteAheadLog()
        for _ in range(4):
            log.append(w.BEGIN, T1)
            log.append(w.COMMIT, T1)
            log.force()
        before = log.last_durable_lsn
        assert log.first_retained_lsn == 1
        log.checkpoint({"x": 1})
        # truncation discards superseded records but never renumbers: the
        # checkpoint record carries the next LSN and becomes the log's root
        assert log.first_retained_lsn == before + 1
        assert log.last_durable_lsn == before + 1
        log.append(w.BEGIN, T2)
        log.append(w.COMMIT, T2)
        log.force()
        assert log.last_durable_lsn == before + 3

    def test_reset_restarts_numbering_and_drains(self, tmp_path):
        import json

        path = tmp_path / "wal.jsonl"
        log = WriteAheadLog(mirror_path=str(path))
        log.append(w.BEGIN, T1)
        log.append(w.COMMIT, T1)
        log.force()
        log.append(w.BEGIN, T2)  # volatile: never reaches the file
        durable = [r.lsn for r in log.durable_records()]
        log.reset()
        assert log._pending_syncs == 0  # pending rows hit disk before the wipe
        # the file is exactly the prefix that was durable when the log was wiped
        assert [json.loads(l)["lsn"] for l in self._lines(path)] == durable
        assert len(log) == 0
        assert log.durable_length == 0
        assert log.first_retained_lsn == 0
        assert log.last_durable_lsn == 0
        record = log.append(w.BEGIN, T2)
        assert record.lsn == 1  # a resynced standby restarts local numbering


class TestShippingCursor:
    """What replication ships from: the durable suffix above an LSN, and a
    replay state that advances batch by batch."""

    def test_durable_since_with_crash_and_checkpoint_gaps(self):
        log = WriteAheadLog()
        for _ in range(5):
            log.append(w.BEGIN, T1)
        log.force()
        log.append(w.BEGIN, T1)
        log.append(w.BEGIN, T1)
        log.lose_unforced()  # LSNs 6 and 7 are never reused
        for _ in range(3):
            log.append(w.BEGIN, T1)
        log.force()
        log.append(w.BEGIN, T1)  # volatile: never shipped
        assert [r.lsn for r in log.durable_records()] == [1, 2, 3, 4, 5, 8, 9, 10]
        for cursor in range(0, 13):
            assert [r.lsn for r in log.durable_since(cursor)] == [
                r.lsn for r in log.durable_records() if r.lsn > cursor
            ]
        log.force()
        log.checkpoint({"a": 1})
        assert [r.kind for r in log.durable_since(3)] == [w.CHECKPOINT]
        assert log.durable_since(log.last_durable_lsn) == []

    def test_fold_in_pieces_equals_replay_of_the_whole(self):
        log = WriteAheadLog()
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, A, "v1")
        log.append(w.PREPARE, T1)
        log.append(w.BEGIN, T2)
        log.append(w.UPDATE, T2, B, "v2")
        log.append(w.COMMIT, T2)
        log.append(w.COMMIT, T1)
        log.append(w.CHECKPOINT, value={"a": "v1", "b": "v2", "c": "v3"})
        log.append(w.BEGIN, T1)
        log.append(w.UPDATE, T1, A, "v4")
        log.append(w.ABORT, T1)
        log.force()
        records = list(log.durable_records())
        for cut in range(len(records) + 1):
            snapshot, pending = {}, {}
            w.fold(records[:cut], snapshot, pending)
            w.fold(records[cut:], snapshot, pending)
            assert snapshot == replay(records), cut
            assert list(snapshot) == list(replay(records)), cut  # same key order
            assert pending == {}
