"""Unit tests for the write-ahead journal framing and writer."""

import pytest

from repro.errors import JournalError
from repro.serve import (
    JournalWriter,
    RecoveryStats,
    ServiceFaultInjector,
    ServiceFaultPlan,
    read_journal,
    truncate_journal,
)
from repro.hub.runtime import EventLog, WakeEvent
from repro.serve.journal import HEADER, encode_record
from repro.serve.submission import Completed, Ticket

RECORDS = (
    ("accept", 1, 1.0, "payload-a"),
    ("round", 2.0, (1,)),
    (
        "complete", 1, 2.0,
        Completed(Ticket(1, "t1", 1.0), result=EventLog([0.5, 2.25], [1.0, -0.0])),
    ),
    ("cref", 2, 2.0, 1, True, 1.0),
)


def _write(path, records):
    with open(path, "wb") as handle:
        for record in records:
            handle.write(encode_record(record))


class TestReadJournal:
    def test_round_trips_every_record_kind(self, tmp_path):
        path = tmp_path / "j.wal"
        _write(path, RECORDS)
        scan = read_journal(path)
        assert scan.records == RECORDS
        assert scan.reason is None
        assert scan.truncated_bytes == 0
        assert scan.valid_bytes == scan.total_bytes == path.stat().st_size

    def test_empty_journal_is_clean(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"")
        scan = read_journal(path)
        assert scan.records == ()
        assert scan.reason is None

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            read_journal(tmp_path / "nope.wal")

    @pytest.mark.parametrize("torn", [1, HEADER.size, HEADER.size + 3])
    def test_torn_tail_recovers_valid_prefix(self, tmp_path, torn):
        path = tmp_path / "j.wal"
        _write(path, RECORDS)
        clean = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(encode_record(("accept", 9, 9.0, "torn"))[:torn])
        scan = read_journal(path)
        assert scan.records == RECORDS
        assert scan.reason == "torn_tail"
        assert scan.valid_bytes == clean
        assert scan.truncated_bytes == torn

    def test_bad_crc_stops_the_prefix(self, tmp_path):
        path = tmp_path / "j.wal"
        _write(path, RECORDS)
        data = bytearray(path.read_bytes())
        # Flip one payload byte of the second record.
        first = HEADER.size + HEADER.unpack_from(data, 0)[0]
        data[first + HEADER.size] ^= 0xFF
        path.write_bytes(bytes(data))
        scan = read_journal(path)
        assert scan.records == RECORDS[:1]
        assert scan.reason == "corrupt_record"
        assert scan.truncated_bytes == len(data) - scan.valid_bytes

    def test_unknown_kind_is_skipped_not_damage(self, tmp_path):
        # Forward compatibility: a validly framed record of a future
        # kind does not end the prefix — it is counted and skipped.
        path = tmp_path / "j.wal"
        _write(path, (RECORDS[0], ("frobnicate", 1), RECORDS[1]))
        scan = read_journal(path)
        assert scan.records == (RECORDS[0], RECORDS[1])
        assert scan.reason is None
        assert scan.skipped_records == 1
        assert scan.valid_bytes == scan.total_bytes

    def test_skipped_records_count_each_unknown_kind(self, tmp_path):
        path = tmp_path / "j.wal"
        _write(
            path,
            (
                ("v99-header", "future"),
                RECORDS[0],
                ("frobnicate", 1),
                RECORDS[1],
                ("frobnicate", 2),
            ),
        )
        scan = read_journal(path)
        assert scan.records == RECORDS[:2]
        assert scan.skipped_records == 3
        assert scan.reason is None

    def test_malformed_payload_is_still_corrupt(self, tmp_path):
        # The skip contract only covers *tuples headed by a string*;
        # anything else remains damage and ends the prefix.
        for bad in (["accept", 1], (), (42, "x"), "accept"):
            path = tmp_path / "j.wal"
            _write(path, (RECORDS[0], bad, RECORDS[1]))
            scan = read_journal(path)
            assert scan.records == RECORDS[:1]
            assert scan.reason == "corrupt_record"
            assert scan.skipped_records == 0

    def test_stream_record_kinds_round_trip(self, tmp_path):
        path = tmp_path / "j.wal"
        stream_records = (
            ("chunk", "t1", "dev-0", 0, 1.0, {"ACC_X": 50.0}, {"ACC_X": (0.1, 0.2)}),
            ("sub", 3, 1.0, "subscription-payload"),
        )
        _write(path, RECORDS + stream_records)
        scan = read_journal(path)
        assert scan.records == RECORDS + stream_records
        assert scan.reason is None
        assert scan.skipped_records == 0

    def test_truncate_then_reread_is_clean(self, tmp_path):
        path = tmp_path / "j.wal"
        _write(path, RECORDS)
        with open(path, "ab") as handle:
            handle.write(b"\x07garbage")
        scan = read_journal(path)
        truncate_journal(path, scan.valid_bytes)
        again = read_journal(path)
        assert again.records == RECORDS
        assert again.reason is None


class TestJournalWriter:
    def test_appends_buffer_until_flush(self, tmp_path):
        path = tmp_path / "j.wal"
        writer = JournalWriter(path)
        writer.append(RECORDS[0])
        assert writer.pending_bytes > 0
        assert read_journal(path).records == ()
        writer.flush()
        assert writer.pending_bytes == 0
        assert read_journal(path).records == RECORDS[:1]
        writer.close()

    def test_close_flushes_outstanding_records(self, tmp_path):
        path = tmp_path / "j.wal"
        writer = JournalWriter(path)
        writer.append(RECORDS[0])
        writer.close()
        assert read_journal(path).records == RECORDS[:1]

    def test_crash_loses_the_unflushed_buffer(self, tmp_path):
        path = tmp_path / "j.wal"
        writer = JournalWriter(path)
        writer.append(RECORDS[0])
        writer.flush()
        writer.append(RECORDS[1])
        writer.crash()
        assert read_journal(path).records == RECORDS[:1]

    def test_crash_with_torn_bytes_tears_the_tail(self, tmp_path):
        path = tmp_path / "j.wal"
        writer = JournalWriter(path)
        writer.append(RECORDS[0])
        writer.flush()
        clean = path.stat().st_size
        writer.append(RECORDS[1])
        writer.crash(torn_bytes=5)
        assert path.stat().st_size == clean + 5
        scan = read_journal(path)
        assert scan.records == RECORDS[:1]
        assert scan.reason == "torn_tail"

    def test_closed_writer_refuses_appends(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.wal")
        writer.close()
        with pytest.raises(JournalError):
            writer.append(RECORDS[0])
        with pytest.raises(JournalError):
            writer.flush()
        writer.close()  # idempotent

    def test_counters(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.wal")
        writer.append(RECORDS[0])
        writer.append(RECORDS[1])
        writer.flush()
        assert writer.appended_records == 2
        assert writer.flushes == 1
        writer.close()

    def test_injected_append_errors(self, tmp_path):
        plan = ServiceFaultPlan(journal_error_appends=(1,))
        writer = JournalWriter(
            tmp_path / "j.wal", faults=ServiceFaultInjector(plan)
        )
        writer.append(RECORDS[0])
        with pytest.raises(JournalError):
            writer.append(RECORDS[1])
        writer.append(RECORDS[2])
        writer.close()
        assert read_journal(tmp_path / "j.wal").records == (
            RECORDS[0], RECORDS[2],
        )


class TestPreColumnarJournal:
    def test_wake_event_tuple_result_is_refused(self, tmp_path):
        """Journals whose raw-IL completions hold tuples of WakeEvent
        (written before wake events became columnar) are refused, never
        recovered into a shard that mixes two result types."""
        path = tmp_path / "j.wal"
        old = Completed(Ticket(1, "t1", 1.0), result=(WakeEvent(0.5, 1.0),))
        _write(path, [RECORDS[0], ("complete", 1, 2.0, old)])
        with pytest.raises(JournalError, match="predates columnar"):
            read_journal(path)


class TestFreshWriter:
    def test_fresh_writer_refuses_a_non_empty_journal(self, tmp_path):
        path = tmp_path / "j.wal"
        _write(path, RECORDS[:1])
        with pytest.raises(JournalError, match="earlier run"):
            JournalWriter(path)
        assert read_journal(path).records == RECORDS[:1]

    def test_fresh_writer_accepts_an_empty_file(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"")
        writer = JournalWriter(path)
        writer.append(RECORDS[0])
        writer.close()
        assert read_journal(path).records == RECORDS[:1]

    def test_resume_appends_after_existing_records(self, tmp_path):
        path = tmp_path / "j.wal"
        _write(path, RECORDS[:1])
        writer = JournalWriter(path, resume=True)
        writer.append(RECORDS[1])
        writer.close()
        assert read_journal(path).records == RECORDS[:2]


class TestRecoveryStats:
    def test_describe_mentions_damage_only_when_present(self):
        clean = RecoveryStats(
            journal_bytes=10, valid_bytes=10, truncated_bytes=0,
            truncation_reason=None, records=2, accepts=1, rounds=1,
            completions=1,
        )
        assert "truncated" not in clean.describe()
        torn = RecoveryStats(
            journal_bytes=12, valid_bytes=10, truncated_bytes=2,
            truncation_reason="torn_tail", records=2, accepts=1, rounds=1,
            completions=1,
        )
        assert "truncated 2 bytes (torn_tail)" in torn.describe()
