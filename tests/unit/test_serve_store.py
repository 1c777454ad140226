"""Unit tests for the result store's TTL, eviction order, and spill tier."""

import json

import pytest

from repro.errors import JournalError, ServiceError
from repro.hub.runtime import EventLog
from repro.serve import persist
from repro.serve.store import ResultStore
from repro.serve.submission import Completed, Ticket


def _response(sid, tag="r"):
    return Completed(Ticket(sid, "t1", 0.0), result=(tag, sid))


class TestTTL:
    def test_get_before_and_after_expiry(self):
        store = ResultStore(ttl=10.0)
        store.put(1, _response(1), now=0.0)
        assert store.get(1, now=9.9) == _response(1)
        assert store.get(1, now=10.0) is None
        assert len(store) == 0

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ServiceError):
            ResultStore(ttl=0.0)
        with pytest.raises(ServiceError):
            ResultStore(ttl=10.0, memory_budget=4)  # budget, nowhere to spill
        with pytest.raises(ServiceError):
            ResultStore(ttl=10.0, spill_dir=tmp_path, memory_budget=0)

    def test_reput_refreshes_ttl(self):
        store = ResultStore(ttl=10.0)
        store.put(1, _response(1), now=0.0)
        store.put(1, _response(1, "fresh"), now=8.0)
        assert store.get(1, now=15.0) == _response(1, "fresh")

    def test_eviction_order_survives_reput(self):
        # Regression: a re-put used to leave its key in the old dict
        # position, so the expiry-ordered scan's early ``break`` hit the
        # refreshed (unexpired) entry first and stranded expired entries
        # sitting behind it.
        store = ResultStore(ttl=10.0)
        store.put(1, _response(1), now=0.0)
        store.put(2, _response(2), now=1.0)
        store.put(1, _response(1, "fresh"), now=5.0)  # moves 1 to the end
        # now=12: entry 2 (expiry 11) is expired, entry 1 (expiry 15) not.
        assert store.evict_expired(now=12.0) == 1
        assert store.get(2, now=12.0) is None
        assert store.get(1, now=12.0) == _response(1, "fresh")


class TestSpillTier:
    @pytest.fixture()
    def store(self, tmp_path):
        return ResultStore(ttl=100.0, spill_dir=tmp_path, memory_budget=2)

    def test_spills_oldest_beyond_budget(self, store, tmp_path):
        for sid in (1, 2, 3):
            store.put(sid, _response(sid), now=float(sid))
        assert len(store) == 3
        assert store.spilled_count == 1
        assert store.spill_writes == 1
        assert persist.spill_path(tmp_path, 1).exists()
        assert not persist.spill_path(tmp_path, 3).exists()

    def test_faults_back_bit_identical(self, store, tmp_path):
        for sid in (1, 2, 3):
            store.put(sid, _response(sid), now=float(sid))
        assert store.get(1, now=4.0) == _response(1)
        assert store.spill_reads == 1
        # Faulting 1 back re-spilled the now-coldest resident (2).
        assert store.spilled_count == 1
        assert not persist.spill_path(tmp_path, 1).exists()
        assert persist.spill_path(tmp_path, 2).exists()

    def test_event_log_results_fault_back_bitwise(self, store):
        log = EventLog([0.25, -0.0, 7.5], [float("nan"), 5e-324, -1.0])
        store.put(1, Completed(Ticket(1, "t1", 0.0), result=log), now=1.0)
        for sid in (2, 3):
            store.put(sid, _response(sid), now=float(sid))
        back = store.get(1, now=4.0)
        assert store.spill_reads == 1
        assert isinstance(back.result, EventLog)
        assert back.result == log
        assert back.result.times.base is None

    def test_ttl_eviction_spans_both_tiers(self, tmp_path):
        store = ResultStore(ttl=10.0, spill_dir=tmp_path, memory_budget=1)
        store.put(1, _response(1), now=0.0)
        store.put(2, _response(2), now=1.0)  # spills 1
        assert store.spilled_count == 1
        assert store.evict_expired(now=20.0) == 2
        assert len(store) == 0
        assert not persist.spill_path(tmp_path, 1).exists()

    def test_reput_drops_stale_spill_file(self, store, tmp_path):
        for sid in (1, 2, 3):
            store.put(sid, _response(sid), now=float(sid))
        store.put(1, _response(1, "fresh"), now=4.0)
        assert not persist.spill_path(tmp_path, 1).exists()
        assert store.get(1, now=5.0) == _response(1, "fresh")

    def test_corrupted_spill_raises_journal_error(self, store, tmp_path):
        for sid in (1, 2, 3):
            store.put(sid, _response(sid), now=float(sid))
        sidecar = persist.spill_path(tmp_path, 1).with_suffix(".json")
        manifest = json.loads(sidecar.read_text())
        manifest["crc32"] ^= 0xFF
        sidecar.write_text(json.dumps(manifest))
        with pytest.raises(JournalError):
            store.get(1, now=4.0)

    def test_close_removes_owned_spill_files(self, store, tmp_path):
        for sid in (1, 2, 3):
            store.put(sid, _response(sid), now=float(sid))
        store.close()
        assert not persist.spill_path(tmp_path, 1).exists()


class TestPersist:
    def test_round_trip(self, tmp_path):
        response = _response(7)
        persist.save_response(tmp_path, 7, response, expiry=42.0)
        assert persist.load_response(tmp_path, 7) == response
        manifest = json.loads(
            persist.spill_path(tmp_path, 7).with_suffix(".json").read_text()
        )
        assert manifest["tenant"] == "t1"
        assert manifest["kind"] == "Completed"
        assert manifest["expiry"] == 42.0

    def test_missing_entry_raises(self, tmp_path):
        with pytest.raises(JournalError):
            persist.load_response(tmp_path, 99)

    def test_torn_archive_raises(self, tmp_path):
        persist.save_response(tmp_path, 7, _response(7), expiry=42.0)
        path = persist.spill_path(tmp_path, 7)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(JournalError):
            persist.load_response(tmp_path, 7)

    def test_delete_is_idempotent(self, tmp_path):
        persist.save_response(tmp_path, 7, _response(7), expiry=42.0)
        persist.delete_response(tmp_path, 7)
        persist.delete_response(tmp_path, 7)
        assert not persist.spill_path(tmp_path, 7).exists()
