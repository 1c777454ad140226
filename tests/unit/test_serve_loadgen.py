"""Unit tests for the deterministic fleet load generator."""

import hashlib
import pickle

import numpy as np
import pytest

from repro.apps import all_applications
from repro.errors import ServiceError
from repro.hub.runtime import EventLog
from repro.serve import LoadSpec, fleet_workload
from repro.serve.loadgen import (
    INVALID_IL,
    VALID_ACCEL_IL,
    completion_digest,
    submission_content_key,
    zipf_weights,
)
from repro.serve.submission import Completed, Submission, Ticket


class TestLoadSpec:
    def test_rejects_non_positive_fleet(self):
        with pytest.raises(ServiceError, match="fleet"):
            LoadSpec(fleet=0)

    def test_rejects_inverted_submission_range(self):
        with pytest.raises(ServiceError, match="min <= max"):
            LoadSpec(min_submissions=3, max_submissions=2)


class TestZipfWeights:
    def test_monotone_decreasing(self):
        weights = zipf_weights(10, 1.1)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_higher_skew_is_more_head_heavy(self):
        flat = zipf_weights(10, 0.5)
        steep = zipf_weights(10, 2.0)
        assert steep[9] / steep[0] < flat[9] / flat[0]


class TestFleetWorkload:
    @pytest.fixture(scope="class")
    def traces(self, robot_trace, audio_trace):
        return [robot_trace, audio_trace]

    def test_deterministic_per_seed(self, traces):
        spec = LoadSpec(fleet=20, seed=5)
        apps = all_applications()
        assert fleet_workload(spec, apps, traces) == fleet_workload(
            spec, apps, traces
        )

    def test_different_seed_different_stream(self, traces):
        apps = all_applications()
        a = fleet_workload(LoadSpec(fleet=20, seed=1), apps, traces)
        b = fleet_workload(LoadSpec(fleet=20, seed=2), apps, traces)
        assert a != b

    def test_submission_counts_respect_range(self, traces):
        spec = LoadSpec(fleet=15, min_submissions=2, max_submissions=3)
        submissions = fleet_workload(spec, all_applications(), traces)
        per_tenant = {}
        for s in submissions:
            per_tenant[s.tenant] = per_tenant.get(s.tenant, 0) + 1
        assert len(per_tenant) == 15
        assert all(2 <= n <= 3 for n in per_tenant.values())

    def test_app_submissions_are_channel_compatible(self, traces):
        by_name = {trace.name: trace for trace in traces}
        apps = {app.name: app for app in all_applications()}
        spec = LoadSpec(fleet=60, seed=0)
        for s in fleet_workload(spec, all_applications(), traces):
            if s.kind != "app":
                continue
            app = apps[s.app]
            trace = by_name[s.trace]
            assert all(c in trace.data for c in app.channels), (s.app, s.trace)

    def test_il_mix_appears_at_requested_fractions(self, traces):
        spec = LoadSpec(
            fleet=300, seed=0, il_fraction=0.2, invalid_fraction=0.1
        )
        submissions = fleet_workload(spec, all_applications(), traces)
        invalid = [s for s in submissions if s.il in INVALID_IL]
        valid_il = [s for s in submissions if s.il in VALID_ACCEL_IL]
        n = len(submissions)
        assert 0.05 < len(invalid) / n < 0.15
        assert 0.15 < len(valid_il) / n < 0.25
        # Raw IL is only ever aimed at accelerometer traces.
        for s in valid_il:
            assert "ACC_X" in {trace.name: trace for trace in traces}[
                s.trace
            ].data


class TestCompletionDigest:
    SUBMISSION = Submission(tenant="t1", trace="robot", il=VALID_ACCEL_IL[0])

    def _digest(self, log):
        response = Completed(Ticket(1, "t1", 0.0), result=log)
        return completion_digest([(self.SUBMISSION, response)])

    def test_event_log_hashes_count_then_little_endian_columns(self):
        log = EventLog([1.0, -0.0], [2.0, 0.5])
        key = pickle.dumps(submission_content_key(self.SUBMISSION), protocol=4)
        blob = (
            b"events" + key + (2).to_bytes(8, "little")
            + np.array([1.0, -0.0], dtype="<f8").tobytes()
            + np.array([2.0, 0.5], dtype="<f8").tobytes()
        )
        assert self._digest(log) == hashlib.sha256(blob).hexdigest()

    def test_digest_is_bitwise(self):
        assert self._digest(EventLog([0.0], [1.0])) != self._digest(
            EventLog([-0.0], [1.0])
        )
        assert self._digest(EventLog()) != self._digest(EventLog([0.0], [0.0]))
