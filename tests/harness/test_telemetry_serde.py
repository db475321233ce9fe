"""Telemetry serialization: the one codepath shared by the BENCH perf
artifact and the service wire protocol (``to_dict``/``from_dict`` with
a schema marker)."""

from __future__ import annotations

import json

import pytest

from repro.harness.telemetry import (
    MODE_CACHED,
    MODE_POOL,
    TELEMETRY_SCHEMA_VERSION,
    JobTiming,
    SessionTelemetry,
)


def _session() -> SessionTelemetry:
    t = SessionTelemetry(workers=3)
    t.timings = [
        JobTiming("Gaussian/baseline", 1.25, MODE_POOL, cycles=123_456),
        JobTiming("BFS/regmutex-e4", 0.0, MODE_CACHED, cycles=88_000),
        JobTiming("MergeSort/owf", 0.5, MODE_POOL, failed=True,
                  failure_kind="timeout", attempts=2),
        JobTiming("Hotspot/baseline", 2.0, MODE_POOL, cycles=200_000,
                  resumed_from_cycle=40_000),
    ]
    t.wall_seconds = 4.5
    return t


class TestJobTiming:
    def test_round_trip_preserves_every_field(self):
        for timing in _session().timings:
            back = JobTiming.from_dict(timing.to_dict())
            assert back == timing

    def test_payload_is_json_safe_and_carries_derived_rate(self):
        timing = JobTiming("a/b", 2.0, MODE_POOL, cycles=100)
        payload = json.loads(json.dumps(timing.to_dict()))
        assert payload["cycles_per_sec"] == 50.0
        assert JobTiming.from_dict(payload) == timing

    def test_unknown_keys_are_ignored(self):
        payload = JobTiming("a/b", 1.0, MODE_POOL).to_dict()
        payload["from_the_future"] = True
        assert JobTiming.from_dict(payload).label == "a/b"

    @pytest.mark.parametrize("broken", [
        "not a dict",
        {},
        {"label": "x"},                       # missing mode/seconds
        {"label": 7, "mode": MODE_POOL, "seconds": 1.0},
    ])
    def test_malformed_payload_raises_value_error(self, broken):
        with pytest.raises(ValueError):
            JobTiming.from_dict(broken)


class TestSessionTelemetry:
    def test_round_trip_preserves_aggregates(self):
        session = _session()
        back = SessionTelemetry.from_dict(
            json.loads(json.dumps(session.to_dict()))
        )
        assert back.timings == session.timings
        assert back.workers == session.workers
        assert back.wall_seconds == session.wall_seconds
        assert back.failures == 1
        assert back.retries == 1
        assert back.resumed_jobs == 1
        assert back.cache_hits == 1

    def test_schema_marker_is_stamped_and_checked(self):
        payload = _session().to_dict()
        assert payload["schema"] == TELEMETRY_SCHEMA_VERSION
        payload["schema"] = TELEMETRY_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            SessionTelemetry.from_dict(payload)

    def test_non_dict_payload_raises(self):
        with pytest.raises(ValueError, match="not dict"):
            SessionTelemetry.from_dict([1, 2])
