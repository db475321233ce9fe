"""Perf-artifact tests: schema, sanitization, and the disk round trip."""

import json

import pytest

from repro.harness.telemetry import (
    MODE_CACHED,
    MODE_INLINE,
    MODE_POOL,
    JobTiming,
    SessionTelemetry,
)
from repro.observe import (
    STATUS_INCONCLUSIVE,
    STATUS_OK,
    STATUS_REGRESSED,
    artifact_filename,
    compare_perf_artifacts,
    load_perf_artifact,
    perf_artifact,
    write_perf_artifact,
)


def _session():
    t = SessionTelemetry(workers=2)
    t.timings = [
        JobTiming("fig7/BFS/regmutex", 2.0, MODE_POOL, cycles=1_000_000),
        JobTiming("fig7/BFS/baseline", 0.0, MODE_CACHED, cycles=500_000),
        JobTiming("fig7/SAD/regmutex", 1.0, MODE_INLINE, failed=True,
                  failure_kind="deadlock", attempts=2),
    ]
    t.wall_seconds = 3.0
    return t


class TestArtifactFilename:
    def test_plain_label(self):
        assert artifact_filename("nightly") == "BENCH_nightly.json"

    def test_hostile_characters_sanitized(self):
        assert artifact_filename("a b/c:d") == "BENCH_a-b-c-d.json"

    def test_empty_label_falls_back(self):
        assert artifact_filename("///") == "BENCH_run.json"


class TestPerfArtifact:
    def test_schema_and_totals(self):
        a = perf_artifact("unit", _session())
        assert a["schema"] == 1
        assert a["label"] == "unit"
        assert a["workers"] == 2
        assert a["totals"]["jobs"] == 3
        assert a["totals"]["failures"] == 1
        # Cached cycles cost no simulation time, so they must not sit
        # in the throughput numerator: totals.cycles is computed-only,
        # cached work is reported in its own field.
        assert a["totals"]["cycles"] == 1_000_000
        assert a["totals"]["cached_cycles"] == 500_000
        assert a["totals"]["sim_seconds"] == pytest.approx(3.0)
        assert a["totals"]["cycles_per_sec"] == pytest.approx(
            1_000_000 / 3.0, rel=1e-3)
        assert a["cache"] == {"hits": 1, "misses": 2,
                              "hit_rate": pytest.approx(1 / 3, abs=1e-4)}
        assert a["failure_kinds"] == {"deadlock": 1}

    def test_mixed_session_throughput_excludes_cached(self):
        # Regression: a partially-cached session used to count cached
        # cycles in the numerator while sim_seconds excluded their
        # (zero) time, inflating cycles_per_sec by the cache hit rate.
        t = SessionTelemetry(workers=1)
        t.timings = [
            JobTiming("a", 2.0, MODE_POOL, cycles=800_000),
            JobTiming("b", 0.0, MODE_CACHED, cycles=10_000_000_000),
        ]
        a = perf_artifact("mixed", t)
        assert a["totals"]["cycles_per_sec"] == pytest.approx(400_000.0)

    def test_all_cached_session_has_no_throughput(self):
        t = SessionTelemetry(workers=1)
        t.timings.append(JobTiming("a", 0.0, MODE_CACHED, cycles=500_000))
        a = perf_artifact("warm", t)
        assert a["totals"]["cycles"] == 0
        assert a["totals"]["cached_cycles"] == 500_000
        assert a["totals"]["cycles_per_sec"] is None

    def test_figures_embedded_when_given(self):
        figs = {"fig7": {"mean_cycle_reduction": 0.131, "apps": 8.0}}
        a = perf_artifact("unit", _session(), figures=figs)
        assert a["figures"] == figs
        assert "figures" not in perf_artifact("unit", _session())

    def test_per_job_rows(self):
        jobs = {j["label"]: j for j in perf_artifact("unit", _session())["jobs"]}
        simulated = jobs["fig7/BFS/regmutex"]
        assert simulated["cycles_per_sec"] == pytest.approx(500_000.0)
        assert simulated["mode"] == MODE_POOL
        cached = jobs["fig7/BFS/baseline"]
        assert cached["cycles_per_sec"] is None  # no time was spent
        failed = jobs["fig7/SAD/regmutex"]
        assert failed["failed"] and failed["failure_kind"] == "deadlock"
        assert failed["attempts"] == 2

    def test_write_load_round_trip(self, tmp_path):
        path = write_perf_artifact("round trip", _session(),
                                   directory=str(tmp_path))
        assert path.endswith("BENCH_round-trip.json")
        loaded = load_perf_artifact(path)
        assert loaded == perf_artifact("round trip", _session())

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ValueError, match="schema-1"):
            load_perf_artifact(str(path))

    def test_load_rejects_missing_sections(self, tmp_path):
        path = tmp_path / "BENCH_partial.json"
        path.write_text(json.dumps({"schema": 1, "label": "x",
                                    "totals": {}, "cache": {}}))
        with pytest.raises(ValueError, match="jobs"):
            load_perf_artifact(str(path))

    def test_cycles_per_sec_property(self):
        t = _session()
        by_label = {j.label: j for j in t.timings}
        assert by_label["fig7/BFS/regmutex"].cycles_per_sec == \
            pytest.approx(500_000.0)
        assert by_label["fig7/BFS/baseline"].cycles_per_sec is None
        assert by_label["fig7/SAD/regmutex"].cycles_per_sec is None


def _artifact(cps):
    t = SessionTelemetry(workers=1)
    a = perf_artifact("x", t)
    a["totals"]["cycles_per_sec"] = cps
    return a


class TestComparePerfArtifacts:
    def test_ok_within_threshold(self):
        c = compare_perf_artifacts(_artifact(95.0), _artifact(100.0),
                                   warn_threshold=0.15)
        assert c.ok and c.status == STATUS_OK
        assert not c.messages
        assert c.current == pytest.approx(95.0)
        assert c.baseline == pytest.approx(100.0)

    def test_regressed_past_threshold(self):
        c = compare_perf_artifacts(_artifact(80.0), _artifact(100.0),
                                   warn_threshold=0.15)
        assert c.regressed and c.status == STATUS_REGRESSED
        assert c.messages

    def test_faster_is_never_regressed(self):
        assert compare_perf_artifacts(_artifact(500.0), _artifact(100.0)).ok

    @pytest.mark.parametrize("cur,base", [
        (None, 100.0), (100.0, None), (None, None), (0.0, 100.0),
    ])
    def test_missing_throughput_is_inconclusive_not_regressed(
            self, cur, base):
        # Regression: a fully-cached run (cycles_per_sec None) used to
        # be reported as a failure and fail the CI gate.  "No data" is
        # a distinct verdict callers must be able to tell from
        # "slower".
        c = compare_perf_artifacts(_artifact(cur), _artifact(base))
        assert c.inconclusive and c.status == STATUS_INCONCLUSIVE
        assert not c.regressed
        assert c.messages  # still says *why* it could not compare
