"""History-journal tests: round trip, torn tail, corrupt lines."""

import json

from repro.dashboard.history import (
    HistoryEntry,
    append_history,
    default_machine,
    load_history,
)
from repro.harness.telemetry import (
    MODE_CACHED,
    MODE_POOL,
    JobTiming,
    SessionTelemetry,
)
from repro.observe.perf import perf_artifact


def _artifact(label="unit", cycles=1_000_000, seconds=2.0):
    t = SessionTelemetry(workers=1)
    t.timings.append(
        JobTiming(f"{label}/job", seconds, MODE_POOL, cycles=cycles)
    )
    return perf_artifact(label, t)


class TestAppendLoad:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        written = append_history(path, _artifact(), sha="abc123",
                                 timestamp=1000.0, machine="box",
                                 engine="scan")
        [loaded] = load_history(path)
        assert loaded == written
        assert loaded.sha == "abc123"
        assert loaded.machine == "box"
        assert loaded.engine == "scan"
        assert loaded.cycles_per_sec == 500_000.0
        assert loaded.series == "scan"  # engine wins over label

    def test_appends_preserve_order(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        for i in range(3):
            append_history(path, _artifact(), sha=f"sha{i}",
                           timestamp=float(i), machine="box")
        assert [e.sha for e in load_history(path)] == \
            ["sha0", "sha1", "sha2"]

    def test_defaults(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        entry = append_history(path, _artifact("lbl"), sha="s")
        assert entry.machine == default_machine()
        assert entry.engine is None
        assert entry.label == "lbl"
        assert entry.series == "lbl"  # no engine -> label is the series

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "benchmarks" / "history.jsonl")
        append_history(path, _artifact(), sha="s")
        assert len(load_history(path)) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []


class TestDurability:
    def test_torn_tail_is_left_unconsumed(self, tmp_path):
        # A writer killed mid-append leaves a final line with no
        # newline; the loader must keep everything before it and
        # ignore the torn fragment — same discipline as the run-store
        # journal.
        path = str(tmp_path / "history.jsonl")
        append_history(path, _artifact(), sha="good1", timestamp=1.0)
        append_history(path, _artifact(), sha="good2", timestamp=2.0)
        with open(path) as fh:
            intact = fh.read()
        torn = intact + intact.splitlines()[0][: len(intact) // 3]
        with open(path, "w") as fh:
            fh.write(torn)
        assert [e.sha for e in load_history(path)] == ["good1", "good2"]

    def test_corrupt_middle_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(path, _artifact(), sha="good1", timestamp=1.0)
        with open(path, "a") as fh:
            fh.write("{not json at all\n")
            fh.write('{"schema": 1, "valid": "json, wrong shape"}\n')
        append_history(path, _artifact(), sha="good2", timestamp=2.0)
        assert [e.sha for e in load_history(path)] == ["good1", "good2"]

    def test_checksum_mismatch_is_skipped(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(path, _artifact(), sha="keep", timestamp=1.0)
        append_history(path, _artifact(), sha="tamper", timestamp=2.0)
        lines = open(path).read().splitlines()
        doctored = json.loads(lines[1])
        doctored["sha"] = "evil"  # payload no longer matches checksum
        with open(path, "w") as fh:
            fh.write(lines[0] + "\n")
            fh.write(json.dumps(doctored) + "\n")
        assert [e.sha for e in load_history(path)] == ["keep"]

    def test_unknown_schema_is_skipped(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        append_history(path, _artifact(), sha="keep", timestamp=1.0)
        line = json.loads(open(path).read().splitlines()[0])
        line["schema"] = 99
        with open(path, "a") as fh:
            fh.write(json.dumps(line) + "\n")
        assert [e.sha for e in load_history(path)] == ["keep"]


class TestDerivedViews:
    def test_cached_session_has_no_throughput(self):
        t = SessionTelemetry(workers=1)
        t.timings.append(JobTiming("a", 0.0, MODE_CACHED, cycles=500_000))
        entry = HistoryEntry(sha="s", timestamp=0.0, label="l",
                             machine="m", engine=None,
                             artifact=perf_artifact("l", t))
        assert entry.cycles_per_sec is None
        assert entry.cache_hit_rate == 1.0

    def test_figures_and_failures_pass_through(self):
        art = _artifact()
        art["figures"] = {"fig7": {"mean_cycle_reduction": 0.13}}
        art["failure_kinds"] = {"deadlock": 2}
        art["totals"]["failures"] = 2
        entry = HistoryEntry(sha="s", timestamp=0.0, label="l",
                             machine="m", engine=None, artifact=art)
        assert entry.figures == {"fig7": {"mean_cycle_reduction": 0.13}}
        assert entry.failure_kinds == {"deadlock": 2}
        assert entry.failures == 2
