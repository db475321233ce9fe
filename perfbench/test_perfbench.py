"""Tests of the benchmark's own machinery (run: python3 -m pytest perfbench).

They need no simulation: the outcome check runs on records taken from
the committed expected table, and the tracer on toy functions.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.harness.runner import RunRecord  # noqa: E402
from repro.harness.spec import JobFailure  # noqa: E402

import metrics  # noqa: E402
from outcomes import (  # noqa: E402
    FAILED,
    OK,
    WRONG,
    OutcomeChecker,
    classify,
    load_expected,
)
from tracing import Tracer, batch_queue_times, layer_metrics  # noqa: E402

TABLE = load_expected()


def _a_record_entry(workload: str = "fig9-cold"):
    for label, entry in sorted(TABLE[workload]["jobs"].items()):
        if "record" in entry:
            return label, entry
    raise AssertionError("no record in the expected table")


def test_expected_record_passes_and_tampered_record_fails():
    label, entry = _a_record_entry()
    record = RunRecord(**entry["record"])
    checker = OutcomeChecker(TABLE, "fig9-cold")
    assert checker.check(label, record) == OK
    tampered = dataclasses.replace(record, cycles=record.cycles + 1)
    assert checker.check(label, tampered) == WRONG
    assert checker.tally.errors == 1
    assert checker.tally.wrong_labels == [label]
    assert not checker.tally.correct


def test_missing_or_failed_outcome_is_an_error_not_a_wrong_answer():
    label, entry = _a_record_entry("short-jobs")
    checker = OutcomeChecker(TABLE, "short-jobs")
    assert checker.check(label, None) == FAILED
    assert checker.check(label, JobFailure("x", kind="timeout")) == FAILED
    assert checker.tally.errors == 2
    assert checker.tally.correct


def test_expected_failure_kind_must_match():
    entry = {"failure": "placement"}
    assert classify(entry, JobFailure("no fit", kind="placement")) == OK
    assert classify(entry, JobFailure("boom", kind="runtime-error")) == FAILED
    label, rec = _a_record_entry()
    assert classify(entry, RunRecord(**rec["record"])) == WRONG


def test_unknown_label_is_wrong():
    label, entry = _a_record_entry()
    checker = OutcomeChecker(TABLE, "fig9-cold")
    assert checker.check("NoSuchApp/x/baseline",
                         RunRecord(**entry["record"])) == WRONG


def test_model_values_must_repeat_exactly():
    checker = OutcomeChecker(TABLE, "fig9-cold")
    checker.check_model(dict(checker.model))
    assert checker.tally.correct
    bumped = dict(checker.model)
    key = sorted(bumped)[0]
    bumped[key] += 1e-6
    checker.check_model(bumped)
    assert not checker.tally.correct


def test_known_defect_stays_an_error_whatever_the_outcome():
    defects = {label for label, entry in TABLE["short-jobs"]["jobs"].items()
               if "defect" in entry}
    assert defects == {f"SAD/{shape}/{kind}"
                       for shape in ("short-8k", "short-6k")
                       for kind in ("regmutex", "regmutex-paired")}
    label = sorted(defects)[0]
    entry = TABLE["short-jobs"]["jobs"][label]
    assert classify(entry, JobFailure("x", kind="placement")) == FAILED


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {
        "fig9-cold", "short-jobs", "service-mixed"}


def test_model_names_follow_the_paper_targets():
    from repro.dashboard.figures import PAPER_TARGETS

    expected = [f"model.{t.figure}.{t.metric}{suffix}"
                for t in PAPER_TARGETS if t.figure in ("fig9a", "fig9b")
                for suffix in ("", "_err")]
    assert list(metrics.MODEL_NAMES) == expected


def test_tracer_self_time_job_ids_and_uninstall():
    class Layer:
        def outer(self, job):
            time.sleep(0.02)
            return self.inner()

        def inner(self):
            time.sleep(0.01)
            return 7

    class Job:
        label = "A/cfg/baseline"

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.patch(Layer, "outer", "harness.job", job_of=lambda a: a[1].label)
    tracer.patch(Layer, "inner", "sim.sm_run")
    assert Layer().outer(Job()) == 7
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original

    by_name = {s.name: s for s in tracer.spans}
    outer, inner = by_name["harness.job"], by_name["sim.sm_run"]
    assert inner.parent == outer.id
    assert inner.job == outer.job == "A/cfg/baseline"
    got = layer_metrics(tracer.spans)
    assert got["jobs.computed"] == 1.0
    assert got["sim.sm_run.calls_per_job"] == 1.0
    assert abs(got["sim.sm_run.s"] - inner.seconds) < 1e-9
    waits, runs = batch_queue_times(tracer.spans)
    assert waits == [] and runs == [outer.seconds]
