"""Expected-outcome table and the check every benchmark run applies.

``expected.json`` maps each workload to the outcome every job label must
produce (the RunRecord fields, or the typed ``JobFailure`` kind of a job
that cannot run) plus the exact simulated Figure 9 headline values.
``make_expected.py`` regenerates it; a change to simulated timing must
regenerate it on purpose.

A job outcome is classified as:

* ``ok``     -- exactly the expected record or failure kind;
* ``failed`` -- no usable outcome: missing (lost batch, escaped
  exception, missed deadline), an unexpected failure kind, or a label
  whose entry records a known open defect;
* ``wrong``  -- a record that differs from the expected one, a record
  where a failure was expected, or a label the table does not know.

``failed`` and ``wrong`` both count against ``error_frac``; ``wrong``
also makes the run's ``correct`` false.
"""

from __future__ import annotations

import dataclasses
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Figure 9 headline metrics reported as model.* (simulated, not speeds).
MODEL_FIGURES = ("fig9a", "fig9b")


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def encode_outcome(outcome) -> dict:
    """Table form of one outcome: a record's fields or a failure kind."""
    # Duck-typed so records rebuilt from the service wire compare alike.
    if dataclasses.is_dataclass(outcome) and hasattr(outcome, "cycles"):
        return {"record": dataclasses.asdict(outcome)}
    return {"failure": outcome.kind}


def classify(expected: dict | None, outcome) -> str:
    """Classify ``outcome`` (record, JobFailure or None) against its entry."""
    if expected is None:
        return WRONG
    if outcome is None or "defect" in expected:
        return FAILED
    actual = encode_outcome(outcome)
    if "record" in actual:
        return OK if actual == expected else WRONG
    if "record" in expected:
        return FAILED
    return OK if actual == expected else FAILED


@dataclasses.dataclass
class Tally:
    """Outcome counts for one run of one workload."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    wrong_labels: list = dataclasses.field(default_factory=list)
    model_mismatches: list = dataclasses.field(default_factory=list)

    def add(self, label: str, verdict: str) -> None:
        self.attempted += 1
        if verdict == FAILED:
            self.failed += 1
        elif verdict == WRONG:
            self.wrong += 1
            self.wrong_labels.append(label)

    @property
    def errors(self) -> int:
        return self.failed + self.wrong

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.model_mismatches


class OutcomeChecker:
    """Checks one workload's job outcomes and model values."""

    def __init__(self, table: dict, workload: str) -> None:
        entry = table.get(workload, {})
        self.jobs: dict = entry.get("jobs", {})
        self.model: dict = entry.get("model", {})
        self.tally = Tally()

    def check(self, label: str, outcome) -> str:
        verdict = classify(self.jobs.get(label), outcome)
        self.tally.add(label, verdict)
        return verdict

    def check_model(self, model: dict) -> None:
        if model != self.model:
            self.tally.model_mismatches.append(model)


def model_metrics(rows_by_figure: dict) -> dict[str, float]:
    """``model.<figure>.<metric>`` and ``..._err`` (measured - paper)."""
    from repro.dashboard.figures import PAPER_TARGETS, summarize_figures

    summary = summarize_figures(rows_by_figure)
    paper = {(t.figure, t.metric): t.paper for t in PAPER_TARGETS}
    out: dict[str, float] = {}
    for figure in MODEL_FIGURES:
        for metric, value in summary.get(figure, {}).items():
            if (figure, metric) not in paper:
                continue
            out[f"model.{figure}.{metric}"] = value
            out[f"model.{figure}.{metric}_err"] = round(
                value - paper[(figure, metric)], 6)
    return out
