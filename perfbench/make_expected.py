"""Regenerate ``perfbench/expected.json``, the expected-outcome table.

    python3 perfbench/make_expected.py

Run from the checkout root.  Each job runs once, in this process, the
way an orchestrator worker runs it, with the run-store settings (seed,
``target_ctas_per_sm``) its workload uses.  Regenerate only on purpose:
after a change that is meant to alter simulated results.

An exception that escapes a job is an error here, except for the labels
in ``KNOWN_DEFECTS``: those are recorded as open defects, which every
benchmark run counts as errors until a fix records their outcome.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.harness.experiments import figure_spec  # noqa: E402
from repro.harness.orchestrator import _simulate  # noqa: E402
from repro.harness.runner import ExperimentRunner  # noqa: E402
from repro.harness.spec import JobFailure, JobResults, JobSpec  # noqa: E402
from repro.harness.spec import TechniqueSpec  # noqa: E402
from repro.service.daemon import ServiceConfig  # noqa: E402
from repro.workloads.suite import APPLICATIONS  # noqa: E402

import loads  # noqa: E402
from outcomes import EXPECTED_PATH, encode_outcome, model_metrics  # noqa: E402

# The RegMutex compiler's index compaction raises CompactionError (a
# ValueError) for SAD on small register files; the orchestrator lets it
# escape run_jobs, so the whole (app, shape) batch loses its outcomes.
_COMPACTION = ("CompactionError escapes run_jobs: SAD's compaction finds no "
               "conflict-free base slot on this register file")
KNOWN_DEFECTS = {
    f"SAD/{shape.name}/{kind}": _COMPACTION
    for shape in loads.SHORT_SHAPES for kind in ("regmutex", "regmutex-paired")
}


def _outcome(job: JobSpec, seed: int, target: int):
    try:
        record, failure, _, _ = _simulate(job, seed, target)
    except Exception as exc:
        if job.label not in KNOWN_DEFECTS:
            raise
        return {"defect": f"{KNOWN_DEFECTS[job.label]} "
                          f"({type(exc).__name__}: {exc})"}, None
    outcome = record if failure is None else JobFailure(failure[1],
                                                        kind=failure[0])
    return encode_outcome(outcome), outcome


def _figure_entry(figures: dict, seed: int, target: int) -> dict:
    jobs, rows, outcomes = {}, {}, {}
    for name, apps in figures.items():
        spec = figure_spec(name, apps)
        for job in spec.jobs:
            if job.label not in jobs:
                jobs[job.label], outcomes[job] = _outcome(job, seed, target)
                print(job.label, flush=True)
        if name in ("fig9a", "fig9b"):
            rows[name] = spec.build_rows(
                JobResults({j: outcomes[j] for j in spec.jobs}))
    return {"jobs": jobs, "model": model_metrics(rows)}


def main() -> int:
    default = ExperimentRunner()
    service = ServiceConfig()
    table = {
        "fig9-cold": _figure_entry(loads.FIG9_APPS, default.seed,
                                   loads.FIG9_TARGET_CTAS),
        "service-mixed": _figure_entry(loads.SERVICE_APPS, service.seed,
                                       service.target_ctas_per_sm),
    }
    jobs = {}
    for app in APPLICATIONS:
        for shape in loads.SHORT_SHAPES:
            for kind in loads.SHORT_KINDS:
                job = JobSpec(app, shape, TechniqueSpec(kind))
                jobs[job.label], _ = _outcome(job, default.seed,
                                              loads.SHORT_TARGET_CTAS)
                print(job.label, flush=True)
    table["short-jobs"] = {"jobs": jobs}
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
