"""Orchestrator failure regimes: retry, attribution, timeout, interrupt,
propagation."""

import json
import multiprocessing
import os

import pytest

from repro.arch.config import fermi_like
from repro.errors import InterruptedRun
from repro.harness import orchestrator
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.spec import JobFailure, JobSpec, TechniqueSpec

CFG = fermi_like(
    name="failure-test", num_sms=1, max_warps_per_sm=16, max_ctas_per_sm=4,
    max_threads_per_sm=512, registers_per_sm=8192,
    dram_latency=60, l1_hit_latency=8,
)

# Too few registers for any app kernel: placement deterministically fails.
UNPLACEABLE_CFG = fermi_like(
    name="unplaceable", num_sms=1, max_warps_per_sm=16, max_ctas_per_sm=4,
    max_threads_per_sm=512, registers_per_sm=64,
    dram_latency=60, l1_hit_latency=8,
)


def _job(technique: TechniqueSpec, config=CFG, app="Gaussian") -> JobSpec:
    return JobSpec(app=app, config=config, technique=technique)


def _orchestrator(**kwargs) -> Orchestrator:
    runner = ExperimentRunner(target_ctas_per_sm=2, seed=7)
    return Orchestrator(runner, **kwargs)


class TestFailurePropagation:
    def test_placement_failure_becomes_typed_job_failure(self):
        job = _job(TechniqueSpec.of("baseline"), config=UNPLACEABLE_CFG)
        orch = _orchestrator(workers=1)
        outcome = orch.run_jobs([job])[job]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "placement"
        assert outcome.attempts == 1
        assert "does not fit" in outcome.message

    def test_one_failure_does_not_sink_the_batch(self):
        bad = _job(TechniqueSpec.of("baseline"), config=UNPLACEABLE_CFG)
        good = _job(TechniqueSpec.of("baseline"))
        orch = _orchestrator(workers=1)
        outcomes = orch.run_jobs([bad, good])
        assert isinstance(outcomes[bad], JobFailure)
        assert isinstance(outcomes[good], RunRecord)

    @pytest.mark.parametrize("workers", (1, 2))
    def test_compile_failure_becomes_typed_job_failure(self, workers):
        """SAD on the 8K test SM: baseline, OWF and RFV do not fit, and
        RegMutex's compaction finds no safe slot assignment.  Every job
        still gets a typed outcome, inline and pooled — the compiler
        error does not escape and sink the batch."""
        kinds = ("baseline", "regmutex", "regmutex-paired", "owf", "rfv")
        jobs = [_job(TechniqueSpec(kind), app="SAD") for kind in kinds]
        outcomes = _orchestrator(workers=workers).run_jobs(jobs)
        assert all(isinstance(o, JobFailure) for o in outcomes.values())
        assert {job.technique.kind: outcomes[job].kind for job in jobs} == {
            "baseline": "placement", "owf": "placement", "rfv": "placement",
            "regmutex": "compile", "regmutex-paired": "compile",
        }
        assert all(o.attempts == 1 for o in outcomes.values())

    def test_failure_kind_reaches_telemetry(self):
        job = _job(TechniqueSpec.of("baseline"), config=UNPLACEABLE_CFG)
        orch = _orchestrator(workers=1)
        orch.run_jobs([job])
        assert orch.telemetry.failures == 1
        assert orch.telemetry.failures_by_kind() == {"placement": 1}


@pytest.mark.faults
class TestWorkerCrashRetry:
    def test_transient_crash_is_retried_and_batch_completes(self, tmp_path):
        marker = str(tmp_path / "crash.marker")
        crash = _job(TechniqueSpec.of(
            "faulty-worker", mode="worker-crash", marker_path=marker
        ))
        bystander = _job(TechniqueSpec.of("baseline"))
        orch = _orchestrator(workers=2, max_retries=2, retry_backoff=0.01)
        outcomes = orch.run_jobs([crash, bystander])
        # First dispatch dies (marker written), retry runs clean.
        assert isinstance(outcomes[crash], RunRecord)
        assert isinstance(outcomes[bystander], RunRecord)
        assert orch.telemetry.retries >= 1

    def test_deterministic_sim_error_is_not_retried(self):
        job = _job(TechniqueSpec.of("faulty-worker", mode="sim-error"))
        orch = _orchestrator(workers=2, max_retries=2, retry_backoff=0.01)
        outcome = orch.run_jobs([job])[job]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "simulation-error"
        assert outcome.attempts == 1  # exactly one dispatch

    def test_sim_error_in_inline_mode_matches_pool_mode(self):
        job = _job(TechniqueSpec.of("faulty-worker", mode="sim-error"))
        orch = _orchestrator(workers=1)
        outcome = orch.run_jobs([job])[job]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "simulation-error"


@pytest.mark.faults
class TestJobTimeout:
    def test_hung_worker_times_out(self):
        job = _job(TechniqueSpec.of(
            "faulty-worker", mode="worker-sleep", delay_seconds=5.0
        ))
        orch = _orchestrator(workers=2, job_timeout=0.5, max_retries=0)
        outcome = orch.run_jobs([job])[job]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "timeout"
        assert orch.telemetry.failures_by_kind() == {"timeout": 1}

    def test_per_job_timeout_overrides_session_default(self):
        """A per-job timeout must cut one job's budget without touching
        its siblings: the hung job fails typed while the sibling on the
        same pool round completes normally."""
        hung = _job(TechniqueSpec.of(
            "faulty-worker", mode="worker-sleep", delay_seconds=8.0
        ))
        sibling = _job(TechniqueSpec.of("baseline"))
        orch = _orchestrator(workers=2, job_timeout=120.0, max_retries=0)
        outcomes = orch.run_jobs([hung, sibling], timeouts={hung: 0.5})
        assert isinstance(outcomes[hung], JobFailure)
        assert outcomes[hung].kind == "timeout"
        assert isinstance(outcomes[sibling], RunRecord)
        assert orch.telemetry.failures_by_kind() == {"timeout": 1}

    def test_nonpositive_per_job_timeout_rejected(self):
        job = _job(TechniqueSpec.of("baseline"))
        orch = _orchestrator(workers=2)
        with pytest.raises(ValueError, match="timeout"):
            orch.run_jobs([job], timeouts={job: 0.0})

    def test_bad_timeout_is_rejected_before_any_dispatch(self):
        """The budget check runs before the pool exists: no worker
        outlives the ValueError (it would keep the interpreter from
        exiting until its job finished) and the session never starts."""
        sleeper = _job(TechniqueSpec.of(
            "faulty-worker", mode="worker-sleep", delay_seconds=3.0
        ))
        job = _job(TechniqueSpec.of("baseline"))
        orch = _orchestrator(workers=2)
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="timeout"):
            orch.run_jobs([sleeper, job], timeouts={job: 0.0})
        assert set(multiprocessing.active_children()) <= before
        assert orch.telemetry._started_at is None
        assert orch.telemetry.timings == []


class TestInterrupt:
    def test_ctrl_c_flushes_finished_work_and_cleans_up(
        self, tmp_path, monkeypatch
    ):
        """Ctrl-C on the second of two inline jobs: a typed
        InterruptedRun, the first record flushed to the cache file,
        telemetry closed, and the auto-created checkpoint dir removed."""
        cache = tmp_path / "cache.json"
        runner = ExperimentRunner(target_ctas_per_sm=2, seed=7,
                                  cache_path=str(cache))
        # A huge interval owns a tempdir without writing checkpoints.
        orch = Orchestrator(runner, workers=1, checkpoint_interval=10**9)
        owned = orch.checkpoint_dir
        assert os.path.isdir(owned)
        real = orchestrator._simulate
        calls = []

        def interrupted_second(job, *args):
            calls.append(job)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(job, *args)

        monkeypatch.setattr(orchestrator, "_simulate", interrupted_second)
        first = _job(TechniqueSpec.of("baseline"))
        second = _job(TechniqueSpec.of("regmutex"))
        with pytest.raises(InterruptedRun) as info:
            orch.run_jobs([first, second])
        err = info.value
        assert (err.completed, err.total, err.flushed) == (1, 2, True)
        entries = json.loads(cache.read_text())["entries"]
        assert [e["record"]["cycles"] for e in entries.values()] == [
            orch.telemetry.timings[0].cycles
        ]
        assert orch.telemetry._started_at is None
        assert orch.telemetry.wall_seconds > 0
        assert not os.path.exists(owned)


class TestValidation:
    def test_bad_job_timeout_rejected(self):
        with pytest.raises(ValueError, match="job_timeout"):
            _orchestrator(workers=1, job_timeout=0.0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            _orchestrator(workers=1, max_retries=-1)
