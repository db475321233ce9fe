"""JobExecutor policies on thread pools with a stand-in ``_simulate``.

The executor resolves ``orchestrator._simulate`` per dispatch, so these
tests swap in a fake worker function and drive the retry, deadline and
worker-cap paths in milliseconds, without processes or simulations —
coordinating both on the test's thread (the batch path) and on a
background thread (the daemon's).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.arch.config import fermi_like
from repro.harness import orchestrator
from repro.harness.orchestrator import JobExecutor
from repro.harness.spec import JobFailure, JobSpec, TechniqueSpec

CFG = fermi_like(name="executor-test", num_sms=1)


def _job(app: str) -> JobSpec:
    return JobSpec(app, CFG, TechniqueSpec("baseline"))


class _BrokenPool(ThreadPoolExecutor):
    """A pool that broke before the executor heard about it."""

    def submit(self, *args, **kwargs):
        raise BrokenProcessPool("a worker died")


class _CountingPool(ThreadPoolExecutor):
    """Records the most calls it held at once (queued or running)."""

    def __init__(self, max_workers):
        super().__init__(max_workers)
        self.held, self.peak = set(), 0

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self.held.add(future)
        self.peak = max(self.peak, len(self.held))
        future.add_done_callback(self.held.discard)
        return future


def _executor(pools, max_retries=1) -> JobExecutor:
    return JobExecutor(lambda: next(pools), seed=7, target_ctas_per_sm=2,
                       max_retries=max_retries, retry_backoff=0.0)


def test_pool_broken_at_submit_retries_on_the_next_generation(monkeypatch):
    monkeypatch.setattr(orchestrator, "_simulate",
                        lambda job, *args: (job.app, None, 0.0, None))
    pools = iter([_BrokenPool(1), ThreadPoolExecutor(1)])
    with _executor(pools) as executor:
        executor.start()
        done = executor.submit(_job("BFS"), "k" * 16).result(timeout=10)
        assert executor.generation == 1
    assert (done.result, done.attempts) == ("BFS", 2)


def test_job_queued_behind_a_hung_one_runs_on_a_fresh_pool(monkeypatch):
    """One worker: the pool is never handed more than it can run, so
    the job queued behind the hung one waits in the executor and, when
    the hung job times out, runs on the next generation uncharged."""
    release = threading.Event()

    def fake(job, *args):
        if job.app == "Hung":
            release.wait(10)
        return job.app, None, 0.0, None

    monkeypatch.setattr(orchestrator, "_simulate", fake)
    first, second = _CountingPool(1), _CountingPool(1)
    try:
        with _executor(iter([first, second])) as executor:
            hung = executor.submit(_job("Hung"), "h" * 16, timeout=0.2)
            queued = executor.submit(_job("BFS"), "q" * 16)
            assert list(executor.as_completed([hung, queued])) == [
                hung, queued,
            ]
            assert executor.generation == 1
    finally:
        release.set()
    timed_out, done = hung.result(), queued.result()
    assert isinstance(timed_out.result, JobFailure)
    assert timed_out.result.kind == "timeout"
    assert (done.result, done.attempts) == ("BFS", 1)
    assert (first.peak, second.peak) == (1, 1)


@pytest.mark.parametrize("retries,expected", ((0, 1), (1, 2)))
def test_crash_gives_up_after_max_retries(monkeypatch, retries, expected):
    monkeypatch.setattr(orchestrator, "_simulate",
                        lambda job, *args: (job.app, None, 0.0, None))
    pools = iter([_BrokenPool(1) for _ in range(3)])
    with _executor(pools, max_retries=retries) as executor:
        future = executor.submit(_job("BFS"), "k" * 16)
        done, = executor.as_completed([future])
    done = done.result()
    assert isinstance(done.result, JobFailure)
    assert done.result.kind == "worker-crash"
    assert done.attempts == done.result.attempts == expected
