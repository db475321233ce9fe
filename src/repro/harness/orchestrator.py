"""Experiment orchestration: dedup, parallel dispatch, cache merge.

The orchestrator sits between declarative :class:`ExperimentSpec`s and
the :class:`ExperimentRunner`:

1. **Deduplicate.**  The figure suite re-requests many jobs (every
   figure needs its apps' baselines); the union of all specs' jobs is
   collected once, in first-declared order.
2. **Dispatch.**  Jobs missing from the run store (looked up by the
   runner's memoized :meth:`ExperimentRunner.job_key`) are simulated —
   in-process when ``workers=1``, otherwise through a
   :class:`JobExecutor` (the execution core the service daemon shares)
   over one ``ProcessPoolExecutor`` per batch.  Each (kernel, config,
   technique) run is independent and CPU-bound, so the suite's wall
   clock scales with the worker count; results are bit-identical to
   serial execution because a worker rebuilds the exact same (kernel,
   technique, seed) triple and runs the same deterministic simulator.
3. **Merge.**  Worker records are installed into the runner's memo
   under the same content-hash keys ``runner.run`` would use, then the
   cache is persisted once (atomic write) for the whole session.

Failure handling distinguishes four regimes:

* **Deterministic errors** (deadlock, cycle limit, invariant
  violation, placement — any :class:`SimulationError` — and compiler
  pass failures, any :class:`CompileError`): re-running the
  same deterministic job reproduces them bit-for-bit, so they are
  *never* retried.  They surface as a typed :class:`JobFailure` whose
  ``kind`` comes from the exception taxonomy.
* **Worker crashes** (a pool process dies — OOM kill, preemption,
  hard fault): transient and environmental.  The broken pool poisons
  every unfinished future without attributing the crash, so each
  poisoned job is resubmitted to a fresh pool, with exponential
  backoff, up to ``max_retries`` extra attempts each.  With
  checkpointing on (``checkpoint_interval > 0``), a resubmitted job
  *resumes* from whatever checkpoints the dead worker flushed rather
  than restarting at cycle 0 — bit-identical either way, so retries
  and cold runs share one cache key.
* **Operator interrupts** (SIGINT / Ctrl-C): in-flight futures are
  cancelled, workers terminated, everything already computed is
  flushed to the cache along with partial telemetry, and a typed
  :class:`repro.errors.InterruptedRun` carrying the completed/total
  counts replaces the raw traceback.
* **Timeouts**: each job carries its own wall-clock deadline — a
  per-job override (``run_jobs(..., timeouts=...)``, the path a service
  client's per-submit timeout rides) or the session ``job_timeout``
  default.  An overdue job fails with kind ``timeout`` while on-time
  siblings finish undisturbed on their first attempt; the wedged
  worker is killed once they are done (:meth:`JobExecutor._recycle`).
  Not retried: a hang long enough to trip the watchdog would cost
  another full timeout to re-confirm.

Per-job wall time, attempts, cache hits/misses, failure kinds, and
worker utilization are recorded in a :class:`SessionTelemetry`
(``repro bench`` prints it).
"""

from __future__ import annotations

import os
import queue
import shutil
import tempfile
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
)
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

from repro.errors import (
    FAILURE_RUNTIME,
    CompileError,
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    InterruptedRun,
    SimulationError,
)
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    JobFailure,
    JobResults,
    JobSpec,
    materialize_job,
)
from repro.harness.telemetry import (
    MODE_CACHED,
    MODE_INLINE,
    MODE_POOL,
    JobTiming,
    SessionTelemetry,
)


def ordered_unique_jobs(jobs: Iterable[JobSpec]) -> tuple[JobSpec, ...]:
    """Deduplicate a job stream, keeping first-declared order.

    The batch-level dedup both the orchestrator and the service daemon
    apply before touching the run store: a figure suite (or a client
    submission spanning several figures) re-requests many jobs, and the
    union is computed once, in the order jobs first appeared.
    """
    seen: dict[JobSpec, None] = {}
    for job in jobs:
        seen.setdefault(job)
    return tuple(seen)


def _simulate(
    job: JobSpec,
    seed: int,
    target_ctas_per_sm: int,
    checkpoint_dir: str | None = None,
    checkpoint_interval: int = 0,
):
    """Worker-process entry point: run one job from scratch or resume it.

    Builds a throwaway cache-less runner so the grid sizing, seeding,
    and record normalization are exactly the serial path's; returns
    ``(record | None, (kind, message) | None, seconds, resumed_cycle)``.
    Failures are returned (not raised) so the parent can distinguish a
    deterministic simulation error from the worker process itself dying.

    With ``checkpoint_dir`` set, the simulation writes periodic
    checkpoints there and — after a crashed or timed-out predecessor —
    resumes from any surviving ones; ``resumed_cycle`` reports the
    deepest such resume point (None for a cold start).  Resume is
    bit-identical to recomputation, so the record is cache-equivalent
    either way.
    """
    start = time.perf_counter()
    runner = ExperimentRunner(
        target_ctas_per_sm=target_ctas_per_sm, seed=seed
    )
    kernel, technique, priority = materialize_job(job)
    resume_report: dict = {}
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
    try:
        record = runner.run(
            kernel, job.config, technique, scheduler_priority=priority,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
            resume_report=resume_report,
        )
        failure = None
    except (SimulationError, CompileError) as exc:
        record, failure = None, (exc.kind, str(exc))
    except RuntimeError as exc:
        record, failure = None, (FAILURE_RUNTIME, str(exc))
    resumed = max(resume_report.get("resumed", {}).values(), default=None)
    return record, failure, time.perf_counter() - start, resumed


def _job_checkpoint_dir(root: str | None, interval: int, key: str):
    """Per-job checkpoint subdirectory (keyed like the run cache)."""
    if root is None or interval <= 0:
        return None
    return os.path.join(root, key[:16])


class JobOutcome(NamedTuple):
    """The final word on one job: its record or typed failure, the last
    attempt's seconds, the dispatches it cost, and the cycle the last
    attempt resumed from (None for a cold start)."""

    result: RunRecord | JobFailure
    seconds: float
    attempts: int = 1
    resumed_from_cycle: int | None = None

    @classmethod
    def of(cls, simulated: tuple, attempts: int = 1) -> "JobOutcome":
        """Wrap one :func:`_simulate` return value."""
        record, failure, seconds, resumed = simulated
        if failure is not None:
            kind, message = failure
            record = JobFailure(message, kind=kind, attempts=attempts)
        return cls(record, seconds, attempts, resumed)

    @property
    def failed(self) -> bool:
        return isinstance(self.result, JobFailure)

    def timing(self, label: str, mode: str) -> JobTiming:
        return JobTiming(
            label, self.seconds, mode,
            failed=self.failed,
            failure_kind=self.result.kind if self.failed else None,
            attempts=self.attempts,
            cycles=None if self.failed else self.result.cycles,
            resumed_from_cycle=self.resumed_from_cycle,
        )


@dataclass(eq=False)
class _Ticket:
    """One submitted job's dispatch state (owned by the executor)."""

    job: JobSpec
    key: str
    timeout: float | None
    future: Future
    attempt: int = 1
    gen: int | None = None        # pool generation running this attempt
    inner: Future | None = None   # that pool's future for this attempt
    deadline: float | None = None
    not_before: float = 0.0       # earliest re-dispatch after a crash


def _release(pool: Executor, kill: bool) -> None:
    """Shut a pool down; with ``kill``, terminate its workers instead of
    joining them.  A wedged worker never exits, and joining it — here or
    in the pool's atexit hook — would block interpreter shutdown for as
    long as it stays wedged.  Shutdown is requested first so the pool
    drops cancelled work before its workers die."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=not kill, cancel_futures=True)
    for proc in processes if kill else ():
        proc.terminate()


_STOP = object()


class JobExecutor:
    """Runs jobs on pool generations; the orchestrator and the daemon
    share it.

    :meth:`submit` returns a future resolving to one :class:`JobOutcome`
    (never to ``BrokenExecutor``).  The executor owns each job's
    checkpoint directory, crash retry with backoff, deadline, pool
    recycling and worker kills.  ``pool_factory`` builds each pool
    generation — any ``concurrent.futures.Executor`` — and so picks the
    start method.

    A pool is handed at most as many attempts as it has workers
    (``_max_workers``; one for an executor that does not say); the rest
    wait here.  A ``ProcessPoolExecutor`` marks calls it has queued
    RUNNING before any worker takes them, so without this cap a pool
    future that cannot be cancelled might never have started.  With it,
    every attempt handed over has a worker: its deadline starts there,
    and a recycle strands no job behind a wedged worker.

    A coordinating loop turns completions, deadlines and backoff delays
    into outcomes, under one lock.  The batch path runs it on the calling
    thread in :meth:`as_completed`, so a fork-context pool always forks
    from the thread that owns the batch; the daemon runs it on a
    background thread from :meth:`start`.
    """

    def __init__(
        self,
        pool_factory: Callable[[], Executor],
        *,
        seed: int,
        target_ctas_per_sm: int,
        max_retries: int,
        retry_backoff: float,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 0,
    ) -> None:
        self._pool_factory = pool_factory
        self._seed = seed
        self._target_ctas_per_sm = target_ctas_per_sm
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._checkpoint_dir = checkpoint_dir
        self._checkpoint_interval = checkpoint_interval
        self.generation = 0                  # pool recycles so far
        self._pools: dict[int, Executor] = {}
        self._tickets: set[_Ticket] = set()  # submitted, not yet settled
        self._waiting: list[_Ticket] = []    # queued for a worker, in order
        self._lock = threading.RLock()
        self._events: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(kill=exc_type is not None)

    def submit(
        self, job: JobSpec, key: str, timeout: float | None = None
    ) -> Future:
        """Queue ``job`` (cache key ``key``) with a wall-clock budget of
        ``timeout`` seconds per attempt, counted from when it gets a
        worker (None: unbounded)."""
        future: Future = Future()
        future.set_running_or_notify_cancel()   # only we settle it
        ticket = _Ticket(job, key, timeout, future)
        with self._lock:
            self._tickets.add(ticket)
            self._waiting.append(ticket)
            self._pump()
        self._events.put(None)   # re-plan the coordinator's next wake-up
        return future

    def start(self) -> None:
        """Coordinate on a background thread until :meth:`close`."""
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def as_completed(self, futures: Iterable[Future]) -> Iterator[Future]:
        """Coordinate on the calling thread, yielding each of
        ``futures`` (from :meth:`submit`) as it settles."""
        waiting = list(futures)
        while waiting:
            self._step()
            done = [f for f in waiting if f.done()]
            waiting = [f for f in waiting if f not in done]
            yield from done

    def close(self, kill: bool = False) -> None:
        """Stop the coordinator; join the current pool (kill it with
        ``kill``) and kill the workers of retired generations."""
        if self._thread is not None:
            self._events.put(_STOP)
            self._thread.join()
        with self._lock:
            for gen, pool in self._pools.items():
                _release(pool, kill=kill or gen != self.generation)
            self._pools.clear()

    # -- coordination ---------------------------------------------------------
    def _serve(self) -> None:
        while self._step():
            pass

    def _step(self) -> bool:
        """Wait for the next completion, deadline or backoff expiry and
        act on it; False once :meth:`close` stops the loop."""
        with self._lock:
            now = time.monotonic()
            wakes = [t.deadline for t in self._tickets
                     if t.deadline is not None]
            wakes += [t.not_before for t in self._waiting
                      if t.not_before > now]
        try:
            event = self._events.get(
                timeout=max(0.0, min(wakes) - now) if wakes else None)
        except queue.Empty:
            event = None
        if event is _STOP:
            return False
        with self._lock:
            if event is not None:
                self._attempt_done(*event)
            self._tick()
        return True

    def _tick(self) -> None:
        now = time.monotonic()
        for t in [t for t in self._tickets if t.deadline is not None
                  and t.deadline <= now and not t.inner.done()]:
            # Recycle before settling, so whoever reads the outcome
            # already sees the new generation.
            if not t.inner.cancel() and t.gen == self.generation:
                self._recycle()   # it holds a worker nothing can preempt
            self._fail(t, FAILURE_TIMEOUT, t.timeout,
                       f"job not finished after {t.timeout:.1f}s timeout")
        self._pump()
        for gen in [g for g in self._pools if g != self.generation
                    and not any(t.gen == g for t in self._tickets)]:
            _release(self._pools.pop(gen), kill=True)

    def _pump(self) -> None:
        """Hand waiting jobs (crashed ones once their backoff is over)
        to the current pool while it has idle workers."""
        now = time.monotonic()
        for t in [t for t in self._waiting if t.not_before <= now]:
            pool = self._pools.get(self.generation)
            busy = sum(u.gen == self.generation for u in self._tickets)
            if busy >= getattr(pool, "_max_workers", 1):
                return
            self._waiting.remove(t)
            self._dispatch(t)

    def _dispatch(self, t: _Ticket) -> None:
        try:
            pool = self._pools.get(self.generation)
            if pool is None:
                pool = self._pools[self.generation] = self._pool_factory()
            # `_simulate` is resolved per call, so instrumentation that
            # patches the module attribute sees every job.
            inner = pool.submit(
                _simulate, t.job, self._seed, self._target_ctas_per_sm,
                _job_checkpoint_dir(self._checkpoint_dir,
                                    self._checkpoint_interval, t.key),
                self._checkpoint_interval,
            )
        except Exception as exc:
            # A pool that broke after its last completion event was
            # handled (BrokenExecutor: the crash path retries this
            # attempt), or one that cannot start a worker (the
            # submitter gets the error); never the coordinator's death.
            inner = Future()
            inner.set_exception(exc)
        t.gen, t.inner = self.generation, inner
        if t.timeout is not None:
            t.deadline = time.monotonic() + t.timeout
        inner.add_done_callback(lambda f, t=t: self._events.put((t, f)))

    def _attempt_done(self, t: _Ticket, inner: Future) -> None:
        if t not in self._tickets or inner is not t.inner:
            return   # a timed-out job's late result
        try:
            simulated = inner.result()
        except BrokenExecutor as exc:
            self._crashed(t, exc)
            return
        except Exception as exc:
            # Not a job outcome at all (an unpicklable job, say): the
            # submitter sees the exception, as from a plain pool.
            self._tickets.discard(t)
            t.future.set_exception(exc)
            return
        self._settle(t, JobOutcome.of(simulated, t.attempt))

    def _crashed(self, t: _Ticket, exc: BrokenExecutor) -> None:
        """The pool cannot say *which* job killed its worker — every
        unfinished future is poisoned — so each poisoned job is retried
        as potentially innocent."""
        if t.gen == self.generation:
            self._recycle()
        t.gen = t.inner = t.deadline = None
        if t.attempt > self._max_retries:
            self._fail(t, FAILURE_WORKER_CRASH, 0.0,
                       f"worker process died ({exc}); gave up after "
                       f"{t.attempt} attempts")
            return
        t.attempt += 1
        t.not_before = (time.monotonic()
                        + self._retry_backoff * 2 ** (t.attempt - 2))
        self._waiting.append(t)

    def _recycle(self) -> None:
        """Retire the current pool generation; new work goes to a fresh
        pool.  A fresh pool is mandatory, not a convenience: a crash
        breaks a pool for good (every later submit raises), and a
        timeout leaves a worker wedged that only a kill frees.  The
        retired pool's on-time jobs finish where they run, uncharged;
        :meth:`_tick` kills its workers once none is left."""
        self.generation += 1

    def _fail(
        self, t: _Ticket, kind: str, seconds: float, message: str
    ) -> None:
        self._settle(t, JobOutcome(
            JobFailure(message, kind=kind, attempts=t.attempt),
            seconds, t.attempt,
        ))

    def _settle(self, t: _Ticket, outcome: JobOutcome) -> None:
        self._tickets.discard(t)
        t.future.set_result(outcome)


class Orchestrator:
    """Executes experiment specs against one shared runner."""

    def __init__(
        self,
        runner: ExperimentRunner,
        workers: int = 1,
        telemetry: SessionTelemetry | None = None,
        job_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        self.runner = runner
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        # Checkpointing turns the retry path into a *resume* path: a job
        # re-dispatched after a worker crash or timeout reloads whatever
        # checkpoints its predecessor flushed instead of restarting at
        # cycle 0.  An explicit dir also survives across sessions (kill
        # the whole process, rerun, resume); the auto-created tempdir
        # only covers within-session retries and is removed when
        # run_jobs returns or raises.
        self.checkpoint_interval = checkpoint_interval
        self._owns_checkpoint_dir = False
        if checkpoint_dir is None and checkpoint_interval > 0:
            checkpoint_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
            self._owns_checkpoint_dir = True
        self.checkpoint_dir = checkpoint_dir
        self.telemetry = telemetry or SessionTelemetry(workers=workers)

    # -- public API -----------------------------------------------------------
    def run_specs(
        self, specs: Sequence[ExperimentSpec]
    ) -> dict[str, list]:
        """Run every spec's jobs (deduplicated) and build all rows."""
        outcomes = self.run_jobs(
            job for spec in specs for job in spec.jobs
        )
        return {
            spec.name: spec.build_rows(
                JobResults({job: outcomes[job] for job in spec.jobs})
            )
            for spec in specs
        }

    def run_jobs(
        self,
        jobs: Iterable[JobSpec],
        timeouts: Mapping[JobSpec, float] | None = None,
    ) -> dict[JobSpec, object]:
        """Execute a job set; returns JobSpec -> RunRecord | JobFailure.

        ``timeouts`` maps individual jobs to a wall-clock budget that
        *overrides* the session-wide ``job_timeout`` for that job only —
        the end-to-end propagation path a service client's per-submit
        timeout rides (spec → daemon → worker).  Timeouts apply to
        pool dispatch (``workers > 1``); the inline path cannot preempt
        a simulation it is itself running.
        """
        ordered = ordered_unique_jobs(jobs)
        timeouts = timeouts or {}
        # Checked before anything starts, so a bad budget leaves no
        # pool, no started telemetry and no half-run batch behind.
        bad = [job.label for job, t in timeouts.items() if t is not None
               and t <= 0]
        if bad:
            raise ValueError(f"per-job timeout must be positive: {bad}")

        self.telemetry.start()
        outcomes: dict[JobSpec, object] = {}
        pending: list[tuple[JobSpec, str]] = []
        for job in ordered:
            key = self.runner.job_key(job)
            record = self.runner.lookup(key)
            if record is not None:
                self.runner.cache_hits += 1
                outcomes[job] = record
                self.telemetry.timings.append(JobTiming(
                    job.label, 0.0, MODE_CACHED, cycles=record.cycles
                ))
            else:
                self.runner.cache_misses += 1
                pending.append((job, key))

        try:
            # workers > 1 always uses the pool, even for one job: process
            # isolation is what contains a crashing or hanging worker.
            if self.workers == 1 or not pending:
                for job, key in pending:
                    done = JobOutcome.of(_simulate(
                        job, self.runner.seed, self.runner.target_ctas_per_sm,
                        _job_checkpoint_dir(self.checkpoint_dir,
                                            self.checkpoint_interval, key),
                        self.checkpoint_interval,
                    ))
                    self._finish_job(job, key, done, MODE_INLINE, outcomes)
            else:
                with JobExecutor(
                    partial(ProcessPoolExecutor,
                            max_workers=min(self.workers, len(pending))),
                    seed=self.runner.seed,
                    target_ctas_per_sm=self.runner.target_ctas_per_sm,
                    max_retries=self.max_retries,
                    retry_backoff=self.retry_backoff,
                    checkpoint_dir=self.checkpoint_dir,
                    checkpoint_interval=self.checkpoint_interval,
                ) as executor:
                    futures = {
                        executor.submit(
                            job, key, timeouts.get(job, self.job_timeout)
                        ): (job, key)
                        for job, key in pending
                    }
                    for future in executor.as_completed(futures):
                        job, key = futures[future]
                        self._finish_job(job, key, future.result(),
                                         MODE_POOL, outcomes)
        except KeyboardInterrupt as exc:
            # Ctrl-C mid-batch: keep everything already computed.  The
            # journaled runner has each finished record on disk already;
            # the flush folds them into the main cache file, and the
            # telemetry covers the partial session.  Surviving worker
            # checkpoints stay in an operator-provided checkpoint_dir,
            # so rerunning the same batch resumes rather than restarts.
            self.runner.flush()
            self.telemetry.finish()
            raise InterruptedRun(
                f"interrupted after {len(outcomes)} of {len(ordered)} jobs",
                completed=len(outcomes),
                total=len(ordered),
                flushed=True,
            ) from exc
        finally:
            if self._owns_checkpoint_dir and self.checkpoint_dir is not None:
                shutil.rmtree(self.checkpoint_dir, ignore_errors=True)

        self.runner.flush()
        self.telemetry.finish()
        return outcomes

    def _finish_job(self, job: JobSpec, key: str, done: JobOutcome,
                    mode: str, outcomes: dict[JobSpec, object]) -> None:
        if not done.failed:
            self.runner.install(key, done.result)
        outcomes[job] = done.result
        self.telemetry.timings.append(done.timing(job.label, mode))
