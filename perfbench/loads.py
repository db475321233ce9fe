"""The benchmark's three workloads.

Each workload runs in *passes*.  A pass starts from a cold run store (a
fresh cache file), submits the workload's jobs, and returns a
:class:`PassResult`: its wall time, one latency sample per job, and the
outcome of every job.  The workload seed picks orderings and mixes,
never sizes.

* ``fig9-cold``: Figures 9a and 9b on GTX480 (full and half register
  file) for two apps from each app group, as one ``run_specs`` batch at
  workers=2.
* ``short-jobs``: all 16 Table I apps x the 5 technique kinds on two
  small SM shapes, one ``run_jobs`` batch per (app, shape) at workers=2.
* ``service-mixed``: a ``repro serve`` daemon (workers=2) fed by two
  closed-loop clients submitting figures over an app subset.

Each pass function takes ``region``, a context manager entered around
the part of the pass that submits and waits (the tracer, in traced runs).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from repro.arch.config import fermi_like
from repro.errors import ServiceUnavailableError
from repro.harness.experiments import figure_spec
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner
from repro.harness.spec import (
    ExperimentSpec,
    JobFailure,
    JobResults,
    JobSpec,
    TechniqueSpec,
    materialize_job,
)
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceConfig, SimulationService
from repro.service.protocol import record_from_wire
from repro.workloads.suite import APPLICATIONS

from outcomes import MODEL_FIGURES, model_metrics

WORKERS = 2
# Deadline on every wait for one job's outcome (pool jobs, service
# submissions, socket reads).  A job past it counts as an error.
JOB_DEADLINE_S = 60.0

# fig9-cold: two occupancy-limited and two register-relaxed apps (DWT2D
# is one where OWF's extra CTAs change the schedule), on a grid of ~4
# CTAs per SM so that a run holds several passes: 18 jobs of ~1 s.
FIG9_APPS = {"fig9a": ("DWT2D", "HotSpot3D"), "fig9b": ("LavaMD", "TPACF")}
FIG9_TARGET_CTAS = 4

# short-jobs: the 16-warp / 4-CTA / 512-thread / 8K-register SM of the
# tier-1 tests and the CI service smoke, plus a 6K-register variant.
SHORT_BASE = fermi_like(
    name="short-8k", num_sms=2, max_warps_per_sm=16, max_ctas_per_sm=4,
    max_threads_per_sm=512, registers_per_sm=8192, dram_latency=60,
    l1_hit_latency=8,
)
SHORT_SHAPES = (SHORT_BASE,
                replace(SHORT_BASE, name="short-6k", registers_per_sm=6144))
SHORT_KINDS = ("baseline", "regmutex", "regmutex-paired", "owf", "rfv")
SHORT_TARGET_CTAS = 2

# service-mixed: each client opens with every figure's jobs in one job
# list, then submits each figure by name, over its app subset,
# SERVICE_ROUNDS times.  The daemon runs with its defaults
# (target_ctas_per_sm=24), so jobs take seconds; one app keeps a pass
# to ~4 distinct simulations, and a run to several passes.
SERVICE_APPS = {"fig7": ("HotSpot3D",), "fig9a": ("HotSpot3D",)}
SERVICE_ROUNDS = 3
SERVICE_CLIENTS = 2


@dataclass
class PassResult:
    wall_s: float
    latencies: list[float] = field(default_factory=list)
    # (label, RunRecord | JobFailure | None), None meaning no outcome
    outcomes: list[tuple[str, object]] = field(default_factory=list)
    model: dict | None = None
    # service-style lifecycle samples and counters
    queue_waits: list[float] = field(default_factory=list)
    runs: list[float] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    escaped: list[str] = field(default_factory=list)


class Workspace:
    """Scratch directory inside the checkout, one subdirectory per use."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._n = 0
        os.makedirs(root, exist_ok=True)

    def fresh(self) -> str:
        self._n += 1
        path = os.path.join(self.root, f"p{self._n}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _subprocess_env(src: str, tmp: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["TMPDIR"] = tmp
    return env


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

_BATCH_READY = (
    "import sys, repro, repro.harness.orchestrator, "
    "repro.harness.experiments\n"
    "from repro.harness.runner import ExperimentRunner\n"
    "ExperimentRunner(cache_path=sys.argv[1])\n"
    "print('ready', flush=True)\n"
)


def batch_setup_s(ws: Workspace, src: str) -> float:
    """Fresh interpreter -> ``import repro`` -> runner constructed."""
    where = ws.fresh()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _BATCH_READY, os.path.join(where, "c.json")],
        stdout=subprocess.PIPE, env=_subprocess_env(src, where),
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=JOB_DEADLINE_S)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe did not become ready")
    return elapsed


class Daemon:
    """One ``repro serve`` process in its own session (process group)."""

    def __init__(self, ws: Workspace, src: str) -> None:
        self.dir = ws.fresh()
        # Relative to the checkout root (our cwd and the daemon's): a
        # Unix socket path must stay under ~100 bytes.
        self.socket = os.path.relpath(os.path.join(self.dir, "s.sock"))
        self._src = src
        self.proc: subprocess.Popen | None = None
        self.setup_s = 0.0

    def start(self) -> "Daemon":
        start = time.perf_counter()
        with open(os.path.join(self.dir, "daemon.log"), "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro",
                 "--cache", os.path.join(self.dir, "cache.json"),
                 "--workers", str(WORKERS), "serve", "--socket", self.socket],
                stdout=subprocess.DEVNULL, stderr=log,
                env=_subprocess_env(self._src, self.dir),
                start_new_session=True,
            )
        deadline = start + JOB_DEADLINE_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited before answering a ping")
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never answered a ping")
            # Connecting before the socket exists makes the client raise
            # without closing its socket, so wait for the file first.
            if os.path.exists(self.socket):
                try:
                    with ServiceClient(socket_path=self.socket,
                                       connect_timeout=1.0,
                                       io_timeout=5.0) as client:
                        client.ping()
                    break
                except ServiceUnavailableError:
                    pass
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - start
        return self

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM (graceful drain) unless told not to, then SIGKILL
        whatever is left of the process group and wait for it."""
        if self.proc is None:
            return
        if graceful and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        pgid = self.proc.pid
        _signal_group(pgid, signal.SIGKILL)
        self.proc.wait()
        self.proc = None
        # Pool workers outlive a killed daemon only briefly; wait (bounded)
        # until no process of the group is left.
        for _ in range(500):
            if not _signal_group(pgid, 0):
                return
            time.sleep(0.01)


def _signal_group(pgid: int, sig: int) -> bool:
    """Send ``sig`` to a process group; False once the group is empty."""
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return False
    return True


def service_setup_s(ws: Workspace, src: str) -> float:
    """``repro serve`` launch -> first successful ping."""
    daemon = Daemon(ws, src)
    try:
        return daemon.start().setup_s
    finally:
        daemon.stop(graceful=False)  # it never had work to drain


# ---------------------------------------------------------------------------
# fig9-cold
# ---------------------------------------------------------------------------

def _fig9_specs(rng) -> list[ExperimentSpec]:
    """The two figure specs, each app's jobs in a seeded order.

    Apps keep their order: jobs of one app take about as long as each
    other, so the seed moves the pool's schedule but not its length.
    """
    specs = []
    for name, apps in FIG9_APPS.items():
        spec = figure_spec(name, apps)
        jobs = []
        for app in apps:
            mine = [j for j in spec.jobs if j.app == app]
            rng.shuffle(mine)
            jobs += mine
        specs.append(ExperimentSpec(spec.name, tuple(jobs), spec.build_rows))
    return specs


def _job_keys(jobs, target_ctas_per_sm: int) -> dict:
    """Run-store key of every job (computed before any timing)."""
    runner = ExperimentRunner(target_ctas_per_sm=target_ctas_per_sm)
    keys = {}
    for job in jobs:
        kernel, technique, _ = materialize_job(job)
        keys[job] = runner.key_for(kernel, job.config, technique)
    return keys


def fig9_pass(ws: Workspace, rng, workers: int = WORKERS,
              region=nullcontext()) -> PassResult:
    specs = _fig9_specs(rng)
    jobs = [job for spec in specs for job in spec.jobs]
    keys = _job_keys(jobs, FIG9_TARGET_CTAS)
    runner = ExperimentRunner(
        target_ctas_per_sm=FIG9_TARGET_CTAS,
        cache_path=os.path.join(ws.fresh(), "cache.json"))
    orch = Orchestrator(runner, workers=workers, job_timeout=JOB_DEADLINE_S)
    rows = None
    escaped: list[str] = []
    with region:
        start = time.perf_counter()
        try:
            rows = orch.run_specs(specs)
        except Exception as exc:  # a lost batch is a measured outcome
            escaped.append(type(exc).__name__)
        wall = time.perf_counter() - start
    result = PassResult(wall_s=wall, escaped=escaped)
    for job in jobs:
        result.outcomes.append((job.label, runner.cached(keys[job])))
        result.latencies.append(wall)
    if rows is not None:
        result.model = model_metrics(rows)
    _orchestrator_counters(result, orch, [wall], len(jobs) - len(set(jobs)))
    return result


def _orchestrator_counters(result: PassResult, orch: Orchestrator,
                           walls: list[float], batch_dups: int) -> None:
    tel = orch.telemetry
    result.counters = {
        "orchestrator.dispatch_s": sum(walls) - tel.sim_seconds / orch.workers,
        "orchestrator.utilization": (
            min(1.0, tel.sim_seconds / (orch.workers * sum(walls)))
            if sum(walls) > 0 else 0.0),
        "orchestrator.retries": float(tel.retries),
        "failures": tel.failures_by_kind(),
        "service.dedup.batch": float(batch_dups),
        "service.dedup.store": float(tel.cache_hits),
        "service.dedup.inflight": 0.0,
        "service.simulations": float(tel.cache_misses),
        "runner.hit_ratio": (orch.runner.cache_hits / max(
            1, orch.runner.cache_hits + orch.runner.cache_misses)),
    }


# ---------------------------------------------------------------------------
# short-jobs
# ---------------------------------------------------------------------------

def short_pass(ws: Workspace, rng, workers: int = WORKERS,
               region=nullcontext()) -> PassResult:
    batches = [(app, shape) for app in APPLICATIONS for shape in SHORT_SHAPES]
    rng.shuffle(batches)
    runner = ExperimentRunner(
        target_ctas_per_sm=SHORT_TARGET_CTAS,
        cache_path=os.path.join(ws.fresh(), "cache.json"))
    orch = Orchestrator(runner, workers=workers, job_timeout=JOB_DEADLINE_S)
    result = PassResult(wall_s=0.0)
    walls = []
    with region:
        start = time.perf_counter()
        for app, shape in batches:
            kinds = list(SHORT_KINDS)
            rng.shuffle(kinds)
            jobs = [JobSpec(app, shape, TechniqueSpec(kind)) for kind in kinds]
            submitted = time.perf_counter()
            try:
                outcomes = orch.run_jobs(jobs)
            except Exception as exc:  # the whole batch is lost
                outcomes = {}
                result.escaped.append(type(exc).__name__)
            done = time.perf_counter()
            walls.append(done - submitted)
            for job in jobs:
                result.outcomes.append((job.label, outcomes.get(job)))
                result.latencies.append(done - submitted)
        result.wall_s = time.perf_counter() - start
    _orchestrator_counters(result, orch, walls, 0)
    return result


# ---------------------------------------------------------------------------
# service-mixed
# ---------------------------------------------------------------------------

class _TimedClient(ServiceClient):
    """ServiceClient that notes when each response frame arrived."""

    response_at = 0.0

    def request(self, frame: dict) -> dict:
        response = super().request(frame)
        self.response_at = time.perf_counter()
        return response


class _DeadlineMissed(Exception):
    pass


def _service_plan(rng) -> list[list[tuple]]:
    """Each client's submissions.

    Both clients open with every figure as one job list: 6 jobs, 4
    distinct.  The first to arrive starts the 4 simulations and the
    other attaches to them in flight, so 8 outcomes per pass come from
    simulations whatever the seed.  The named figures follow in a
    seeded order and hit the store: 22 outcomes per client, 44 per
    pass, with p50 among the store hits and p90 among the simulations.
    """
    plans = []
    for _ in range(SERVICE_CLIENTS):
        rest = [(name,) for name in SERVICE_APPS] * SERVICE_ROUNDS
        rng.shuffle(rest)
        plans.append([tuple(SERVICE_APPS)] + rest)
    return plans


def _run_client(sock: str, plan, out: dict) -> None:
    """One closed-loop client: submit, wait for every outcome, repeat."""
    samples = out.setdefault("samples", [])
    client = None
    for figures in plan:
        seen: dict[int, dict[str, float]] = {}
        submitted = time.perf_counter()

        def on_event(event, seen=seen, submitted=submitted):
            now = time.perf_counter()
            seen.setdefault(event["job_id"], {})[event["status"]] = now
            if now - submitted > JOB_DEADLINE_S:
                raise _DeadlineMissed()

        labels = [j.label for name in figures
                  for j in figure_spec(name, SERVICE_APPS[name]).jobs]
        try:
            if client is None:
                client = _TimedClient(socket_path=sock,
                                      io_timeout=JOB_DEADLINE_S).connect()
            if len(figures) == 1:
                res = client.submit(experiment=figures[0],
                                    apps=list(SERVICE_APPS[figures[0]]),
                                    timeout=JOB_DEADLINE_S, on_event=on_event)
            else:
                jobs = [j for name in figures
                        for j in figure_spec(name, SERVICE_APPS[name]).jobs]
                res = client.submit(jobs=jobs, timeout=JOB_DEADLINE_S,
                                    on_event=on_event)
        except Exception as exc:  # deadline, lost connection, ...
            out.setdefault("escaped", []).append(type(exc).__name__)
            if client is not None:
                client.close()
            client = None
            failed_after = time.perf_counter() - submitted
            for label in dict.fromkeys(labels):
                samples.append((label, None, failed_after, None, None))
            continue
        for entry in res.jobs:
            final = res.final.get(entry["job_id"])
            times = seen.get(entry["job_id"], {})
            if final is None:
                outcome, done_at = None, None
            else:
                done_at = times.get(final["status"], client.response_at)
                if final["status"] == "done":
                    outcome = record_from_wire(final["record"])
                else:
                    outcome = JobFailure(final["failure"]["message"],
                                         kind=final["failure"]["kind"])
            samples.append((
                entry["label"], outcome,
                None if done_at is None else done_at - submitted,
                _gap(times, "queued", "running"),
                _gap(times, "running", "done"),
            ))
        out["last"] = time.perf_counter()
    if client is not None:
        client.close()


def _gap(times: dict, a: str, b: str) -> float | None:
    if a in times and b in times:
        return times[b] - times[a]
    return None


def _drive_clients(sock: str, rng) -> tuple[float, list[dict]]:
    """Run the clients concurrently; returns (wall, per-client output)."""
    plans = _service_plan(rng)
    outs = [{} for _ in plans]
    threads = [threading.Thread(target=_run_client, args=(sock, p, o),
                                daemon=True)
               for p, o in zip(plans, outs)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    budget = JOB_DEADLINE_S * (len(plans[0]) + 1)
    for t in threads:
        t.join(timeout=max(0.0, start + budget - time.perf_counter()))
    if any(t.is_alive() for t in threads):
        raise RuntimeError("service clients did not finish")
    wall = max(o.get("last", start) for o in outs) - start
    return wall, outs


def _service_result(wall: float, outs: list[dict], status: dict) -> PassResult:
    result = PassResult(wall_s=wall)
    by_label: dict[str, object] = {}
    for out in outs:
        result.escaped += out.get("escaped", [])
        for label, outcome, latency, wait, run in out.get("samples", []):
            result.outcomes.append((label, outcome))
            if latency is not None:
                result.latencies.append(latency)
            if wait is not None:
                result.queue_waits.append(wait)
            if run is not None:
                result.runs.append(run)
            if outcome is not None:
                by_label.setdefault(label, outcome)
    rows = {}
    for name in MODEL_FIGURES:
        if name not in SERVICE_APPS:
            continue
        spec = figure_spec(name, SERVICE_APPS[name])
        if not all(j.label in by_label for j in spec.jobs):
            return result  # no model without every job's record
        try:
            rows[name] = spec.build_rows(JobResults(
                {j: by_label[j.label] for j in spec.jobs}))
        except RuntimeError:
            return result
    result.model = model_metrics(rows)
    stats = status.get("stats", {})
    timings = status.get("telemetry", {}).get("timings", [])
    sim_seconds = sum(t["seconds"] for t in timings if t["mode"] != "cached")
    workers = status.get("workers", WORKERS)
    failures: dict[str, int] = {}
    for t in timings:
        if t["failed"]:
            kind = t.get("failure_kind") or "error"
            failures[kind] = failures.get(kind, 0) + 1
    hits = stats.get("dedup_store", 0)
    result.counters = {
        "orchestrator.dispatch_s": wall - sim_seconds / workers,
        "orchestrator.utilization": (min(1.0, sim_seconds / (workers * wall))
                                     if wall > 0 else 0.0),
        "orchestrator.retries": float(sum(t["attempts"] - 1 for t in timings)),
        "failures": failures,
        "service.dedup.batch": float(stats.get("dedup_batch", 0)),
        "service.dedup.store": float(hits),
        "service.dedup.inflight": float(stats.get("dedup_inflight", 0)),
        "service.simulations": float(stats.get("simulations", 0)),
        "runner.hit_ratio": hits / max(1, stats.get("submitted", 0)),
    }
    return result


def _status(sock: str) -> dict:
    with ServiceClient(socket_path=sock, io_timeout=JOB_DEADLINE_S) as c:
        return c.status()


def service_pass(ws: Workspace, rng, src: str) -> PassResult:
    """Two clients against a freshly launched ``repro serve``."""
    daemon = Daemon(ws, src)
    try:
        daemon.start()
        wall, outs = _drive_clients(daemon.socket, rng)
        status = _status(daemon.socket)
    finally:
        daemon.stop()
    result = _service_result(wall, outs, status)
    result.counters["setup_s"] = daemon.setup_s
    return result


class _ThreadExecutorService(SimulationService):
    """The daemon with its process pool swapped for one thread, so that
    every layer call of a job happens in this (traced) process."""

    def _new_pool(self):
        return ThreadPoolExecutor(max_workers=1)


def service_inprocess_pass(ws: Workspace, rng,
                           region=nullcontext()) -> PassResult:
    """The service workload against an in-process daemon."""
    where = ws.fresh()
    sock = os.path.relpath(os.path.join(where, "s.sock"))
    ready = threading.Event()
    state: dict = {}

    def serve() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            service = _ThreadExecutorService(ServiceConfig(
                socket_path=sock, cache_path=os.path.join(where, "c.json"),
                workers=1))
            loop.run_until_complete(service.start())
            loop.run_until_complete(service.start_servers())
            state.update(loop=loop, service=service)
        finally:
            ready.set()
        loop.run_forever()
        loop.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    if not ready.wait(JOB_DEADLINE_S) or "service" not in state:
        raise RuntimeError("in-process service did not start")
    loop, service = state["loop"], state["service"]
    try:
        with region:
            wall, outs = _drive_clients(sock, rng)
        status = _status(sock)
    finally:
        asyncio.run_coroutine_threadsafe(service.aclose(), loop).result(
            timeout=JOB_DEADLINE_S)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=JOB_DEADLINE_S)
    return _service_result(wall, outs, status)
