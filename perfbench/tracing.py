"""In-memory spans around the program's layer entry points.

The benchmark does not edit the program: :func:`install_layer_spans`
replaces each layer's public entry point (a module attribute or class
method) with a wrapper that records a span, and :meth:`Tracer.uninstall`
puts the originals back.  Spans live in memory until the run ends.

Only calls made in this process are seen, so traced runs execute jobs
inline (batch workloads) or on a thread executor (service workload).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; each thread keeps its own stack of open spans.

    As a context manager it wraps the layer entry points on entry and
    restores them on exit.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, job_of=None, on_result=None):
        """``fn`` with a span named ``name`` around every call.

        ``job_of(args)`` names the job a call belongs to; calls without
        it inherit the job of the span that encloses them.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            job = job_of(args) if job_of else (parent.job if parent else None)
            span = Span(next(tracer._ids), name, time.perf_counter(), 0.0,
                        parent.id if parent else None, job)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Wrap ``owner.attr`` (module function or class method)."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kwargs))

    def __enter__(self) -> "Tracer":
        install_layer_spans(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _job_label(args) -> str:
    return args[0].label


def _sm_result(span: Span, stats) -> None:
    span.attrs["cycles"] = stats.cycles
    span.attrs["instructions"] = stats.instructions_issued


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are named after."""
    from repro.baselines import owf, rfv
    from repro.baselines.owf import OwfTechnique
    from repro.baselines.rfv import RfvTechnique
    from repro.compiler import (
        compaction,
        es_selection,
        pipeline,
        regions,
        verification,
    )
    from repro.harness import orchestrator, spec
    from repro.harness.orchestrator import Orchestrator
    from repro.harness.runner import ExperimentRunner
    from repro.regmutex.issue_logic import RegMutexTechnique
    from repro.service import daemon
    from repro.sim.gpu import Gpu
    from repro.sim.sm import StreamingMultiprocessor
    from repro.sim.technique import SharingTechnique

    for module in (orchestrator, daemon):
        tracer.patch(module, "materialize_job", "harness.materialize",
                     job_of=_job_label)
        tracer.patch(module, "_simulate", "harness.job", job_of=_job_label)
    tracer.patch(spec, "build_app_kernel", "workloads.build")
    for cls in (SharingTechnique, RegMutexTechnique, OwfTechnique,
                RfvTechnique):
        tracer.patch(cls, "prepare_kernel", "compiler.prepare")
    for module in (pipeline, rfv, es_selection, regions, compaction):
        tracer.patch(module, "analyze_liveness", "liveness.analyze")
    for module in (pipeline, owf):
        tracer.patch(module, "select_extended_set_size",
                     "compiler.es_selection")
    tracer.patch(pipeline, "find_acquire_regions", "compiler.regions")
    tracer.patch(pipeline, "inject_primitives", "compiler.acquire_release")
    tracer.patch(pipeline, "compact_register_indices", "compiler.compaction")
    tracer.patch(pipeline, "verify_compact", "compiler.compaction")
    tracer.patch(verification, "assert_regmutex_safe", "compiler.verification")
    tracer.patch(Gpu, "launch", "sim.launch")
    tracer.patch(StreamingMultiprocessor, "run", "sim.sm_run",
                 on_result=_sm_result)
    tracer.patch(ExperimentRunner, "run", "runner.run")
    tracer.patch(ExperimentRunner, "key_for", "runner.key")
    tracer.patch(ExperimentRunner, "flush", "runner.flush")
    tracer.patch(ExperimentRunner, "install", "runner.install")
    tracer.patch(Orchestrator, "run_jobs", "orchestrator.run_jobs")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, inclusive and self times from recorded spans.

    A span's self time is its duration minus its direct children's
    (children never overlap: they run on the parent's thread).
    """
    child_seconds: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] = (child_seconds.get(s.parent, 0.0)
                                       + s.seconds)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        self_s[s.name] = (self_s.get(s.name, 0.0) + s.seconds
                          - child_seconds.get(s.id, 0.0))

    jobs = calls.get("harness.job", 0)
    per_job = (lambda n: calls.get(n, 0) / jobs) if jobs else (lambda n: 0.0)
    sm_runs = [s for s in spans if s.name == "sim.sm_run"]
    cycles = sum(s.attrs.get("cycles", 0) for s in sm_runs)
    instructions = sum(s.attrs.get("instructions", 0) for s in sm_runs)
    sm_seconds = total.get("sim.sm_run", 0.0)

    out = {
        "jobs.computed": float(jobs),
        "workloads.build.calls_per_job": per_job("workloads.build"),
        "workloads.build.s": total.get("workloads.build", 0.0),
        "compiler.prepare.calls_per_job": per_job("compiler.prepare"),
        "compiler.prepare.s": total.get("compiler.prepare", 0.0),
        "liveness.analyze.s": total.get("liveness.analyze", 0.0),
        "sim.launch.self_s": self_s.get("sim.launch", 0.0),
        "sim.sm_run.calls_per_job": per_job("sim.sm_run"),
        "sim.sm_run.s": sm_seconds,
        "sim.cycles": float(cycles),
        "sim.instructions": float(instructions),
        "sim.ipc": instructions / cycles if cycles else 0.0,
        "sim.cycles_per_s": cycles / sm_seconds if sm_seconds else 0.0,
        "sim.instructions_per_s": (instructions / sm_seconds
                                   if sm_seconds else 0.0),
        "runner.run.self_s": self_s.get("runner.run", 0.0),
        "runner.key.s": total.get("runner.key", 0.0),
        "runner.flush.s": total.get("runner.flush", 0.0),
        "runner.install.s": total.get("runner.install", 0.0),
    }
    for name in ("compiler.es_selection", "compiler.regions",
                 "compiler.acquire_release", "compiler.compaction",
                 "compiler.verification"):
        out[f"{name}.s"] = total.get(name, 0.0)
    return out


def batch_queue_times(spans: list[Span]) -> tuple[list[float], list[float]]:
    """(queue waits, run times) of inline jobs: from the enclosing
    ``run_jobs`` call to the job's start, and the job's own duration."""
    by_id = {s.id: s for s in spans}
    waits, runs = [], []
    for s in spans:
        if s.name != "harness.job":
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != "orchestrator.run_jobs":
            parent = by_id.get(parent.parent)
        if parent is not None:
            waits.append(s.start - parent.start)
        runs.append(s.seconds)
    return waits, runs


def span_cost_s(calls: int = 20000, rounds: int = 5) -> float:
    """Host cost of recording one span: a traced no-op call minus a bare
    one, median over ``rounds``.  Times the span count, this is the
    tracing overhead of a traced pass."""
    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    costs = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)
