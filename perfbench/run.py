"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 30 \
        --trace 0

Run from the checkout root.  The program is imported from ``src/``; the
benchmark builds nothing.  Every job outcome is checked against
``perfbench/expected.json``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it is the run's provenance.  See
``perfbench/README.md`` for what each metric measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

from metrics import END_TO_END, FAILURE_KINDS, MODEL_NAMES, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A run that has not finished by then stops without a result.
WATCHDOG_S = 170
SETUP_GROUP = 4

WORKLOADS = ("fig9-cold", "short-jobs", "service-mixed")


class _Watchdog(BaseException):
    """Not an Exception, so that no ``except Exception`` on the way up
    (a lost batch is caught and counted) can swallow it."""


def _on_alarm(signum, frame):
    raise _Watchdog(f"run exceeded {WATCHDOG_S}s")


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for
    descendant (pool workers, the daemon and its workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(caught: list) -> dict:
    from repro.arch.config import GpuConfig

    try:
        import repro._native  # noqa: F401
        native = True
    except ImportError:
        native = False
    return {
        "issue_engine": GpuConfig().issue_engine,
        "native_extension": native,
        "warnings": sorted({str(w.message) for w in caught}),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


class Bench:
    """One workload: its passes, set-up probe and outcome check."""

    def __init__(self, name: str, seed: int, ws) -> None:
        import loads
        from outcomes import OutcomeChecker, load_expected

        self.name = name
        self.seed = seed
        self.ws = ws
        self.loads = loads
        self.checker = OutcomeChecker(load_expected(), name)
        self.notes: dict = {}  # pass and sample counts for the provenance

    # -- the workload as users run it -----------------------------------------
    def pooled_pass(self, rng):
        if self.name == "fig9-cold":
            return self.loads.fig9_pass(self.ws, rng)
        if self.name == "short-jobs":
            return self.loads.short_pass(self.ws, rng)
        return self.loads.service_pass(self.ws, rng, SRC)

    # -- every layer call in this process, under the tracer -----------------
    def traced_pass(self, rng, tracer):
        if self.name == "fig9-cold":
            return self.loads.fig9_pass(self.ws, rng, 1, tracer)
        if self.name == "short-jobs":
            return self.loads.short_pass(self.ws, rng, 1, tracer)
        return self.loads.service_inprocess_pass(self.ws, rng, tracer)

    def setup_s(self) -> float:
        if self.name == "service-mixed":
            return self.loads.service_setup_s(self.ws, SRC)
        return self.loads.batch_setup_s(self.ws, SRC)

    def check(self, result) -> None:
        for label, outcome in result.outcomes:
            self.checker.check(label, outcome)
        if self.checker.model:
            self.checker.check_model(result.model)

    def summary(self, metrics: dict) -> dict:
        tally = self.checker.tally
        return {"correct": tally.correct, "attempted": tally.attempted,
                "failed": tally.errors, "metrics": metrics}

    # -- the two kinds of run -----------------------------------------------
    def measure(self, seconds: float) -> dict:
        rng = random.Random(self.seed)
        # Set-up samples are taken before, between and after passes, so
        # that they meet the shared machine in more than one state.  A
        # service pass launches a daemon and adds a sample of its own.
        group = 1 if self.name == "service-mixed" else SETUP_GROUP
        setup, passes = [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            setup += [self.setup_s() for _ in range(group)]
            result = self.pooled_pass(rng)
            self.check(result)
            passes.append(result)
            if "setup_s" in result.counters:
                setup.append(result.counters["setup_s"])
            took = time.perf_counter() - began
            if time.perf_counter() - start + took > seconds:
                break
        setup += [self.setup_s() for _ in range(group)]
        latencies = [x for p in passes for x in p.latencies]
        metrics = {
            "setup_s": _median(setup),
            "wall_s": _median([p.wall_s for p in passes]),
            "job_latency_p50_s": _median(latencies),
            "job_latency_p90_s": _p90(latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        self.notes = {"passes": len(passes), "latency_samples": len(latencies),
                      "setup_samples": len(setup),
                      "escaped": [e for p in passes for e in p.escaped]}
        return {name: {"value": metrics[name], "unit": unit}
                for name, unit, _, _ in END_TO_END}

    def trace(self, tracer_out: str) -> dict:
        from tracing import Tracer, batch_queue_times, layer_metrics
        from tracing import span_cost_s

        pooled = self.pooled_pass(random.Random(self.seed))
        self.check(pooled)
        tracer = Tracer()
        traced = self.traced_pass(random.Random(self.seed), tracer)
        self.check(traced)

        metrics = layer_metrics(tracer.spans)
        c = pooled.counters
        for key in ("orchestrator.dispatch_s", "orchestrator.utilization",
                    "orchestrator.retries", "service.dedup.batch",
                    "service.dedup.store", "service.dedup.inflight",
                    "service.simulations", "runner.hit_ratio"):
            metrics[key] = c[key]
        failures = dict(c["failures"])
        for kind in FAILURE_KINDS:
            metrics[f"orchestrator.failures.{kind}"] = float(
                failures.pop(kind, 0))
        metrics["orchestrator.failures.other"] = float(sum(failures.values()))
        metrics["orchestrator.failures.lost"] = float(
            sum(1 for _, o in pooled.outcomes if o is None))
        if self.name == "service-mixed":
            waits, runs = pooled.queue_waits, pooled.runs
        else:
            waits, runs = batch_queue_times(tracer.spans)
        metrics["service.queue_wait_p50_s"] = _median(waits)
        metrics["service.queue_wait_p90_s"] = _p90(waits)
        metrics["service.run_p50_s"] = _median(runs)
        for name in MODEL_NAMES:
            metrics[name] = (pooled.model or {}).get(name, 0.0)
        metrics["trace.overhead_s"] = span_cost_s() * len(tracer.spans)
        tally = self.checker.tally
        metrics["error_frac"] = tally.errors / max(1, tally.attempted)
        tracer.dump(tracer_out)
        self.notes = {"traced_wall_s": traced.wall_s,
                      "spans": len(tracer.spans), "spans_file": tracer_out}
        return {name: {"value": metrics[name], "unit": unit}
                for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source under src/repro", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2

    from loads import Workspace

    ws = Workspace(os.path.join(HERE, ".work", str(os.getpid())))
    out_dir = os.path.join(HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    os.environ["TMPDIR"] = ws.root
    tempfile.tempdir = ws.root
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bench = Bench(args.workload, args.seed, ws)
            if args.trace:
                metrics = bench.trace(os.path.join(
                    out_dir, f"{args.workload}-seed{args.seed}-spans.json"))
            else:
                metrics = bench.measure(args.seconds)
        signal.alarm(0)
    except _Watchdog as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        ws.close()
    info = dict(provenance(caught), workload=args.workload, seed=args.seed,
                trace=args.trace, **bench.notes)
    print(json.dumps({"provenance": info}))
    print(json.dumps(bench.summary(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
