"""Every metric the benchmark reports: name, unit, better direction.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` keeps
the two in step.  ``bound`` (end-to-end only) is the share of the
parent's median by which a metric may worsen before a change counts as
a regression.
"""

from __future__ import annotations

END_TO_END = (
    # (name, unit, better, bound)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("job_latency_p50_s", "s", "lower", 0.25),
    ("job_latency_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

FAILURE_KINDS = ("placement", "deadlock", "cycle-limit",
                 "invariant-violation", "runtime-error", "worker-crash",
                 "timeout")

# Figure 9 headline means (simulated) and their difference from the
# paper's stated averages.
_MODEL = (
    ("fig9a", "mean_reduction_owf"), ("fig9a", "mean_reduction_rfv"),
    ("fig9a", "mean_reduction_regmutex"),
    ("fig9b", "mean_increase_none"), ("fig9b", "mean_increase_owf"),
    ("fig9b", "mean_increase_rfv"), ("fig9b", "mean_increase_regmutex"),
)

PER_LAYER = (
    # (name, unit, better)
    ("error_frac", "frac", "lower"),
    ("jobs.computed", "count", "higher"),
    ("workloads.build.calls_per_job", "calls/job", "lower"),
    ("workloads.build.s", "s", "lower"),
    ("compiler.prepare.calls_per_job", "calls/job", "lower"),
    ("compiler.prepare.s", "s", "lower"),
    ("liveness.analyze.s", "s", "lower"),
    ("compiler.es_selection.s", "s", "lower"),
    ("compiler.regions.s", "s", "lower"),
    ("compiler.acquire_release.s", "s", "lower"),
    ("compiler.compaction.s", "s", "lower"),
    ("compiler.verification.s", "s", "lower"),
    ("sim.launch.self_s", "s", "lower"),
    ("sim.sm_run.calls_per_job", "calls/job", "lower"),
    ("sim.sm_run.s", "s", "lower"),
    ("sim.cycles_per_s", "cycles/s", "higher"),
    ("sim.instructions_per_s", "inst/s", "higher"),
    ("sim.cycles", "cycles", "lower"),
    ("sim.instructions", "inst", "lower"),
    ("sim.ipc", "inst/cycle", "higher"),
    ("runner.run.self_s", "s", "lower"),
    ("runner.key.s", "s", "lower"),
    ("runner.flush.s", "s", "lower"),
    ("runner.install.s", "s", "lower"),
    ("runner.hit_ratio", "frac", "higher"),
    ("orchestrator.dispatch_s", "s", "lower"),
    ("orchestrator.utilization", "frac", "higher"),
    ("orchestrator.retries", "count", "lower"),
    *((f"orchestrator.failures.{kind}", "count", "lower")
      for kind in FAILURE_KINDS + ("other", "lost")),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.queue_wait_p90_s", "s", "lower"),
    ("service.run_p50_s", "s", "lower"),
    ("service.dedup.batch", "count", "higher"),
    ("service.dedup.store", "count", "higher"),
    ("service.dedup.inflight", "count", "higher"),
    ("service.simulations", "count", "lower"),
    *(m for figure, metric in _MODEL
      for m in ((f"model.{figure}.{metric}", "frac", "higher"),
                (f"model.{figure}.{metric}_err", "frac", "lower"))),
    ("trace.overhead_s", "s", "lower"),
)

MODEL_NAMES = tuple(name for name, _, _ in PER_LAYER
                    if name.startswith("model."))
