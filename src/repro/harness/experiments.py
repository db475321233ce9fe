"""One declarative spec per paper experiment (§IV and motivation §II).

Every simulation-backed figure is declared as an
:class:`~repro.harness.spec.ExperimentSpec` — the cross-product of
(app, config, technique) jobs it needs plus a row builder — via a
``figN_spec()`` factory, registered by name in :data:`FIGURE_SPECS`.
Specs run only through :meth:`Orchestrator.run_specs
<repro.harness.orchestrator.Orchestrator.run_specs>`;
:func:`run_figure` is the one-call form (one figure, in-process),
and callers that need workers, timeouts or a non-default config build
the spec and the :class:`~repro.harness.orchestrator.Orchestrator`
themselves, as ``repro bench`` does.

RegMutex runs force Table I's |Bs|/|Es| split (``spec.expected_es``) so
every figure uses exactly the paper's configuration; Figure 10/11 sweep
|Es| explicitly and mark the heuristic's own pick.

Figure 1, Table I, and the storage comparison are pure analyses (no
simulation) and stay plain functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import GTX480, GpuConfig
from repro.compiler.es_selection import select_extended_set_size
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner
from repro.harness.spec import (
    ExperimentSpec,
    JobResults,
    JobSpec,
    TechniqueSpec,
)
from repro.liveness.pressure import dynamic_pressure_trace
from repro.regmutex.storage import (
    StorageBudget,
    owf_storage_bits,
    paired_storage_bits,
    regmutex_storage_bits,
    rfv_storage_bits,
)
from repro.workloads.suite import (
    APPLICATIONS,
    FIGURE1_APPS,
    OCCUPANCY_LIMITED_APPS,
    REGISTER_RELAXED_APPS,
    build_app_kernel,
    get_app,
)

ES_SWEEP = (2, 4, 6, 8, 10, 12)


def _half(config: GpuConfig) -> GpuConfig:
    return config.with_half_register_file()


def _job(app: str, config: GpuConfig, kind: str, **params) -> JobSpec:
    return JobSpec(app, config, TechniqueSpec.of(kind, **params))


def _rm(app: str, config: GpuConfig, es: int) -> JobSpec:
    return _job(app, config, "regmutex", extended_set_size=es)


# ---------------------------------------------------------------------------
# Figure 1 — register liveness utilization traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig1Row:
    """One application's single-thread utilization trace (Figure 1)."""

    app: str
    instructions_executed: int
    mean_utilization: float
    min_utilization: float
    max_utilization: float
    fraction_at_peak: float
    utilization_series: tuple[float, ...]


def fig1_liveness_traces(
    apps: tuple[str, ...] = FIGURE1_APPS, series_points: int = 64
) -> list[Fig1Row]:
    """Single-thread dynamic liveness traces (paper Figure 1)."""
    rows = []
    for name in apps:
        trace = dynamic_pressure_trace(build_app_kernel(get_app(name)))
        util = trace.utilization
        stride = max(1, len(util) // series_points)
        rows.append(
            Fig1Row(
                app=name,
                instructions_executed=trace.instructions_executed,
                mean_utilization=trace.mean_utilization(),
                min_utilization=min(util),
                max_utilization=max(util),
                fraction_at_peak=trace.fraction_fully_utilized(),
                utilization_series=tuple(util[::stride]),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table I — workloads, register demand, |Bs|
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    """One application row of Table I, plus derived SRP geometry."""

    app: str
    suite: str
    regs: int
    regs_rounded: int
    bs: int
    es: int
    srp_sections: int
    heuristic_agrees: bool


def table1_workloads(config: GpuConfig = GTX480) -> list[Table1Row]:
    """Table I plus the SRP section count our occupancy math implies."""
    rows = []
    for spec in APPLICATIONS.values():
        kernel = build_app_kernel(spec)
        sel_config = config if spec.group == "occupancy-limited" else _half(config)
        selection = select_extended_set_size(kernel, sel_config)
        forced = select_extended_set_size(
            kernel, sel_config, forced_es=spec.expected_es
        )
        rows.append(
            Table1Row(
                app=spec.name,
                suite=spec.suite,
                regs=spec.regs,
                regs_rounded=spec.rounded_regs,
                bs=spec.expected_bs,
                es=spec.expected_es,
                srp_sections=forced.srp_sections,
                heuristic_agrees=(
                    selection.extended_set_size == spec.expected_es
                ),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 7 — occupancy boost on the baseline architecture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig7Row:
    """Cycle reduction and occupancy for one app (Figure 7)."""

    app: str
    cycle_reduction: float
    occupancy_init: float
    occupancy_regmutex: float
    acquire_success_rate: float


def fig7_spec(
    apps: tuple[str, ...] = OCCUPANCY_LIMITED_APPS,
    config: GpuConfig = GTX480,
) -> ExperimentSpec:
    """Figure 7: RegMutex vs baseline on the full register file."""
    plan = [
        (name, _job(name, config, "baseline"),
         _rm(name, config, get_app(name).expected_es))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig7Row]:
        rows = []
        for name, base_job, rm_job in plan:
            base, rm = results[base_job], results[rm_job]
            rows.append(
                Fig7Row(
                    app=name,
                    cycle_reduction=rm.reduction_vs(base),
                    occupancy_init=base.theoretical_occupancy,
                    occupancy_regmutex=rm.theoretical_occupancy,
                    acquire_success_rate=rm.acquire_success_rate,
                )
            )
        return rows

    jobs = tuple(j for _, base, rm in plan for j in (base, rm))
    return ExperimentSpec("fig7", jobs, build)


# ---------------------------------------------------------------------------
# Figure 8 — half register file resilience
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig8Row:
    """Half-register-file slowdowns for one app (Figure 8)."""

    app: str
    increase_no_technique: float
    increase_regmutex: float
    occupancy_half_no_technique: float
    occupancy_half_regmutex: float


def fig8_spec(
    apps: tuple[str, ...] = REGISTER_RELAXED_APPS,
    config: GpuConfig = GTX480,
) -> ExperimentSpec:
    """Figure 8: slowdown on a halved register file, with/without RegMutex."""
    half = _half(config)
    plan = [
        (name,
         _job(name, config, "baseline"),
         _job(name, half, "baseline"),
         _rm(name, half, get_app(name).expected_es))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig8Row]:
        rows = []
        for name, full_job, bare_job, rm_job in plan:
            full, bare, rm = (
                results[full_job], results[bare_job], results[rm_job]
            )
            rows.append(
                Fig8Row(
                    app=name,
                    increase_no_technique=bare.increase_vs(full),
                    increase_regmutex=rm.increase_vs(full),
                    occupancy_half_no_technique=bare.theoretical_occupancy,
                    occupancy_half_regmutex=rm.theoretical_occupancy,
                )
            )
        return rows

    jobs = tuple(j for entry in plan for j in entry[1:])
    return ExperimentSpec("fig8", jobs, build)


# ---------------------------------------------------------------------------
# Figure 9 — comparison with OWF and RFV
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig9aRow:
    """Per-technique reductions on the baseline arch (Figure 9a)."""

    app: str
    reduction_owf: float
    reduction_rfv: float
    reduction_regmutex: float


def fig9a_spec(
    apps: tuple[str, ...] = OCCUPANCY_LIMITED_APPS,
    config: GpuConfig = GTX480,
) -> ExperimentSpec:
    """Figure 9a: OWF vs RFV vs RegMutex, baseline architecture."""
    plan = [
        (name,
         _job(name, config, "baseline"),
         _job(name, config, "owf"),
         _job(name, config, "rfv"),
         _rm(name, config, get_app(name).expected_es))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig9aRow]:
        rows = []
        for name, base_job, owf_job, rfv_job, rm_job in plan:
            base = results[base_job]
            rows.append(
                Fig9aRow(
                    app=name,
                    reduction_owf=results[owf_job].reduction_vs(base),
                    reduction_rfv=results[rfv_job].reduction_vs(base),
                    reduction_regmutex=results[rm_job].reduction_vs(base),
                )
            )
        return rows

    jobs = tuple(j for entry in plan for j in entry[1:])
    return ExperimentSpec("fig9a", jobs, build)


@dataclass(frozen=True)
class Fig9bRow:
    """Per-technique increases on the half file (Figure 9b)."""

    app: str
    increase_none: float
    increase_owf: float
    increase_rfv: float
    increase_regmutex: float


def fig9b_spec(
    apps: tuple[str, ...] = REGISTER_RELAXED_APPS,
    config: GpuConfig = GTX480,
) -> ExperimentSpec:
    """Figure 9b: the same comparison on the halved register file."""
    half = _half(config)
    plan = [
        (name,
         _job(name, config, "baseline"),
         _job(name, half, "baseline"),
         _job(name, half, "owf"),
         _job(name, half, "rfv"),
         _rm(name, half, get_app(name).expected_es))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig9bRow]:
        rows = []
        for name, full_job, bare_job, owf_job, rfv_job, rm_job in plan:
            full = results[full_job]
            rows.append(
                Fig9bRow(
                    app=name,
                    increase_none=results[bare_job].increase_vs(full),
                    increase_owf=results[owf_job].increase_vs(full),
                    increase_rfv=results[rfv_job].increase_vs(full),
                    increase_regmutex=results[rm_job].increase_vs(full),
                )
            )
        return rows

    jobs = tuple(j for entry in plan for j in entry[1:])
    return ExperimentSpec("fig9b", jobs, build)


# ---------------------------------------------------------------------------
# Figures 10 and 11 — |Es| sensitivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig10Row:
    """One (app, |Es|) point of the sensitivity sweep (Figure 10)."""

    app: str
    es: int
    cycle_reduction: float
    is_heuristic_pick: bool


def fig10_spec(
    apps: tuple[str, ...] = OCCUPANCY_LIMITED_APPS,
    config: GpuConfig = GTX480,
    sweep: tuple[int, ...] = ES_SWEEP,
) -> ExperimentSpec:
    """Figure 10: cycle-reduction sensitivity to the forced |Es|."""
    plan = [
        (name, get_app(name).expected_es,
         _job(name, config, "baseline"),
         tuple((es, _rm(name, config, es)) for es in sweep))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig10Row]:
        rows = []
        for name, expected_es, base_job, sweep_jobs in plan:
            base = results[base_job]
            for es, rm_job in sweep_jobs:
                rows.append(
                    Fig10Row(
                        app=name,
                        es=es,
                        cycle_reduction=results[rm_job].reduction_vs(base),
                        is_heuristic_pick=(es == expected_es),
                    )
                )
        return rows

    jobs = tuple(
        j
        for _, _, base, sweep_jobs in plan
        for j in (base, *(rm for _, rm in sweep_jobs))
    )
    return ExperimentSpec("fig10", jobs, build)


@dataclass(frozen=True)
class Fig11Row:
    app: str
    es: int
    theoretical_occupancy: float
    acquire_success_rate: float
    is_heuristic_pick: bool
    # False when the deadlock rules rejected this |Es| and the compiler
    # fell back to the uninstrumented kernel (no acquires executed).
    active: bool = True


def fig11_spec(
    apps: tuple[str, ...] = OCCUPANCY_LIMITED_APPS,
    config: GpuConfig = GTX480,
    sweep: tuple[int, ...] = ES_SWEEP,
) -> ExperimentSpec:
    """Figure 11: occupancy and acquire success across the |Es| sweep."""
    plan = [
        (name, get_app(name).expected_es,
         tuple((es, _rm(name, config, es)) for es in sweep))
        for name in apps
    ]

    def build(results: JobResults) -> list[Fig11Row]:
        rows = []
        for name, expected_es, sweep_jobs in plan:
            for es, rm_job in sweep_jobs:
                rm = results[rm_job]
                rows.append(
                    Fig11Row(
                        app=name,
                        es=es,
                        theoretical_occupancy=rm.theoretical_occupancy,
                        acquire_success_rate=rm.acquire_success_rate,
                        is_heuristic_pick=(es == expected_es),
                        active=rm.acquire_attempts > 0,
                    )
                )
        return rows

    jobs = tuple(
        rm for _, _, sweep_jobs in plan for _, rm in sweep_jobs
    )
    return ExperimentSpec("fig11", jobs, build)


# ---------------------------------------------------------------------------
# Figure 12 — paired-warps specialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig12Row:
    app: str
    metric: float          # reduction (12a) or increase (12b)
    occupancy_paired: float
    metric_default: float  # same metric under default RegMutex


def fig12_spec(
    config: GpuConfig = GTX480, half_rf: bool = False
) -> ExperimentSpec:
    """12(a) when ``half_rf`` is False (occupancy-limited apps, baseline
    arch, cycle *reduction*); 12(b) when True (register-relaxed apps,
    half RF, cycle *increase* vs the full-RF baseline)."""
    arch = _half(config) if half_rf else config
    apps = REGISTER_RELAXED_APPS if half_rf else OCCUPANCY_LIMITED_APPS
    plan = []
    for name in apps:
        es = get_app(name).expected_es
        plan.append(
            (name,
             _job(name, config, "baseline"),
             _job(name, arch, "regmutex-paired", extended_set_size=es),
             _rm(name, arch, es))
        )

    def build(results: JobResults) -> list[Fig12Row]:
        rows = []
        for name, ref_job, paired_job, default_job in plan:
            ref = results[ref_job]
            paired, default = results[paired_job], results[default_job]
            metric = (
                paired.increase_vs(ref) if half_rf
                else paired.reduction_vs(ref)
            )
            metric_default = (
                default.increase_vs(ref) if half_rf
                else default.reduction_vs(ref)
            )
            rows.append(
                Fig12Row(
                    app=name,
                    metric=metric,
                    occupancy_paired=paired.theoretical_occupancy,
                    metric_default=metric_default,
                )
            )
        return rows

    jobs = tuple(j for entry in plan for j in entry[1:])
    return ExperimentSpec("fig12b" if half_rf else "fig12a", jobs, build)


# ---------------------------------------------------------------------------
# Figure 13 — acquire success, default vs paired
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig13Row:
    """Acquire success, default vs paired, for one app (Figure 13)."""

    app: str
    arch: str  # "baseline" | "half-rf"
    success_default: float
    success_paired: float


def fig13_spec(config: GpuConfig = GTX480) -> ExperimentSpec:
    """Figure 13: acquire success rates, default vs paired, all 16 apps."""
    half = _half(config)
    plan = []
    for name in OCCUPANCY_LIMITED_APPS + REGISTER_RELAXED_APPS:
        spec = get_app(name)
        arch = config if spec.group == "occupancy-limited" else half
        plan.append(
            (name,
             "baseline" if spec.group == "occupancy-limited" else "half-rf",
             _rm(name, arch, spec.expected_es),
             _job(name, arch, "regmutex-paired",
                  extended_set_size=spec.expected_es))
        )

    def build(results: JobResults) -> list[Fig13Row]:
        rows = []
        for name, arch_label, default_job, paired_job in plan:
            rows.append(
                Fig13Row(
                    app=name,
                    arch=arch_label,
                    success_default=results[default_job].acquire_success_rate,
                    success_paired=results[paired_job].acquire_success_rate,
                )
            )
        return rows

    jobs = tuple(j for entry in plan for j in entry[2:])
    return ExperimentSpec("fig13", jobs, build)


# ---------------------------------------------------------------------------
# §III-B / §IV-C — hardware storage overhead
# ---------------------------------------------------------------------------

def storage_overhead_comparison(
    config: GpuConfig = GTX480,
) -> dict[str, StorageBudget]:
    """Per-SM added storage of every technique (§III-B1 / §IV-C)."""
    return {
        "regmutex": regmutex_storage_bits(config),
        "regmutex-paired": paired_storage_bits(config),
        "rfv": rfv_storage_bits(config),
        "owf": owf_storage_bits(config),
    }


# Zero-argument spec builders for every simulation-backed figure — the
# orchestrated entry points (`repro bench`, benchmark-session prewarm,
# EXPERIMENTS.md regeneration) iterate this to get the whole suite's job
# set in one deduplicated batch.
FIGURE_SPECS: dict[str, callable] = {
    "fig7": fig7_spec,
    "fig8": fig8_spec,
    "fig9a": fig9a_spec,
    "fig9b": fig9b_spec,
    "fig10": fig10_spec,
    "fig11": fig11_spec,
    "fig12a": lambda: fig12_spec(half_rf=False),
    "fig12b": lambda: fig12_spec(half_rf=True),
    "fig13": fig13_spec,
}


def figure_spec(
    name: str, apps: tuple[str, ...] | None = None
) -> ExperimentSpec:
    """Build one figure spec by name, forwarding ``apps`` where the
    factory takes it (fig12*/fig13 have fixed app sets).

    The one resolution path the CLI (``repro bench``, ``repro <figure>``),
    :func:`run_figure` and the service daemon (named-experiment
    submissions) use; raises ``KeyError`` listing the known names on a
    typo.
    """
    import inspect

    try:
        factory = FIGURE_SPECS[name]
    except KeyError:
        known = ", ".join(sorted(FIGURE_SPECS))
        raise KeyError(f"unknown figure {name!r} (known: {known})") from None
    if apps and "apps" in inspect.signature(factory).parameters:
        return factory(apps=tuple(apps))
    return factory()


def run_figure(
    name: str, runner: ExperimentRunner, apps: tuple[str, ...] | None = None
) -> list:
    """Run one named figure in-process through the runner's store and
    return its rows."""
    spec = figure_spec(name, apps)
    return Orchestrator(runner).run_specs([spec])[spec.name]
