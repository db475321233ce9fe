"""Wiring tests for the figure specs, using canned records.

The benchmark suite runs the specs against the real simulator; these
tests pin the *plumbing* — which technique each figure runs on which
architecture (read from ``spec.jobs``), and how rows are derived from
records (``spec.build_rows`` over canned results) — without paying for
simulation.
"""

from __future__ import annotations

import pytest

from repro.arch.config import GTX480
from repro.harness import experiments as E
from repro.harness.runner import RunRecord
from repro.harness.spec import ExperimentSpec, JobResults, JobSpec

# Cycles keyed by technique so reductions are deterministic.
_CYCLES = {
    "baseline": 1000,
    "regmutex": 880,
    "regmutex-paired": 920,
    "owf": 990,
    "rfv": 850,
}


def canned_record(job: JobSpec) -> RunRecord:
    kind = job.technique.kind
    return RunRecord(
        kernel_name=job.app,
        config_name=job.config.name,
        technique=kind,
        cycles=_CYCLES[kind],
        ctas_total=10,
        ctas_per_sm_resident=2,
        cycles_per_cta=float(_CYCLES[kind]),
        theoretical_occupancy=0.75 if kind == "baseline" else 1.0,
        acquire_attempts=100,
        acquire_successes=90,
        release_count=90,
        instructions_issued=10_000,
        stall_acquire=5,
        stall_memory=50,
    )


def rows(spec: ExperimentSpec) -> list:
    return spec.build_rows(
        JobResults({job: canned_record(job) for job in spec.jobs})
    )


def techniques(spec: ExperimentSpec) -> list[str]:
    return [job.technique.kind for job in spec.jobs]


def configs(spec: ExperimentSpec) -> list[str]:
    return [job.config.name for job in spec.jobs]


class TestFig7Wiring:
    def test_runs_baseline_and_regmutex_on_full_rf(self):
        spec = E.fig7_spec(apps=("BFS",))
        assert techniques(spec) == ["baseline", "regmutex"]
        assert all(c == GTX480.name for c in configs(spec))
        (row,) = rows(spec)
        assert row.cycle_reduction == pytest.approx(0.12)
        assert row.occupancy_init == 0.75
        assert row.occupancy_regmutex == 1.0

    def test_acquire_rate_propagated(self):
        (row,) = rows(E.fig7_spec(apps=("BFS",)))
        assert row.acquire_success_rate == pytest.approx(0.9)


class TestFig8Wiring:
    def test_configs(self):
        names = configs(E.fig8_spec(apps=("Gaussian",)))
        assert names[0] == GTX480.name          # full-file reference
        assert all("half" in c.lower() for c in names[1:])

    def test_increase_vs_full_reference(self):
        (row,) = rows(E.fig8_spec(apps=("Gaussian",)))
        # Canned baselines take 1000 cycles regardless of config, so
        # the bare increase is zero and RegMutex shows its gain.
        assert row.increase_no_technique == pytest.approx(0.0)
        assert row.increase_regmutex == pytest.approx(-0.12)


class TestFig9Wiring:
    def test_three_techniques_plus_base(self):
        assert techniques(E.fig9a_spec(apps=("BFS",))) == [
            "baseline", "owf", "rfv", "regmutex"
        ]

    def test_reductions(self):
        (row,) = rows(E.fig9a_spec(apps=("BFS",)))
        assert row.reduction_owf == pytest.approx(0.01)
        assert row.reduction_rfv == pytest.approx(0.15)
        assert row.reduction_regmutex == pytest.approx(0.12)

    def test_9b_runs_on_half_rf(self):
        names = configs(E.fig9b_spec(apps=("Gaussian",)))
        assert sum("half" in c.lower() for c in names) == 4


class TestFig10And11Wiring:
    def test_sweep_covers_all_es(self):
        sweep = rows(E.fig10_spec(apps=("BFS",)))
        assert [r.es for r in sweep] == list(E.ES_SWEEP)
        assert sum(r.is_heuristic_pick for r in sweep) == 1

    def test_fig11_active_flag(self):
        sweep = rows(E.fig11_spec(apps=("BFS",)))
        assert all(r.active for r in sweep)  # canned records all acquire


class TestFig12And13Wiring:
    def test_12a_uses_paired_and_default(self):
        kinds = set(techniques(E.fig12_spec(half_rf=False)))
        assert {"baseline", "regmutex", "regmutex-paired"} <= kinds

    def test_13_covers_all_sixteen(self):
        assert len(rows(E.fig13_spec())) == 16
