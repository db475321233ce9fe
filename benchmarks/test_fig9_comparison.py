"""Figure 9 — comparison with OWF (Jatala et al.) and RFV (Jeon et al.).

Paper shape, baseline architecture (9a): average reductions 1.9% (OWF),
16.2% (RFV), 12.8% (RegMutex) — both RFV and RegMutex far ahead of OWF,
RFV modestly ahead of RegMutex (at >81x the storage cost).

Half register file (9b): average increases 22.9% (nothing), 20.6% (OWF),
5.9% (RFV), 10.8% (RegMutex).
"""

from repro.harness.experiments import run_figure
from repro.harness.reporting import format_table, percent
from benchmarks.conftest import run_once


def test_fig9a_comparison_baseline(benchmark, runner):
    rows = run_once(benchmark, run_figure, "fig9a", runner)

    print("\n" + format_table(
        ["app", "OWF", "RFV", "RegMutex"],
        [[r.app, percent(r.reduction_owf), percent(r.reduction_rfv),
          percent(r.reduction_regmutex)] for r in rows],
        title="Figure 9a — cycle reduction vs baseline (higher is better)",
    ))
    n = len(rows)
    avg_owf = sum(r.reduction_owf for r in rows) / n
    avg_rfv = sum(r.reduction_rfv for r in rows) / n
    avg_rm = sum(r.reduction_regmutex for r in rows) / n
    print(f"averages: OWF {percent(avg_owf)} (paper +1.9%), "
          f"RFV {percent(avg_rfv)} (paper +16.2%), "
          f"RegMutex {percent(avg_rm)} (paper +12.8%)")

    assert n == 8
    # Ordering: RFV >= RegMutex >> OWF.
    assert avg_rfv >= avg_rm
    assert avg_rm > avg_owf + 0.05
    # Magnitudes in the paper's neighbourhood.
    assert -0.05 <= avg_owf <= 0.08
    assert 0.10 <= avg_rfv <= 0.25
    assert 0.08 <= avg_rm <= 0.20


def test_fig9b_comparison_half_rf(benchmark, runner):
    rows = run_once(benchmark, run_figure, "fig9b", runner)

    print("\n" + format_table(
        ["app", "no technique", "OWF", "RFV", "RegMutex"],
        [[r.app, percent(r.increase_none), percent(r.increase_owf),
          percent(r.increase_rfv), percent(r.increase_regmutex)]
         for r in rows],
        title="Figure 9b — cycle increase on half RF (lower is better)",
    ))
    n = len(rows)
    avg_none = sum(r.increase_none for r in rows) / n
    avg_owf = sum(r.increase_owf for r in rows) / n
    avg_rfv = sum(r.increase_rfv for r in rows) / n
    avg_rm = sum(r.increase_regmutex for r in rows) / n
    print(f"averages: none {percent(avg_none)} (paper +22.9%), "
          f"OWF {percent(avg_owf)} (paper +20.6%), "
          f"RFV {percent(avg_rfv)} (paper +5.9%), "
          f"RegMutex {percent(avg_rm)} (paper +10.8%)")

    assert n == 8
    # Ordering: nothing ~ OWF (worst) > RegMutex > RFV (best).
    assert avg_none > avg_rm
    assert avg_owf > avg_rm
    assert avg_rm >= avg_rfv - 0.02
    # RegMutex recovers more than half of the bare slowdown.
    assert avg_rm < avg_none * 0.65
