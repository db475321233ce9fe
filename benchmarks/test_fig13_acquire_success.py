"""Figure 13 — acquire success rate, default RegMutex vs paired-warps.

Paper shape: the specialization's guaranteed partner raises the success
rate relative to the communal pool on contended apps (the left 8 apps
run on the baseline architecture, the right 8 on the halved file).
"""

from repro.harness.experiments import run_figure
from repro.harness.reporting import format_table
from benchmarks.conftest import run_once


def test_fig13_acquire_success(benchmark, runner):
    rows = run_once(benchmark, run_figure, "fig13", runner)

    print("\n" + format_table(
        ["app", "architecture", "success (default)", "success (paired)"],
        [[r.app, r.arch, f"{r.success_default:.0%}",
          f"{r.success_paired:.0%}"] for r in rows],
        title="Figure 13 — successful acquires among all acquire attempts",
    ))

    assert len(rows) == 16
    assert sum(r.arch == "baseline" for r in rows) == 8
    assert sum(r.arch == "half-rf" for r in rows) == 8

    for r in rows:
        assert 0.0 <= r.success_default <= 1.0
        assert 0.0 <= r.success_paired <= 1.0

    # On the apps where the communal pool is contended, pairing's
    # exclusive-partner guarantee raises the success rate.
    contended = [r for r in rows if r.success_default < 0.9]
    assert contended, "expected at least one contended app"
    improved = sum(
        r.success_paired > r.success_default - 0.02 for r in contended
    )
    assert improved >= len(contended) // 2
