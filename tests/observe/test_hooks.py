"""Observer hook tests against real simulator runs.

The two invariants the subsystem promises live here:

* **neutrality** — attaching an observer changes nothing about the
  simulation (bit-identical ``SmStats``);
* **stall consistency** — the per-cycle STALL event stream sums to the
  aggregate ``SmStats`` stall counters exactly, per category.
"""

from dataclasses import asdict

import pytest

from repro.observe import (
    ACQUIRE_BLOCKED,
    ACQUIRE_OK,
    CTA_LAUNCH,
    CTA_RETIRE,
    ISSUE,
    RELEASE,
    SECTION_ACQUIRE,
    SECTION_RELEASE,
    STALL_CATEGORIES,
    WARP_FINISH,
    EventBus,
    SmObserver,
)


class TestEventEmission:
    def test_issue_events_cover_every_instruction(self, run_sm,
                                                  regmutex_kernel):
        obs, stats, _ = run_sm(regmutex_kernel())
        issues = obs.log.of_kind(ISSUE)
        assert len(issues) == 2 * 16  # 2 warps x 16 instructions
        assert len(issues) == stats.instructions_issued
        assert all(e.detail for e in issues)  # opcode label attached

    def test_acquire_release_and_finish(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel())
        assert len(obs.log.of_kind(ACQUIRE_OK)) == 2
        assert len(obs.log.of_kind(RELEASE)) == 2
        assert len(obs.log.of_kind(WARP_FINISH)) == 2
        assert not obs.log.of_kind(ACQUIRE_BLOCKED)  # 2 sections, 2 warps

    def test_contention_emits_blocked_events(self, run_sm, regmutex_kernel):
        obs, stats, _ = run_sm(regmutex_kernel(), sections=1)
        blocked = obs.log.of_kind(ACQUIRE_BLOCKED)
        assert blocked
        assert stats.acquire_attempts > stats.acquire_successes

    def test_cta_lifecycle_events(self, run_sm, regmutex_kernel):
        # The initial fill (2 resident CTAs) happens in the SM
        # constructor, before any observer exists; only replacement
        # launches are observable — every retire is.
        obs, _, _ = run_sm(regmutex_kernel(), total_ctas=3)
        launches = obs.log.of_kind(CTA_LAUNCH)
        assert [e.value for e in launches] == [2]
        assert len(obs.log.of_kind(CTA_RETIRE)) == 3

    def test_srp_section_transitions(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel())
        acquires = obs.log.of_kind(SECTION_ACQUIRE)
        releases = obs.log.of_kind(SECTION_RELEASE)
        assert len(acquires) == len(releases) == 2
        assert all(0 <= e.value < 2 for e in acquires)  # section index

    def test_holds_serialized_under_one_section(self, run_sm,
                                                regmutex_kernel):
        """With a single section the two warps' hold intervals must not
        overlap — the mutual-exclusion property, observed end to end."""
        obs, _, _ = run_sm(regmutex_kernel(), sections=1)
        (a_start, a_end), = obs.log.hold_intervals(0)
        (b_start, b_end), = obs.log.hold_intervals(1)
        assert a_end <= b_start or b_end <= a_start

    def test_events_cycle_ordered(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=2)
        cycles = [e.cycle for e in obs.log]
        assert cycles == sorted(cycles)


class TestStallConsistency:
    def test_stall_stream_sums_to_aggregate_counters(self, run_sm,
                                                     regmutex_kernel):
        """The satellite invariant: per-cycle STALL deltas reconstruct
        the SmStats stall breakdown exactly, category by category."""
        obs, stats, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=4)
        totals = obs.log.stall_totals()
        for category in STALL_CATEGORIES:
            assert totals.get(category, 0) == getattr(
                stats, f"stall_{category}"
            ), category
        # The workload is contended enough to make the test non-vacuous.
        assert stats.stall_memory > 0
        assert stats.stall_acquire > 0

    def test_no_phantom_categories(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=4)
        assert set(obs.log.stall_totals()) <= set(STALL_CATEGORIES)


class TestNeutrality:
    def test_observed_run_is_bit_identical(self, run_sm, regmutex_kernel):
        _, plain, plain_sm = run_sm(regmutex_kernel(), sections=1,
                                    total_ctas=4, observe=False)
        obs, observed, observed_sm = run_sm(regmutex_kernel(), sections=1,
                                            total_ctas=4)
        assert observed_sm.cycle == plain_sm.cycle
        assert asdict(observed) == asdict(plain)
        assert len(obs.log) > 0  # the observer actually observed


class TestObserverLifecycle:
    def test_attach_twice_rejected(self, run_sm, regmutex_kernel,
                                   config):
        from repro.regmutex.issue_logic import RegMutexSmState
        from repro.sim.rand import DeterministicRng
        from repro.sim.sm import StreamingMultiprocessor
        from repro.sim.stats import SmStats

        kernel = regmutex_kernel()
        stats = SmStats()
        sm = StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel,
            technique_state=RegMutexSmState(kernel, config, stats,
                                            num_sections=2),
            ctas_resident_limit=2, total_ctas=1,
            rng=DeterministicRng(1), stats=stats,
        )
        SmObserver().attach(sm)
        with pytest.raises(ValueError, match="already has an observer"):
            SmObserver().attach(sm)

    def test_collect_log_false_keeps_probes_only(self, run_sm,
                                                 regmutex_kernel):
        obs, _, sm = run_sm(regmutex_kernel(),
                            observer=SmObserver(collect_log=False))
        assert obs.log is None
        assert len(obs.samples) > 0

    def test_kind_filtered_subscriber_on_live_run(self, run_sm,
                                                  regmutex_kernel):
        bus, releases = EventBus(), []
        bus.subscribe(releases.append, kind=RELEASE)
        obs, _, _ = run_sm(regmutex_kernel(), observer=SmObserver(bus=bus))
        assert len(releases) == 2
        assert releases == obs.log.of_kind(RELEASE)

    def test_final_sample_lands_on_last_cycle(self, run_sm,
                                              regmutex_kernel):
        obs, _, sm = run_sm(regmutex_kernel(), stride=1000)
        assert obs.samples.cycle[-1] == sm.cycle


class TestDelegation:
    def test_wrapper_preserves_technique_behaviour(self, run_sm,
                                                   regmutex_kernel):
        obs, stats, sm = run_sm(regmutex_kernel())
        # The observed SM's installed state is the wrapper; its queries
        # answer from the wrapped RegMutex state.
        assert sm.technique.srp_view() == sm.technique.inner.srp_view()
        assert sm.technique.debug_snapshot() == \
            sm.technique.inner.debug_snapshot()
