//! Regression tests for the reconvergence cutoff's core guarantee: a
//! µarch campaign's trial vector is **bit-identical** to the exhaustive
//! run's, at every thread count — the cutoff may only change how many
//! cycles get simulated, never what a trial reports.
//!
//! Campaigns always cut, at a fixed stride. The exhaustive run is
//! `PruneMode::Audit`'s reference: every trial also runs with no cutoff
//! and no map, and must return the fast path's record after simulating
//! exactly the window the fast path planned (`simulated + saved +
//! pruned`). A passing audit run is therefore the exhaustive baseline,
//! and `Off` runs, which put every trial through the cutoff, must
//! reproduce it.
//!
//! The full-machine fingerprint makes this sound: equal fingerprints at
//! a stride boundary mean equal complete machine state, and the
//! simulator is deterministic, so the remainder of the faulty window is
//! literally the golden run's remainder (see
//! `crates/uarch/tests/fingerprint_reconvergence.rs` for the
//! state-level property).

use restore_inject::{
    run_uarch_campaign_io, CampaignStats, InjectionTarget, PruneMode, Shard, UarchCampaignConfig,
};

/// Small plan, small window: fast enough to run the reference in debug
/// builds.
fn small_cfg(target: InjectionTarget, threads: usize, prune: PruneMode) -> UarchCampaignConfig {
    UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 4,
        warmup_cycles: 500,
        window_cycles: 1_500,
        drain_cycles: 1_000,
        seed: 0xC0FF,
        target,
        threads,
        prune,
        ..UarchCampaignConfig::default()
    }
}

fn planned(s: &CampaignStats) -> u64 {
    s.cycles_simulated + s.cycles_saved + s.cycles_pruned
}

/// Audits `target`'s campaign once, then runs it with the cutoff alone
/// at 1, 2 and 4 threads against the audited vector.
fn cut_runs_match_the_reference(target: InjectionTarget) {
    let (baseline, audited) =
        run_uarch_campaign_io(&small_cfg(target, 1, PruneMode::Audit), None, Shard::ALL);
    assert!(!baseline.is_empty());
    for threads in [1, 2, 4] {
        let (got, stats) =
            run_uarch_campaign_io(&small_cfg(target, threads, PruneMode::Off), None, Shard::ALL);
        assert_eq!(got, baseline, "{target:?}: cutoff diverged at {threads} threads");
        assert!(
            stats.trials_cut > 0 && stats.cycles_saved > 0,
            "{target:?}: expected some reconvergent trials to be cut at {threads} threads"
        );
        assert_eq!(
            planned(&stats),
            planned(&audited),
            "{target:?}: simulated + saved must account for the exhaustive run's cycles"
        );
    }
}

#[test]
fn cutoff_on_equals_cutoff_off_at_every_thread_count() {
    cut_runs_match_the_reference(InjectionTarget::AllState);
}

#[test]
fn cutoff_on_equals_cutoff_off_for_latch_campaign() {
    cut_runs_match_the_reference(InjectionTarget::LatchesOnly);
}

/// Acceptance check for the cutoff itself: with the default 10 000-cycle
/// window and the fixed cutoff stride, a campaign skips at least 30 % of
/// the window cycles it simulates or cuts (most flips are masked and
/// reconverge within a few hundred cycles). An `Audit` run, so every
/// trial is also run exhaustively and must agree with its cut record.
/// Plan size is shrunk so the reference stays affordable in debug
/// builds; window, warm-up and drain are the defaults that set the
/// reconvergence behaviour.
#[test]
fn default_window_cutoff_saves_at_least_30_percent() {
    let cfg = UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 4,
        seed: 0xF4F5,
        threads: 2,
        prune: PruneMode::Audit,
        ..UarchCampaignConfig::default()
    };
    let (trials, stats) = run_uarch_campaign_io(&cfg, None, Shard::ALL);
    assert!(!trials.is_empty());
    assert!(
        stats.cycles_saved_fraction() >= 0.30,
        "cutoff saved only {:.1}% of window cycles: {}",
        100.0 * stats.cycles_saved_fraction(),
        stats
    );
}
