//! Regression tests for the golden checkpoint library's core guarantee:
//! a campaign's trial vector is **bit-identical** however the library
//! serves its points, at every thread count and for both backends — the
//! library may only change who pays the golden warm-up, never what a
//! trial reports.
//!
//! A cold library serves every point from its frontier: one golden
//! machine walked forward through the sorted points, which is the serial
//! sweep itself. A warm library — a repeat campaign in the same process
//! — serves every point from the nearest checkpoint at or before it,
//! stepped forward to the point. So a cold run is the library-off
//! reference, and every warm run must reproduce it. The simulators are
//! deterministic, and every snapshot serve is fingerprint-verified
//! against its capture (debug-asserted inside the library).
//!
//! Checkpoint libraries are memoized process-wide by
//! `(domain, workload, config, stride)`, and the whole test binary is
//! one process — so each test uses a stride of its own, making its
//! first run provably cold and later runs provably warm.

use restore_inject::{
    run_arch_campaign_with_stats, run_uarch_campaign_with_stats, ArchCampaignConfig, CampaignStats,
    PruneMode, UarchCampaignConfig,
};
use restore_workloads::Scale;
use std::fmt::Debug;

/// Small plan, small window: fast enough for the exhaustive debug-build
/// reference.
fn uarch_cfg(threads: usize, ckpt: u64) -> UarchCampaignConfig {
    UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 4,
        warmup_cycles: 500,
        window_cycles: 1_500,
        drain_cycles: 1_000,
        seed: 0xCAFE,
        threads,
        ckpt_stride: ckpt,
        ..UarchCampaignConfig::default()
    }
}

fn arch_cfg(threads: usize, ckpt: u64) -> ArchCampaignConfig {
    ArchCampaignConfig {
        scale: Scale::smoke(),
        trials_per_workload: 12,
        window: 120_000,
        seed: 0xCAFE,
        threads,
        ckpt_stride: ckpt,
        ..ArchCampaignConfig::default()
    }
}

/// Runs a campaign cold at 1 thread, then warm at 1, 2 and 4: the
/// trials and cycle accounting never move, the first run is served
/// entirely from the frontier, and every repeat entirely from
/// snapshots, skipping warm-up.
fn warm_runs_match_the_cold_run<T: PartialEq + Debug>(
    run: impl Fn(usize) -> (Vec<T>, CampaignStats),
) {
    let (cold, s_cold) = run(1);
    assert!(!cold.is_empty());
    assert_eq!(s_cold.checkpoint_misses, s_cold.units, "the first run must be cold");
    for threads in [1, 2, 4] {
        let (got, s) = run(threads);
        assert_eq!(got, cold, "snapshot serves diverged at {threads} threads");
        assert_eq!(s.checkpoint_hits, s.units, "repeat campaigns must run warm");
        assert!(s.warmup_cycles_saved > 0, "warm runs past the first stride must skip warm-up");
        // The library must not perturb the cutoff's cycle accounting.
        assert_eq!(s.cycles_simulated, s_cold.cycles_simulated);
        assert_eq!(s.cycles_saved, s_cold.cycles_saved);
    }
}

#[test]
fn uarch_library_on_equals_off_at_every_thread_count() {
    warm_runs_match_the_cold_run(|threads| run_uarch_campaign_with_stats(&uarch_cfg(threads, 930)));
}

#[test]
fn arch_library_on_equals_off_at_every_thread_count() {
    warm_runs_match_the_cold_run(|threads| run_arch_campaign_with_stats(&arch_cfg(threads, 1_170)));
}

/// The fast path's three layers compose: snapshot serves, the
/// reconvergence cutoff and the interval map, audited trial by trial
/// against the exhaustive reference (no cutoff, no map), reproduce a
/// cold unpruned run, and `simulated + saved + pruned` still accounts
/// for its window cycles.
#[test]
fn library_composes_with_cutoff_and_pruning() {
    let (baseline, s_plain) = run_uarch_campaign_with_stats(&uarch_cfg(1, 1_210));
    let stacked = UarchCampaignConfig { prune: PruneMode::Audit, ..uarch_cfg(4, 1_210) };
    let (got, s) = run_uarch_campaign_with_stats(&stacked);
    assert_eq!(got, baseline, "stacked layers changed trial results");
    assert_eq!(s.checkpoint_hits, s.units, "the stacked run is served from snapshots");
    assert!(s.trials_cut > 0 && s.trials_pruned > 0, "both trial layers fired: {s}");
    assert_eq!(
        s.cycles_simulated + s.cycles_saved + s.cycles_pruned,
        s_plain.cycles_simulated + s_plain.cycles_saved,
        "simulated + saved + pruned must account for the unpruned run's cycles"
    );
}
