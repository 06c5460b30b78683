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
//! one process — so each cold run uses a stride of its own, making it
//! provably cold and later runs at that stride provably warm.

use restore_inject::{
    run_arch_campaign_io, run_uarch_campaign_io, ArchCampaignConfig, CampaignStats, PruneMode,
    Shard, UarchCampaignConfig,
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

/// Runs a campaign cold at 1, 2 and 4 threads, each at a stride of its
/// own so every one of those runs is provably cold, then warm at 1, 2
/// and 4 at the first run's stride: the trials and cycle accounting
/// never move, every cold run is served entirely from the frontier
/// (workers claim points in plan order, so the frontier only walks
/// forward), and every repeat entirely from snapshots, skipping
/// warm-up.
fn warm_runs_match_the_cold_run<T: PartialEq + Debug>(
    strides: [u64; 3],
    run: impl Fn(usize, u64) -> (Vec<T>, CampaignStats),
) {
    let (cold, s_cold) = run(1, strides[0]);
    assert!(!cold.is_empty());
    assert_eq!(s_cold.checkpoint_misses, s_cold.units, "the first run must be cold");
    for (threads, stride) in [(2, strides[1]), (4, strides[2])] {
        let (got, s) = run(threads, stride);
        assert_eq!(got, cold, "cold frontier serves diverged at {threads} threads");
        assert_eq!(s.units, s_cold.units);
        assert_eq!(s.checkpoint_misses, s.units, "a fresh stride must run cold at {threads}");
        assert_eq!(s.cycles_simulated, s_cold.cycles_simulated);
        assert_eq!(s.cycles_saved, s_cold.cycles_saved);
    }
    for threads in [1, 2, 4] {
        let (got, s) = run(threads, strides[0]);
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
    warm_runs_match_the_cold_run([930, 940, 950], |threads, stride| {
        run_uarch_campaign_io(&uarch_cfg(threads, stride), None, Shard::ALL)
    });
}

#[test]
fn arch_library_on_equals_off_at_every_thread_count() {
    warm_runs_match_the_cold_run([1_170, 1_180, 1_190], |threads, stride| {
        run_arch_campaign_io(&arch_cfg(threads, stride), None, Shard::ALL)
    });
}

/// The fast path's three layers compose: snapshot serves, the
/// reconvergence cutoff and the interval map, audited trial by trial
/// against the exhaustive reference (no cutoff, no map), reproduce a
/// cold unpruned run, and `simulated + saved + pruned` still accounts
/// for its window cycles.
#[test]
fn library_composes_with_cutoff_and_pruning() {
    let (baseline, s_plain) = run_uarch_campaign_io(&uarch_cfg(1, 1_210), None, Shard::ALL);
    let stacked = UarchCampaignConfig { prune: PruneMode::Audit, ..uarch_cfg(4, 1_210) };
    let (got, s) = run_uarch_campaign_io(&stacked, None, Shard::ALL);
    assert_eq!(got, baseline, "stacked layers changed trial results");
    assert_eq!(s.checkpoint_hits, s.units, "the stacked run is served from snapshots");
    assert!(s.trials_cut > 0 && s.trials_pruned > 0, "both trial layers fired: {s}");
    assert_eq!(
        s.cycles_simulated + s.cycles_saved + s.cycles_pruned,
        s_plain.cycles_simulated + s_plain.cycles_saved,
        "simulated + saved + pruned must account for the unpruned run's cycles"
    );
}
