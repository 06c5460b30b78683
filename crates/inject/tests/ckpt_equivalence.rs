//! Regression tests for the golden checkpoint library's core guarantee:
//! a campaign whose points materialize from strided checkpoints
//! (`ckpt_stride > 0`) produces a trial vector **bit-identical** to the
//! serial-sweeper campaign (`ckpt_stride == 0`), at every thread count
//! and for both backends — the library may only change who pays the
//! golden warm-up, never what a trial reports.
//!
//! The argument: the simulators are deterministic, so a machine cloned
//! at a checkpoint and stepped to the injection coordinate is
//! bit-identical to one swept there serially, and every restore is
//! fingerprint-verified against its capture (debug-asserted inside
//! `restore_snapshot`). These tests close the loop end-to-end at the
//! campaign level.
//!
//! Checkpoint libraries are memoized process-wide by
//! `(domain, workload, config, stride)`, and the whole test binary is
//! one process — so each test uses a stride of its own, making its
//! first library-backed run provably cold and later runs provably warm.

use restore_inject::{
    run_arch_campaign_with_stats, run_uarch_campaign_with_stats, ArchCampaignConfig, PruneMode,
    UarchCampaignConfig,
};
use restore_workloads::Scale;

/// Small plan, small window: fast enough for the exhaustive debug-build
/// reference. `ckpt` is the checkpoint knob under test (0 = serial).
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

#[test]
fn uarch_library_on_equals_off_at_every_thread_count() {
    let (baseline, s_off) = run_uarch_campaign_with_stats(&uarch_cfg(1, 0));
    assert!(!baseline.is_empty());
    assert_eq!(s_off.checkpoint_hits, 0, "serial producer must report no checkpoint serves");
    assert_eq!(s_off.checkpoint_misses, 0);
    assert_eq!(s_off.warmup_cycles_saved, 0);

    for (run, threads) in [1usize, 2, 4].into_iter().enumerate() {
        let (got, s_on) = run_uarch_campaign_with_stats(&uarch_cfg(threads, 930));
        assert_eq!(got, baseline, "checkpoint library diverged at {threads} threads");
        assert_eq!(s_on.units, s_off.units);
        assert_eq!(
            s_on.checkpoint_hits + s_on.checkpoint_misses,
            s_on.units,
            "every library-mode unit is either a warm hit or a cold capture"
        );
        if run == 0 {
            assert_eq!(s_on.checkpoint_misses, s_on.units, "first library run must be cold");
        } else {
            assert_eq!(s_on.checkpoint_hits, s_on.units, "repeat campaigns must run warm");
            assert!(
                s_on.warmup_cycles_saved > 0,
                "warm runs past the first stride must skip warm-up cycles"
            );
        }
        // The library must not perturb the cutoff's cycle accounting.
        assert_eq!(s_on.cycles_simulated, s_off.cycles_simulated);
        assert_eq!(s_on.cycles_saved, s_off.cycles_saved);
    }
}

#[test]
fn arch_library_on_equals_off_at_every_thread_count() {
    let (baseline, s_off) = run_arch_campaign_with_stats(&arch_cfg(1, 0));
    assert!(!baseline.is_empty());
    assert_eq!(s_off.checkpoint_hits + s_off.checkpoint_misses, 0);

    for (run, threads) in [1usize, 2, 4].into_iter().enumerate() {
        let (got, s_on) = run_arch_campaign_with_stats(&arch_cfg(threads, 1_170));
        assert_eq!(got, baseline, "checkpoint library diverged at {threads} threads");
        assert_eq!(s_on.units, s_off.units);
        assert_eq!(s_on.checkpoint_hits + s_on.checkpoint_misses, s_on.units);
        if run == 0 {
            assert_eq!(s_on.checkpoint_misses, s_on.units, "first library run must be cold");
        } else {
            assert_eq!(s_on.checkpoint_hits, s_on.units, "repeat campaigns must run warm");
            assert!(s_on.warmup_cycles_saved > 0);
        }
        assert_eq!(s_on.cycles_simulated, s_off.cycles_simulated);
        assert_eq!(s_on.cycles_saved, s_off.cycles_saved);
    }
}

/// The three result-neutral optimisations compose: checkpoint library +
/// reconvergence cutoff + interval pruning against the fully serial,
/// exhaustive, unpruned reference — trials bit-identical and the
/// extended cycle invariant `simulated + saved + pruned` intact.
#[test]
fn library_composes_with_cutoff_and_pruning() {
    let plain = UarchCampaignConfig { cutoff_stride: 0, prune: PruneMode::Off, ..uarch_cfg(1, 0) };
    let stacked = UarchCampaignConfig {
        cutoff_stride: 100,
        prune: PruneMode::Interval,
        ..uarch_cfg(4, 1_210)
    };
    let (baseline, s_plain) = run_uarch_campaign_with_stats(&plain);
    let (got, s_stacked) = run_uarch_campaign_with_stats(&stacked);
    assert_eq!(got, baseline, "stacked optimisations changed trial results");
    assert_eq!(
        s_stacked.cycles_simulated + s_stacked.cycles_saved + s_stacked.cycles_pruned,
        s_plain.cycles_simulated + s_plain.cycles_saved,
        "simulated + saved + pruned must account for the exhaustive run's cycles"
    );
    assert_eq!(s_stacked.checkpoint_hits + s_stacked.checkpoint_misses, s_stacked.units);
}
