//! Regression tests for static interval pruning's core guarantee: a
//! campaign run with `prune: Interval` produces a trial vector
//! **bit-identical** to the unpruned run, at every thread count, for
//! both injection targets and in both fault domains — the
//! masking-interval map may only change how many windows get simulated,
//! never what a trial reports. Every planned window cycle is accounted
//! exactly once: `simulated + saved + pruned` equals the unpruned run's
//! `simulated + saved`.
//!
//! `prune: Audit` is the belt-and-braces version of the same claim: it
//! simulates every map-pruned trial anyway and asserts the predicted
//! record inside `run_trial` itself, so a passing audit run *is* the
//! equivalence proof for exactly the trials it pruned.
//!
//! The map is also exercised through its persistence path: campaigns
//! given a `map_dir` must write the per-workload map files there and
//! produce the same trial vector when a later run loads them back.

use restore_inject::{
    run_arch_campaign_with_stats, run_uarch_campaign_io, run_uarch_campaign_with_stats,
    uarch_campaign_digest, ArchCampaignConfig, CampaignStats, InjectionTarget, PruneMode, Shard,
    TrialCache, UarchCampaignConfig, UarchTrial,
};
use restore_workloads::Scale;
use std::path::PathBuf;

/// Small plan, small window: fast enough to run many times in debug
/// builds. Every µarch case shares this cycle geometry (one exception
/// is marked), so the process-wide map registry builds each workload's
/// map once for the whole binary.
fn small_cfg(threads: usize, prune: PruneMode) -> UarchCampaignConfig {
    UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 4,
        warmup_cycles: 500,
        window_cycles: 1_500,
        drain_cycles: 1_000,
        seed: 0x1A7E,
        threads,
        prune,
        ..UarchCampaignConfig::default()
    }
}

/// The hand-written kernels read almost every result before
/// overwriting it, so most seeds draw no map-provable point at this
/// size; this one draws one, which gives the audit something to check.
fn arch_cfg(threads: usize, prune: PruneMode) -> ArchCampaignConfig {
    ArchCampaignConfig {
        scale: Scale::smoke(),
        trials_per_workload: 25,
        window: 150_000,
        seed: 0x1A7F,
        threads,
        prune,
        ..ArchCampaignConfig::default()
    }
}

/// Window cycles planned by a run: the cycle-accounting invariant's
/// left-hand side.
fn planned(s: &CampaignStats) -> u64 {
    s.cycles_simulated + s.cycles_saved + s.cycles_pruned
}

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("restore-interval-equiv-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn uarch_interval_equals_off_at_every_thread_count() {
    let (baseline, stats_off) = run_uarch_campaign_with_stats(&small_cfg(1, PruneMode::Off));
    assert!(!baseline.is_empty());
    assert_eq!(stats_off.trials_pruned, 0, "PruneMode::Off must not consult the map");
    assert_eq!(stats_off.cycles_pruned, 0);
    for threads in [1, 2, 4] {
        let (got, stats) = run_uarch_campaign_with_stats(&small_cfg(threads, PruneMode::Interval));
        assert_eq!(got, baseline, "interval pruning diverged at {threads} threads");
        assert!(
            stats.trials_pruned > 0,
            "expected the map to classify some trials at {threads} threads"
        );
        assert!(stats.cycles_pruned > 0);
        assert_eq!(
            planned(&stats),
            planned(&stats_off),
            "pruned cycles must account for the unpruned run's cycles"
        );
    }
}

#[test]
fn uarch_interval_equals_off_for_latch_campaign() {
    let cfg = |threads, prune| UarchCampaignConfig {
        target: InjectionTarget::LatchesOnly,
        ..small_cfg(threads, prune)
    };
    let (baseline, stats_off) = run_uarch_campaign_with_stats(&cfg(1, PruneMode::Off));
    assert!(!baseline.is_empty());
    for threads in [1, 2, 4] {
        let (got, stats) = run_uarch_campaign_with_stats(&cfg(threads, PruneMode::Interval));
        assert_eq!(got, baseline, "latch campaign diverged at {threads} threads");
        assert!(stats.trials_pruned > 0, "latches draw dead fetch/decode/IQ slots too");
        assert_eq!(planned(&stats), planned(&stats_off));
    }
}

/// Audit mode re-simulates every map-pruned trial and asserts the
/// predicted record inside `run_trial`; the campaign completing at all
/// is the zero-disagreement proof, and its vector must still equal the
/// baseline. An audited trial is charged its window once, as simulated
/// (or cut) cycles — never again as pruned cycles.
#[test]
fn uarch_audit_mode_verifies_map_against_simulation() {
    let (baseline, stats_off) = run_uarch_campaign_with_stats(&small_cfg(1, PruneMode::Off));
    let (got, stats) = run_uarch_campaign_with_stats(&small_cfg(1, PruneMode::Audit));
    assert_eq!(got, baseline, "audit mode changed trial results");
    assert!(stats.trials_pruned > 0, "audit found no map-classified trials to check");
    assert!(stats.cycles_simulated > 0, "audit must still simulate pruned trials");
    assert_eq!(
        planned(&stats),
        planned(&stats_off),
        "audit must charge every planned window cycle exactly once"
    );
}

/// Interval pruning composes with the other throughput levers: the
/// reconvergence cutoff disabled, and the checkpoint library disabled —
/// the trial vector never moves, and the cycle accounting balances
/// against a fully exhaustive run as well as a cut one.
#[test]
fn interval_composes_with_cutoff_and_checkpoint_strides() {
    for (cutoff, ckpt) in [(0u64, 0u64), (0, 450), (250, 0)] {
        let cfg = |prune| UarchCampaignConfig {
            cutoff_stride: cutoff,
            ckpt_stride: ckpt,
            ..small_cfg(1, prune)
        };
        let (baseline, stats_off) = run_uarch_campaign_with_stats(&cfg(PruneMode::Off));
        let (got, stats) = run_uarch_campaign_with_stats(&cfg(PruneMode::Interval));
        assert_eq!(got, baseline, "diverged at cutoff={cutoff} ckpt={ckpt}");
        assert!(stats.trials_pruned > 0);
        if cutoff == 0 {
            assert_eq!(stats_off.cycles_saved, 0);
            assert_eq!(stats.cycles_saved, 0);
        }
        assert_eq!(planned(&stats), planned(&stats_off), "cutoff={cutoff} ckpt={ckpt}");
    }
}

/// The prune mode and map directory are digest-neutral: a store
/// recorded under `Off` serves an `Interval` run (and vice versa)
/// bit-identically, and a campaign given a `map_dir` persists its maps
/// there for later shard sets to load.
#[test]
fn interval_runs_share_stores_with_unpruned_runs_and_persist_maps() {
    // Distinct cycle geometry: the map registry memoizes per
    // (workload, digest) process-wide, and an in-memory hit skips the
    // disk write — this test pins a horizon no other test in the
    // binary uses, so its cold run really builds and persists.
    let geometry = |threads, prune, map_dir| UarchCampaignConfig {
        warmup_cycles: 520,
        window_cycles: 1_520,
        map_dir,
        ..small_cfg(threads, prune)
    };
    let dir = tmp("store");
    let record_cfg = geometry(1, PruneMode::Interval, Some(dir.clone()));
    let replay_cfg = geometry(2, PruneMode::Off, None);
    let digest = uarch_campaign_digest(&record_cfg);
    assert_eq!(
        digest,
        uarch_campaign_digest(&replay_cfg),
        "prune mode and map_dir must not rekey the trial store"
    );

    // Cold interval run recording into the store: the maps land beside
    // the trial segments, one per workload.
    let cache = TrialCache::<UarchTrial>::open(&dir, "all", digest).unwrap();
    let (recorded, stats) = run_uarch_campaign_io(&record_cfg, Some(&cache), Shard::ALL);
    assert!(stats.trials_pruned > 0);
    let maps = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy().into_owned();
            name.starts_with("maskmap-uarch-") && name.ends_with(".json")
        })
        .count();
    assert_eq!(maps, 7, "one persisted map per workload, got {maps}");

    // Warm replay under Off: the prune mode is digest-neutral, so the
    // interval run's records serve it bit-identically with zero
    // simulated cycles.
    let (warm, ws) = run_uarch_campaign_io(&replay_cfg, Some(&cache), Shard::ALL);
    assert_eq!(warm, recorded, "warm replay across prune modes must be bit-identical");
    assert_eq!(ws.cycles_simulated, 0, "warm replay simulates nothing");
    assert_eq!(ws.trials_cached, ws.trials);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn arch_interval_equals_off_at_every_thread_count() {
    let (baseline, stats_off) = run_arch_campaign_with_stats(&arch_cfg(1, PruneMode::Off));
    assert!(!baseline.is_empty());
    assert_eq!(stats_off.trials_pruned, 0);
    for threads in [1, 2, 4] {
        let (got, stats) = run_arch_campaign_with_stats(&arch_cfg(threads, PruneMode::Interval));
        assert_eq!(got, baseline, "arch interval pruning diverged at {threads} threads");
        assert!(stats.trials_pruned > 0, "the map classified nothing at {threads} threads");
        assert_eq!(planned(&stats), planned(&stats_off));
    }
    // Audit: any map-classified trial is re-simulated and asserted
    // identical inside the trial loop itself, and charged its window
    // once, as simulated (or cut) instructions.
    let (audited, stats) = run_arch_campaign_with_stats(&arch_cfg(1, PruneMode::Audit));
    assert_eq!(audited, baseline, "arch audit mode changed trial results");
    assert!(stats.trials_pruned > 0, "audit found no map-classified trials to check");
    assert_eq!(planned(&stats), planned(&stats_off), "audit double-charged pruned instructions");
}
