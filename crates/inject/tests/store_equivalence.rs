//! Regression tests for the content-addressed trial store's core
//! guarantees, end-to-end at the campaign level:
//!
//! * **Sharding partitions exactly**: three shard runs of one campaign,
//!   each recording into its own store, together produce every trial of
//!   the unsharded run exactly once, and merging their
//!   [`CampaignStats`] reproduces the cold run's counters.
//! * **Merging is a file copy**: concatenating the shard stores into
//!   one directory yields a store whose content digest equals that of a
//!   store written by a single unsharded recording run.
//! * **Warm replay is bit-identical and free**: a campaign run against
//!   the merged store returns the cold run's trial vector bit-for-bit —
//!   at 1, 2 and 4 threads — while simulating **zero** window cycles,
//!   with the cached-cycle counters satisfying
//!   `simulated + saved + pruned + cached = planned`.
//! * **Partial coverage falls back per trial**: a store recorded with
//!   fewer trials per point still serves what it has; only the missing
//!   trials simulate.
//! * **Audit is Interval, checked**: a `PruneMode::Audit` campaign
//!   returns `Interval`'s trial vector and every non-timing counter.
//!
//! The golden checkpoint library is memoized process-wide, and warm
//! libraries shift `checkpoint_hits`/`checkpoint_misses` — so every
//! campaign run here is preceded by [`clear_library_cache`], and the
//! tests serialize on one gate (the clear is process-global; a
//! concurrent test between its clear and its run would otherwise see
//! its cold-library assumption violated).

use restore_inject::{
    arch_campaign_digest, run_arch_campaign_io, run_uarch_campaign_io, uarch_campaign_digest,
    ArchCampaignConfig, ArchTrial, CampaignStats, PruneMode, Shard, TrialCache,
    UarchCampaignConfig, UarchTrial,
};
use restore_snapshot::clear_library_cache;
use restore_workloads::Scale;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

static GATE: Mutex<()> = Mutex::new(());

/// The non-timing counters: everything [`CampaignStats`] promises to be
/// deterministic (timings and thread counts are explicitly excluded).
fn counters(s: &CampaignStats) -> [u64; 12] {
    [
        s.units,
        s.trials,
        s.checkpoint_hits,
        s.checkpoint_misses,
        s.warmup_cycles_saved,
        s.cycles_simulated,
        s.cycles_saved,
        s.trials_cut,
        s.trials_pruned,
        s.cycles_pruned,
        s.trials_cached,
        s.cycles_cached,
    ]
}

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("restore-store-equiv-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Store merging is segment-file concatenation: shard labels keep the
/// names distinct, so a plain copy is the whole merge operation.
fn merge_stores(shards: &[PathBuf], merged: &Path) {
    std::fs::create_dir_all(merged).unwrap();
    for dir in shards {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, merged.join(path.file_name().unwrap())).unwrap();
        }
    }
}

fn uarch_cfg(threads: usize, ckpt: u64) -> UarchCampaignConfig {
    UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 3,
        warmup_cycles: 400,
        window_cycles: 1_200,
        drain_cycles: 800,
        seed: 0xD15C,
        threads,
        ckpt_stride: ckpt,
        ..UarchCampaignConfig::default()
    }
}

fn arch_cfg(threads: usize, ckpt: u64) -> ArchCampaignConfig {
    ArchCampaignConfig {
        scale: Scale::smoke(),
        trials_per_workload: 10,
        window: 100_000,
        seed: 0xD15C,
        threads,
        ckpt_stride: ckpt,
        ..ArchCampaignConfig::default()
    }
}

#[test]
fn uarch_three_shards_merge_to_the_cold_run() {
    let _gate = GATE.lock().unwrap();
    for (ckpt, tag) in [(450u64, "ckpt450"), (2_000, "ckpt2000")] {
        let cfg = uarch_cfg(1, ckpt);
        let digest = uarch_campaign_digest(&cfg);
        clear_library_cache();
        let (baseline, base_stats) = run_uarch_campaign_io(&cfg, None, Shard::ALL);
        assert!(!baseline.is_empty());

        // Three cold shard runs, each recording into its own store.
        let mut shard_dirs = Vec::new();
        let mut shard_trials = 0usize;
        let mut merged_stats: Option<CampaignStats> = None;
        for index in 0..3u64 {
            let shard = Shard { index, count: 3 };
            let dir = tmp(&format!("uarch-{tag}-{}", shard.label()));
            let cache = TrialCache::<UarchTrial>::open(&dir, &shard.label(), digest).unwrap();
            clear_library_cache();
            let (trials, stats) = run_uarch_campaign_io(&cfg, Some(&cache), shard);
            assert_eq!(stats.trials_cached, 0, "{tag}: cold shard must simulate everything");
            assert_eq!(cache.cached_for_config(), trials.len(), "{tag}: every trial recorded");
            shard_trials += trials.len();
            merged_stats = Some(match merged_stats {
                None => stats,
                Some(mut m) => {
                    m.merge(&stats);
                    m
                }
            });
            shard_dirs.push(dir);
        }
        assert_eq!(shard_trials, baseline.len(), "{tag}: shards partition the plan exactly");
        assert_eq!(
            counters(&merged_stats.unwrap()),
            counters(&base_stats),
            "{tag}: merged shard stats reproduce the unsharded run"
        );

        // A single unsharded recording run writes a store whose content
        // digest the file-copy merge of the shard stores must match.
        let solo_dir = tmp(&format!("uarch-{tag}-solo"));
        let solo = TrialCache::<UarchTrial>::open(&solo_dir, "all", digest).unwrap();
        clear_library_cache();
        let (solo_trials, _) = run_uarch_campaign_io(&cfg, Some(&solo), Shard::ALL);
        assert_eq!(solo_trials, baseline, "{tag}: recording must not perturb results");

        let merged_dir = tmp(&format!("uarch-{tag}-merged"));
        merge_stores(&shard_dirs, &merged_dir);
        let merged = TrialCache::<UarchTrial>::open(&merged_dir, "all", digest).unwrap();
        assert_eq!(
            merged.content_digest(),
            solo.content_digest(),
            "{tag}: merged shard stores hold exactly the single run's records"
        );

        // Warm replay from the merged store: bit-identical trials, zero
        // simulated window cycles, at every thread count.
        let planned =
            base_stats.cycles_simulated + base_stats.cycles_saved + base_stats.cycles_pruned;
        for threads in [1usize, 2, 4] {
            clear_library_cache();
            let (warm, ws) =
                run_uarch_campaign_io(&uarch_cfg(threads, ckpt), Some(&merged), Shard::ALL);
            assert_eq!(warm, baseline, "{tag}/t{threads}: warm replay must be bit-identical");
            assert_eq!(ws.cycles_simulated, 0, "{tag}/t{threads}: warm run simulates nothing");
            assert_eq!(ws.trials_cached, base_stats.trials);
            assert_eq!(
                ws.cycles_cached, planned,
                "{tag}/t{threads}: cached replay covers the full planned window"
            );
        }

        for dir in shard_dirs.iter().chain([&solo_dir, &merged_dir]) {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}

#[test]
fn arch_warm_replay_is_bit_identical_and_free() {
    let _gate = GATE.lock().unwrap();
    let cfg = arch_cfg(2, 20_000);
    let digest = arch_campaign_digest(&cfg);
    let dir = tmp("arch-warm");
    let cache = TrialCache::<ArchTrial>::open(&dir, "all", digest).unwrap();
    clear_library_cache();
    let (cold, cold_stats) = run_arch_campaign_io(&cfg, Some(&cache), Shard::ALL);
    assert!(!cold.is_empty());
    assert_eq!(cold_stats.trials_cached, 0);
    // Result-less instruction draws record a `None` trial; the store
    // must hold one record per *trial*, not per produced result.
    assert!(cache.cached_for_config() >= cold.len());

    clear_library_cache();
    let reopened = TrialCache::<ArchTrial>::open(&dir, "all", digest).unwrap();
    let (warm, warm_stats) = run_arch_campaign_io(&arch_cfg(1, 5_000), Some(&reopened), Shard::ALL);
    assert_eq!(warm, cold, "warm replay across a reopen must be bit-identical");
    assert_eq!(warm_stats.cycles_simulated, 0);
    assert_eq!(warm_stats.trials, cold_stats.trials);
    assert_eq!(warm_stats.trials_cached as usize, cache.cached_for_config());
    assert_eq!(
        warm_stats.cycles_cached,
        cold_stats.cycles_simulated + cold_stats.cycles_saved + cold_stats.cycles_pruned,
        "cached cycles replay the recording run's planned windows"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store recorded with fewer trials per point serves what it holds;
/// the missing trials simulate on the live path (per-trial store hits
/// inside a live unit), and the combined vector still equals a cold
/// run's — trial seeds are absolute coordinates, independent of the
/// recording run's trial count.
#[test]
fn partially_covered_points_replay_cached_trials_and_simulate_the_rest() {
    let _gate = GATE.lock().unwrap();
    let record_cfg = uarch_cfg(1, 2_000);
    let full_cfg = UarchCampaignConfig { trials_per_point: 5, ..uarch_cfg(1, 2_000) };
    assert_eq!(
        uarch_campaign_digest(&record_cfg),
        uarch_campaign_digest(&full_cfg),
        "trial count is a coordinate, not part of the campaign digest"
    );
    let digest = uarch_campaign_digest(&record_cfg);

    let dir = tmp("uarch-partial");
    let cache = TrialCache::<UarchTrial>::open(&dir, "all", digest).unwrap();
    clear_library_cache();
    let (recorded, _) = run_uarch_campaign_io(&record_cfg, Some(&cache), Shard::ALL);

    clear_library_cache();
    let (baseline, _) = run_uarch_campaign_io(&full_cfg, None, Shard::ALL);

    clear_library_cache();
    let (mixed, stats) = run_uarch_campaign_io(&full_cfg, Some(&cache), Shard::ALL);
    assert_eq!(mixed, baseline, "partial coverage must not perturb the trial vector");
    assert_eq!(stats.trials_cached as usize, recorded.len(), "every recorded trial is served");
    assert!(stats.cycles_simulated > 0, "the uncovered trials actually simulate");
    // The fresh trials were recorded, so the store now covers the
    // larger campaign and a rerun is fully warm.
    clear_library_cache();
    let (warm, ws) = run_uarch_campaign_io(&full_cfg, Some(&cache), Shard::ALL);
    assert_eq!(warm, baseline);
    assert_eq!(ws.cycles_simulated, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `Audit` runs every trial down the fast path and as the exhaustive
/// reference, asserts they agree, and charges only the fast path — so
/// its trials and every non-timing counter equal `Interval`'s. Each run
/// starts from a cold library, so the checkpoint counters match too.
#[test]
fn audit_reports_interval_trials_and_counters() {
    let _gate = GATE.lock().unwrap();
    let cfg = |prune| UarchCampaignConfig { prune, ..uarch_cfg(2, 700) };
    clear_library_cache();
    let (interval, si) = run_uarch_campaign_io(&cfg(PruneMode::Interval), None, Shard::ALL);
    clear_library_cache();
    let (audit, sa) = run_uarch_campaign_io(&cfg(PruneMode::Audit), None, Shard::ALL);
    assert!(!interval.is_empty());
    assert_eq!(audit, interval, "audit must return the fast path's trials");
    assert_eq!(counters(&sa), counters(&si), "audit must report the fast path's counters");
    assert!(si.trials_pruned > 0 && si.trials_cut > 0, "both fast-path layers fired: {si}");
}
