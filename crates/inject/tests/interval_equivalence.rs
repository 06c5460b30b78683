//! Regression tests for static interval pruning's core guarantee: a
//! µarch campaign run with `prune: Interval` produces a trial vector
//! **bit-identical** to the unpruned run, at every thread count, for
//! both injection targets — the masking-interval map may only change
//! how many windows get simulated, never what a trial reports. Every
//! planned window cycle is accounted exactly once: `simulated + saved +
//! pruned` equals the unpruned run's `simulated + saved`.
//!
//! `prune: Audit` is the belt-and-braces version of the same claim: it
//! runs every trial as the exhaustive reference too (no cutoff, no map)
//! and asserts the fast path's record inside the trial loop itself, so
//! a passing audit run *is* the equivalence proof for every trial.
//!
//! The map is also exercised through its persistence path: campaigns
//! given a `map_dir` must write the per-workload map files there and
//! produce the same trial vector when a later run loads them back. A
//! campaign resolves maps only for the workloads it will simulate: a
//! shard resolves none for workloads it owns no point of, and a fully
//! warm replay resolves none at all.

use restore_inject::{
    run_uarch_campaign_io, uarch_campaign_digest, CampaignStats, InjectionTarget, PruneMode, Shard,
    TrialCache, UarchCampaignConfig, UarchTrial,
};
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
    let (baseline, stats_off) =
        run_uarch_campaign_io(&small_cfg(1, PruneMode::Off), None, Shard::ALL);
    assert!(!baseline.is_empty());
    assert_eq!(stats_off.trials_pruned, 0, "PruneMode::Off must not consult the map");
    assert_eq!(stats_off.cycles_pruned, 0);
    for threads in [1, 2, 4] {
        let (got, stats) =
            run_uarch_campaign_io(&small_cfg(threads, PruneMode::Interval), None, Shard::ALL);
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
    let (baseline, stats_off) = run_uarch_campaign_io(&cfg(1, PruneMode::Off), None, Shard::ALL);
    assert!(!baseline.is_empty());
    for threads in [1, 2, 4] {
        let (got, stats) =
            run_uarch_campaign_io(&cfg(threads, PruneMode::Interval), None, Shard::ALL);
        assert_eq!(got, baseline, "latch campaign diverged at {threads} threads");
        assert!(stats.trials_pruned > 0, "latches draw dead fetch/decode/IQ slots too");
        assert_eq!(planned(&stats), planned(&stats_off));
    }
}

/// Audit mode runs every trial as the exhaustive reference too and
/// asserts the fast path's record inside the trial loop; the campaign
/// completing at all is the zero-disagreement proof, and its vector must
/// still equal the baseline. The reference runs are not charged, so
/// every planned window cycle is counted exactly once.
#[test]
fn uarch_audit_mode_verifies_map_against_simulation() {
    let (baseline, stats_off) =
        run_uarch_campaign_io(&small_cfg(1, PruneMode::Off), None, Shard::ALL);
    let (got, stats) = run_uarch_campaign_io(&small_cfg(1, PruneMode::Audit), None, Shard::ALL);
    assert_eq!(got, baseline, "audit mode changed trial results");
    assert!(stats.trials_pruned > 0, "audit found no map-classified trials to check");
    assert!(stats.cycles_simulated > 0, "trials the map cannot prove still simulate");
    assert_eq!(
        planned(&stats),
        planned(&stats_off),
        "audit must charge every planned window cycle exactly once"
    );
}

/// Interval pruning composes with the other fast-path layers: the
/// reconvergence cutoff, and the checkpoint library at any stride.
/// Audit holds every trial of the composed path to the exhaustive
/// reference (no cutoff, no map), and the trial vector and planned
/// cycles never move.
#[test]
fn interval_composes_with_cutoff_and_checkpoint_strides() {
    let (baseline, stats_off) =
        run_uarch_campaign_io(&small_cfg(1, PruneMode::Off), None, Shard::ALL);
    for ckpt in [130, 450] {
        let cfg = UarchCampaignConfig { ckpt_stride: ckpt, ..small_cfg(1, PruneMode::Audit) };
        let (got, stats) = run_uarch_campaign_io(&cfg, None, Shard::ALL);
        assert_eq!(got, baseline, "diverged at ckpt={ckpt}");
        assert!(stats.trials_pruned > 0 && stats.trials_cut > 0, "ckpt={ckpt}: {stats}");
        assert_eq!(planned(&stats), planned(&stats_off), "ckpt={ckpt}");
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

    // A shard owning plan position 0 alone simulates only the first
    // workload's first point, so it builds (and persists) that
    // workload's map and no other.
    let cache = TrialCache::<UarchTrial>::open(&dir, "all", digest).unwrap();
    let first = Shard { index: 0, count: 14 };
    let (_, ss) = run_uarch_campaign_io(&record_cfg, Some(&cache), first);
    assert_eq!((ss.units, ss.maps_built, ss.maps_loaded), (1, 1, 0));
    assert_eq!(persisted_maps(&dir), vec!["maskmap-uarch-bzip2x"]);

    // Cold interval run recording into the store: the maps land beside
    // the trial segments, one per workload. The shard's map is already
    // in the process-wide registry, so six are built.
    let (recorded, stats) = run_uarch_campaign_io(&record_cfg, Some(&cache), Shard::ALL);
    assert!(stats.trials_pruned > 0);
    assert_eq!((stats.maps_built, stats.maps_loaded), (6, 0));
    assert!(stats.maskmap_secs > 0.0 && stats.maskmap_secs <= stats.wall_secs);
    let maps = persisted_maps(&dir).len();
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

/// The other direction: a store recorded under `Off` serves an
/// `Interval` run, and because every point is cached that run resolves
/// no map at all. Its geometry is its own, so no map for it is in the
/// process-wide registry or on disk: resolving one would mean
/// building it.
#[test]
fn fully_warm_interval_replay_resolves_no_maps() {
    let geometry = |prune, map_dir| UarchCampaignConfig {
        warmup_cycles: 540,
        window_cycles: 1_540,
        map_dir,
        ..small_cfg(2, prune)
    };
    let dir = tmp("warm");
    let record_cfg = geometry(PruneMode::Off, None);
    let replay_cfg = geometry(PruneMode::Interval, Some(dir.clone()));
    let cache =
        TrialCache::<UarchTrial>::open(&dir, "all", uarch_campaign_digest(&record_cfg)).unwrap();
    let (recorded, _) = run_uarch_campaign_io(&record_cfg, Some(&cache), Shard::ALL);
    let (warm, ws) = run_uarch_campaign_io(&replay_cfg, Some(&cache), Shard::ALL);
    assert_eq!(warm, recorded);
    assert_eq!(ws.trials_cached, ws.trials, "the replay is fully warm");
    assert_eq!((ws.maps_built, ws.maps_loaded), (0, 0));
    assert!(persisted_maps(&dir).is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The µarch map files in `dir`, as `maskmap-uarch-<workload>`, sorted.
fn persisted_maps(dir: &std::path::Path) -> Vec<String> {
    let mut maps: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            let stem = name.strip_suffix(".json")?;
            stem.starts_with("maskmap-uarch-").then(|| stem.rsplit_once('-').unwrap().0.to_owned())
        })
        .collect();
    maps.sort();
    maps
}
