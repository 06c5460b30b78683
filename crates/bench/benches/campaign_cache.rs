//! Warm-cache payoff: replaying the default Figure 4 campaign from a
//! fully-populated content-addressed trial store vs. simulating it.
//!
//! `cold-record` runs the campaign against an empty store (recording
//! every trial, cold checkpoint library each iteration) — the price of
//! the first run. `warm-replay-threads-N` runs the identical campaign
//! against the populated store: every trial is a store hit, so the run
//! decodes records instead of simulating windows, and thread count is
//! irrelevant because nothing executes.
//!
//! Proof obligations re-asserted before timing:
//! * the warm trial vector is bit-identical to the recording run's;
//! * the warm run simulates **zero** window cycles, with the full
//!   planned window accounted in `cycles_cached`
//!   (`simulated + saved + pruned + cached = planned`).
//!
//! Set `CRITERION_JSON=/path/file.json` for machine-readable results
//! (the recorded 1-core baseline is the `BENCH_cache.json` rows of
//! `ledger/history/bench_1core.jsonl` — the warm replay is well over an
//! order of magnitude faster than the cold run it replaces).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use restore_inject::{
    run_uarch_campaign_io, uarch_campaign_digest, Shard, TrialCache, UarchCampaignConfig,
    UarchTrial,
};
use restore_snapshot::clear_library_cache;
use std::path::PathBuf;

/// The default Figure 4 campaign — the workload the store is for.
fn cfg(threads: usize) -> UarchCampaignConfig {
    UarchCampaignConfig { threads, ..UarchCampaignConfig::default() }
}

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("restore-bench-cache-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_campaign_cache(c: &mut Criterion) {
    let cfg4 = cfg(4);
    let digest = uarch_campaign_digest(&cfg4);

    // Record once, then prove the warm replay exact and free.
    let dir = tmp("record");
    let cache = TrialCache::<UarchTrial>::open(&dir, "all", digest).unwrap();
    clear_library_cache();
    let t0 = std::time::Instant::now();
    let (baseline, cold_stats) = run_uarch_campaign_io(&cfg4, Some(&cache), Shard::ALL);
    let cold_wall = t0.elapsed().as_secs_f64();

    clear_library_cache();
    let t0 = std::time::Instant::now();
    let (warm, warm_stats) = run_uarch_campaign_io(&cfg4, Some(&cache), Shard::ALL);
    let warm_wall = t0.elapsed().as_secs_f64();
    assert_eq!(warm, baseline, "warm replay changed trial results");
    assert_eq!(warm_stats.cycles_simulated, 0, "fully-warm run must simulate nothing");
    assert_eq!(warm_stats.trials_cached as usize, cache.cached_for_config());
    assert_eq!(
        warm_stats.cycles_cached,
        cold_stats.cycles_simulated + cold_stats.cycles_saved + cold_stats.cycles_pruned,
        "every planned window cycle must be accounted as cached"
    );
    eprintln!(
        "campaign-cache: {} trials; cold {cold_wall:.2}s -> warm {warm_wall:.3}s ({:.0}x)",
        cold_stats.trials,
        cold_wall / warm_wall.max(1e-9)
    );

    let mut g = c.benchmark_group("campaign-cache");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cold_stats.trials));

    // The first run's price: simulate everything, record everything,
    // into a fresh store with a cold checkpoint library.
    g.bench_function("cold-record", |b| {
        let mut round = 0u32;
        b.iter(|| {
            round += 1;
            let dir = tmp(&format!("cold-{round}"));
            let fresh = TrialCache::<UarchTrial>::open(&dir, "all", digest).unwrap();
            clear_library_cache();
            let out = run_uarch_campaign_io(&cfg4, Some(&fresh), Shard::ALL).0;
            std::fs::remove_dir_all(&dir).unwrap();
            out
        });
    });

    // Every later run's price: pure store replay. Thread count is moot
    // when nothing simulates — both rows should time alike.
    for threads in [1usize, 4] {
        let cfgt = cfg(threads);
        g.bench_function(format!("warm-replay-threads-{threads}"), |b| {
            b.iter(|| {
                clear_library_cache();
                run_uarch_campaign_io(&cfgt, Some(&cache), Shard::ALL).0
            });
        });
    }
    g.finish();
    std::fs::remove_dir_all(&dir).unwrap();
}

criterion_group!(benches, bench_campaign_cache);
criterion_main!(benches);
