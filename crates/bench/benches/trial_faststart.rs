//! Trial fast-start payoff: producing each injection point from the
//! golden checkpoint library (O(stride + window) per trial) vs. the
//! historical serial golden walk (O(point coordinate)).
//!
//! The shape that matters is *deep* injection points: a long warm-up
//! before a modest observation window, so per-point setup dominates.
//! With the serial producer, the single golden walker re-simulates the
//! whole prefix; with the library, each point clones the nearest
//! checkpoint at-or-before its cycle and the worker finishes a residual
//! sweep bounded by the stride.
//!
//! Three proof obligations are re-asserted before timing:
//! * trial vectors bit-identical with the library on or off;
//! * every planned window cycle accounted for
//!   (`simulated + saved + pruned` invariant);
//! * every produced unit classified as a checkpoint hit or miss.
//!
//! A warm-library scaling table (threads 1/2/4/8) is printed to stderr;
//! `EXPERIMENTS.md` records the numbers. Set
//! `CRITERION_JSON=/path/file.json` for machine-readable results (the
//! recorded 1-core baseline is the `BENCH_faststart.json` rows of
//! `ledger/history/bench_1core.jsonl`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use restore_inject::{run_uarch_campaign_with_stats, UarchCampaignConfig};
use restore_snapshot::clear_library_cache;

/// Deep-point campaign: warm-up is twice the window, so the serial
/// producer's golden walk is the dominant cost.
fn cfg(threads: usize, ckpt_stride: u64) -> UarchCampaignConfig {
    UarchCampaignConfig {
        points_per_workload: 8,
        trials_per_point: 2,
        warmup_cycles: 2_000,
        window_cycles: 1_000,
        drain_cycles: 500,
        seed: 23,
        threads,
        ckpt_stride,
        ..UarchCampaignConfig::default()
    }
}

const STRIDE: u64 = 2_000;

fn bench_trial_faststart(c: &mut Criterion) {
    let (baseline, off_stats) = run_uarch_campaign_with_stats(&cfg(4, 0));

    let mut g = c.benchmark_group("trial-faststart");
    g.sample_size(10);
    g.throughput(Throughput::Elements(off_stats.trials));

    for (label, stride) in [("serial", 0u64), ("library", STRIDE)] {
        let cfg = cfg(4, stride);
        let (trials, stats) = run_uarch_campaign_with_stats(&cfg);
        assert_eq!(trials, baseline, "faststart-{label} changed trial results");
        assert_eq!(
            stats.cycles_simulated + stats.cycles_saved + stats.cycles_pruned,
            off_stats.cycles_simulated + off_stats.cycles_saved + off_stats.cycles_pruned,
            "faststart-{label}: every planned window cycle must be accounted for"
        );
        if stride > 0 {
            assert_eq!(
                stats.checkpoint_hits + stats.checkpoint_misses,
                stats.units,
                "faststart-{label}: every unit must be classified hit or miss"
            );
        }
        eprintln!("faststart {label:>7}: {stats}");
        g.bench_function(format!("produce-{label}"), |b| {
            b.iter(|| run_uarch_campaign_with_stats(&cfg).0);
        });
    }

    // Warm-library scaling: after the first run above, every key's
    // library is fully captured, so these measure pure warm production.
    eprintln!("warm-library thread scaling (points materialize from warm checkpoints):");
    for threads in [1usize, 2, 4, 8] {
        let cfg = cfg(threads, STRIDE);
        let t0 = std::time::Instant::now();
        let (trials, stats) = run_uarch_campaign_with_stats(&cfg);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(trials, baseline, "thread count must not change results");
        eprintln!(
            "  threads {threads}: wall {wall:.2}s; produce {:.2}s; {} warm / {} cold; \
             {} warm-up cycles skipped",
            stats.produce_secs,
            stats.checkpoint_hits,
            stats.checkpoint_misses,
            stats.warmup_cycles_saved,
        );
        g.bench_function(format!("warm-threads-{threads}"), |b| {
            b.iter(|| run_uarch_campaign_with_stats(&cfg).0);
        });
    }

    // Cold production for contrast: drop every memoized library so one
    // run pays the full golden sweep plus captures.
    g.bench_function("cold-library", |b| {
        b.iter(|| {
            clear_library_cache();
            run_uarch_campaign_with_stats(&cfg(4, STRIDE)).0
        });
    });
    g.finish();
}

criterion_group!(benches, bench_trial_faststart);
criterion_main!(benches);
