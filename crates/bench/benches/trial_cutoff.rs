//! Reconvergence-cutoff payoff: the default fig4-shaped µarch campaign
//! (10 000-cycle windows) at cutoff strides 0 (exhaustive), 64, 250
//! (the default) and 1000.
//!
//! Every stride computes the identical trial vector — the equivalence
//! tests (`crates/inject/tests/cutoff_equivalence.rs`) enforce that, and
//! this bench re-asserts it against the stride-0 baseline before
//! timing. What changes is how many window cycles each trial actually
//! simulates: most flips are masked and the faulty machine's
//! fingerprint rejoins the golden run's within a few hundred cycles, so
//! small strides cut most of the 10k window. Very small strides pay the
//! fingerprint cost too often; very large ones detect reconvergence
//! late. The stats line printed per stride shows the trade.
//!
//! Set `CRITERION_JSON=/path/file.json` to append machine-readable
//! results (the recorded 1-core baseline is the `BENCH_trial.json` rows
//! of `ledger/history/bench_1core.jsonl`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use restore_inject::{run_uarch_campaign_with_stats, UarchCampaignConfig};

const STRIDES: [u64; 4] = [0, 64, 250, 1000];

fn cfg(cutoff_stride: u64) -> UarchCampaignConfig {
    // Default window/warmup/drain — the acceptance-relevant shape — with
    // a reduced plan so the stride-0 reference stays affordable.
    UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 6,
        seed: 11,
        threads: 1,
        cutoff_stride,
        ..UarchCampaignConfig::default()
    }
}

fn bench_trial_cutoff(c: &mut Criterion) {
    let (baseline, base_stats) = run_uarch_campaign_with_stats(&cfg(0));
    let mut g = c.benchmark_group("trial-cutoff");
    g.sample_size(10);
    g.throughput(Throughput::Elements(base_stats.trials));
    for stride in STRIDES {
        let cfg = cfg(stride);
        let (trials, stats) = run_uarch_campaign_with_stats(&cfg);
        assert_eq!(trials, baseline, "stride {stride} changed trial results");
        assert_eq!(
            stats.cycles_simulated + stats.cycles_saved,
            base_stats.cycles_simulated,
            "stride {stride}: simulated + saved must equal the exhaustive run's cycles"
        );
        eprintln!(
            "stride {stride:>4}: {:>5.1}% of window cycles skipped | {}",
            100.0 * stats.cycles_saved_fraction(),
            stats.summary()
        );
        g.bench_function(format!("stride-{stride}"), |b| {
            b.iter(|| run_uarch_campaign_with_stats(&cfg).0);
        });
    }
    g.finish();
}

criterion_group!(benches, bench_trial_cutoff);
criterion_main!(benches);
