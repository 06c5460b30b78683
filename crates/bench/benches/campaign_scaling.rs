//! Thread-scaling of the parallel campaign engine: the same fig4-shaped
//! µarch campaign (and a small arch campaign) at 1, 2, 4 and 8 workers.
//!
//! Throughput is reported in trials/second, so the elements/sec column
//! is directly the campaign throughput at that thread count. Determinism
//! tests (`crates/inject/tests/determinism.rs`) guarantee every row
//! computes the identical trial vector — this bench measures only how
//! fast each thread count gets there.
//!
//! Set `CRITERION_JSON=/path/file.json` to append machine-readable
//! results (the recorded 1-core baseline is the `BENCH_campaign.json`
//! rows of `ledger/history/bench_1core.jsonl`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use restore_inject::{
    run_arch_campaign_with_stats, run_uarch_campaign_with_stats, ArchCampaignConfig,
    UarchCampaignConfig,
};
use restore_workloads::Scale;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn uarch_cfg(threads: usize) -> UarchCampaignConfig {
    UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 6,
        warmup_cycles: 1_000,
        window_cycles: 2_500,
        drain_cycles: 1_500,
        seed: 11,
        threads,
        ..UarchCampaignConfig::default()
    }
}

fn bench_uarch_scaling(c: &mut Criterion) {
    let expected = run_uarch_campaign_with_stats(&uarch_cfg(1)).1.trials;
    let mut g = c.benchmark_group("uarch-campaign-scaling");
    g.sample_size(10);
    g.throughput(Throughput::Elements(expected));
    for threads in THREAD_COUNTS {
        let cfg = uarch_cfg(threads);
        g.bench_function(format!("threads-{threads}"), |b| {
            b.iter(|| run_uarch_campaign_with_stats(&cfg).0);
        });
    }
    g.finish();
}

fn bench_arch_scaling(c: &mut Criterion) {
    let base = ArchCampaignConfig {
        scale: Scale::smoke(),
        trials_per_workload: 30,
        window: 100_000,
        seed: 11,
        ..ArchCampaignConfig::default()
    };
    let expected =
        run_arch_campaign_with_stats(&ArchCampaignConfig { threads: 1, ..base.clone() }).1.trials;
    let mut g = c.benchmark_group("arch-campaign-scaling");
    g.sample_size(10);
    g.throughput(Throughput::Elements(expected));
    for threads in THREAD_COUNTS {
        let cfg = ArchCampaignConfig { threads, ..base.clone() };
        g.bench_function(format!("threads-{threads}"), |b| {
            b.iter(|| run_arch_campaign_with_stats(&cfg).0);
        });
    }
    g.finish();
}

criterion_group!(benches, bench_uarch_scaling, bench_arch_scaling);
criterion_main!(benches);
