//! Figure 2 — virtual machine fault injection: propagation of a single
//! bit flip in an instruction result to symptoms, by latency.
//!
//! Usage: `fig2 [--trials N] [--seed S] [--low32] [--size N] [--threads N] [--store DIR]
//! [--sig-chunk N] [--dup-mask M]`

use restore_bench::{arch_table, cli, FIG2_LATENCIES};
use restore_inject::{
    run_arch_campaign_io, worst_case_ci95, ArchCampaignConfig, ArchCategory, Shard,
};

const USAGE: &str = "fig2 [--trials N] [--seed S] [--low32] [--size N] [--threads N] \
                     [--store DIR] [--sig-chunk N] [--dup-mask M]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = ArchCampaignConfig::default();
    cli::or_exit(cli::reject_unknown(&args, &cli::ARCH_FLAGS), USAGE);
    cli::or_exit(cli::apply_arch_flags(&mut cfg, &args, "--trials"), USAGE);

    eprintln!(
        "fig2: {} trials/workload x 7 workloads{} ...",
        cfg.trials_per_workload,
        if cfg.low32 { " (low 32 bits only)" } else { "" }
    );
    let store = cli::or_exit(cli::open_arch_store(&cfg, &args), USAGE);
    let (trials, stats) = run_arch_campaign_io(&cfg, store.as_ref(), Shard::ALL);
    eprintln!("fig2: {stats}");

    println!("# Figure 2 — virtual machine fault injection");
    println!("# columns: symptom-latency bound (instructions); cells: % of all trials");
    println!("{}", arch_table(&trials, &FIG2_LATENCIES));

    let total = trials.len() as f64;
    let masked = trials.iter().filter(|t| t.masked).count() as f64 / total;
    let failing = 1.0 - masked;
    let exc100 =
        trials.iter().filter(|t| t.classify(100) == ArchCategory::Exception).count() as f64 / total;
    let cfv100 =
        trials.iter().filter(|t| t.classify(100) == ArchCategory::Cfv).count() as f64 / total;
    println!("masked fraction:                 {:.1}%  (paper: ~59%)", 100.0 * masked);
    println!("exception within 100 insns:      {:.1}%  (paper: ~24%)", 100.0 * exc100);
    println!("cfv within 100 insns:            {:.1}%  (paper: ~8%)", 100.0 * cfv100);
    println!(
        "symptom coverage of failures@100: {:.1}%  (paper: ~80%)",
        100.0 * (exc100 + cfv100) / failing.max(1e-9)
    );
    println!(
        "worst-case 95% CI: ±{:.1}% over {} trials",
        100.0 * worst_case_ci95(trials.len() as u64),
        trials.len()
    );
}
