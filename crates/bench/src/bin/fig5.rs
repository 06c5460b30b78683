//! Figure 5 — ReStore coverage in the baseline pipeline with *realistic*
//! control-flow detection: only JRS high-confidence branch mispredictions
//! count as cfv symptoms.
//!
//! Usage: `fig5 [--points N] [--trials N] [--seed S] [--threads N] [--cutoff K]
//! [--prune off|interval|audit]`

use restore_bench::{cli, coverage_summary, uarch_table, FIG46_INTERVALS};
use restore_inject::{run_uarch_campaign_io, CfvMode, Shard, UarchCampaignConfig, UarchCategory};

const USAGE: &str = "fig5 [--points N] [--trials N] [--seed S] [--threads N] [--cutoff K] \
                     [--prune off|interval|audit] [--ckpt-stride K] [--store DIR]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = UarchCampaignConfig::default();
    cli::or_exit(cli::reject_unknown(&args, &cli::UARCH_FLAGS), USAGE);
    cli::or_exit(cli::apply_uarch_flags(&mut cfg, &args), USAGE);

    eprintln!(
        "fig5: {} points x {} trials x 7 workloads ...",
        cfg.points_per_workload, cfg.trials_per_point
    );
    let store = cli::or_exit(cli::open_uarch_store(&cfg, &args), USAGE);
    let (trials, stats) = run_uarch_campaign_io(&cfg, store.as_ref(), Shard::ALL);
    eprintln!("fig5: {stats}");

    println!("# Figure 5 — ReStore coverage (JRS high-confidence cfv detection)");
    println!("# columns: checkpoint interval (instructions); cells: % of all trials");
    println!("{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::HighConfidence, false));

    let total = trials.len().max(1) as f64;
    let interval = 100u64;
    let perfect_cfv = trials
        .iter()
        .filter(|t| t.classify(interval, CfvMode::Perfect, false) == UarchCategory::Cfv)
        .count() as f64
        / total;
    let jrs_cfv = trials
        .iter()
        .filter(|t| t.classify(interval, CfvMode::HighConfidence, false) == UarchCategory::Cfv)
        .count() as f64
        / total;
    println!(
        "cfv coverage @{interval}: perfect {:.2}% vs JRS {:.2}% of all trials \
         (paper: JRS covers a small fraction — ~5% of failures)",
        100.0 * perfect_cfv,
        100.0 * jrs_cfv
    );
    let base = coverage_summary(&trials, interval, CfvMode::Perfect, false);
    let jrs = coverage_summary(&trials, interval, CfvMode::HighConfidence, false);
    println!(
        "residual failures @{interval}: perfect-cfv {:.2}% vs JRS {:.2}% \
         (paper: ~3.5% of injections with ReStore)",
        100.0 * base.residual_failure_fraction,
        100.0 * jrs.residual_failure_fraction
    );
}
