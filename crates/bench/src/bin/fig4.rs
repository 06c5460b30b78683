//! Figure 4 — microarchitectural fault injection into all state, with
//! perfect identification of exceptions and incorrect control flow, as a
//! function of checkpoint interval. `--latches-only` reproduces the
//! §5.1.2 latch-targeted campaign instead.
//!
//! Usage: `fig4 [--points N] [--trials N] [--seed S] [--latches-only] [--threads N]
//! [--cutoff K] [--prune off|interval|audit]`

use restore_bench::{cli, coverage_summary, uarch_table, FIG46_INTERVALS};
use restore_inject::{run_uarch_campaign_io, CfvMode, InjectionTarget, Shard, UarchCampaignConfig};

const USAGE: &str = "fig4 [--points N] [--trials N] [--seed S] [--latches-only] \
                     [--threads N] [--cutoff K] [--prune off|interval|audit] [--ckpt-stride K] \
                     [--store DIR]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = UarchCampaignConfig::default();
    cli::or_exit(cli::reject_unknown(&args, &cli::uarch_flags_plus(&["--latches-only"])), USAGE);
    cli::or_exit(cli::apply_uarch_flags(&mut cfg, &args), USAGE);
    let latches = cli::flag(&args, "--latches-only");
    if latches {
        cfg.target = InjectionTarget::LatchesOnly;
    }

    eprintln!(
        "fig4: {} points x {} trials x 7 workloads ({}) ...",
        cfg.points_per_workload,
        cfg.trials_per_point,
        if latches { "latches only" } else { "all state" }
    );
    let store = cli::or_exit(cli::open_uarch_store(&cfg, &args), USAGE);
    let (trials, stats) = run_uarch_campaign_io(&cfg, store.as_ref(), Shard::ALL);
    eprintln!("fig4: {stats}");

    println!(
        "# Figure 4 — µarch injection into {} (perfect exception+cfv identification)",
        if latches { "latches only (§5.1.2)" } else { "all state" }
    );
    println!("# columns: checkpoint interval (instructions); cells: % of all trials");
    println!("{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::Perfect, false));

    let s = coverage_summary(&trials, 100, CfvMode::Perfect, false);
    println!(
        "failure fraction:            {:.1}% ±{:.1}%  (paper: ~8%)",
        100.0 * s.failure_fraction,
        100.0 * s.ci95
    );
    println!(
        "coverage of failures @100:   {:.1}%  (paper: ~50% all-state / ~75% latches)",
        100.0 * s.coverage_of_failures
    );
    println!("residual failure fraction:   {:.1}%", 100.0 * s.residual_failure_fraction);
}
