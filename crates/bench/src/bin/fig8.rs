//! Figure 8 — silent-data-corruption FIT rates as a function of design
//! size for the four protection configurations, against the 1000-year
//! MTBF goal line (115 FIT).
//!
//! By default the failure fractions are measured by a fresh campaign;
//! `--paper` uses the paper's reported fractions instead, and
//! `--points/--trials` scale the measurement.
//!
//! Usage: `fig8 [--paper] [--points N] [--trials N] [--seed S] [--threads N]
//! [--prune off|interval|audit] [--store DIR] [--sig-chunk N] [--dup-mask M]`

use restore_bench::{cli, coverage_summary};
use restore_core::fit::{figure8_sizes, FitScaling, MTBF_GOAL_FIT};
use restore_inject::{run_uarch_campaign_io, CfvMode, Shard, UarchCampaignConfig};

const USAGE: &str = "fig8 [--paper] [--points N] [--trials N] [--seed S] [--threads N] \
                     [--prune off|interval|audit] [--store DIR] [--sig-chunk N] [--dup-mask M]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::or_exit(cli::reject_unknown(&args, &cli::uarch_flags_plus(&["--paper"])), USAGE);
    // Parsed before branching, so a bad value exits 2 under `--paper` too.
    let mut cfg = UarchCampaignConfig::default();
    cli::or_exit(cli::apply_uarch_flags(&mut cfg, &args), USAGE);
    let scaling = if cli::flag(&args, "--paper") {
        eprintln!("fig8: using the paper's reported failure fractions");
        FitScaling::paper()
    } else {
        eprintln!(
            "fig8: measuring failure fractions ({} points x {} trials x 7 workloads) ...",
            cfg.points_per_workload, cfg.trials_per_point
        );
        let store = cli::or_exit(cli::open_uarch_store(&cfg, &args), USAGE);
        let (trials, _) = run_uarch_campaign_io(&cfg, store.as_ref(), Shard::ALL);
        let base = coverage_summary(&trials, 100, CfvMode::HighConfidence, false);
        let hard = coverage_summary(&trials, 100, CfvMode::HighConfidence, true);
        eprintln!(
            "fig8: measured fractions: baseline {:.3} restore {:.3} lhf {:.3} lhf+restore {:.3}",
            base.failure_fraction,
            base.residual_failure_fraction,
            hard.failure_fraction,
            hard.residual_failure_fraction
        );
        FitScaling::new(
            base.failure_fraction.max(1e-4),
            base.residual_failure_fraction.max(1e-4),
            hard.failure_fraction.max(1e-4),
            hard.residual_failure_fraction.max(1e-4),
        )
    };

    println!("# Figure 8 — FIT rates with device scaling (0.001 FIT/bit raw)");
    println!("# goal line: 1000-year MTBF = {MTBF_GOAL_FIT:.0} FIT");
    println!("{:<12}{:>12}{:>12}{:>12}{:>14}", "bits", "baseline", "ReStore", "lhf", "lhf+ReStore");
    for (bits, base, restore, lhf, both) in scaling.series(&figure8_sizes()) {
        println!(
            "{:<12}{:>12.1}{:>12.1}{:>12.1}{:>14.1}",
            format_bits(bits),
            base,
            restore,
            lhf,
            both
        );
    }
    println!(
        "\nMTBF improvement (lhf+ReStore over baseline): {:.1}x  (paper: ~7x)",
        scaling.mtbf_improvement()
    );
    println!(
        "largest design meeting the goal: baseline {} bits, lhf+ReStore {} bits",
        format_bits(scaling.baseline.max_bits_at_goal()),
        format_bits(scaling.lhf_restore.max_bits_at_goal())
    );
}

fn format_bits(b: f64) -> String {
    if b >= 1.0e6 {
        format!("{:.1}M", b / 1.0e6)
    } else {
        format!("{:.0}k", b / 1.0e3)
    }
}
