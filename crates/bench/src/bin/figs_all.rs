//! Runs a single shared microarchitectural campaign and regenerates
//! Figures 4, 5, 6 and 8 from it, plus Figure 2 (architectural campaign)
//! and Figure 7 (timing model) — everything the paper's evaluation
//! section reports, in one pass.
//!
//! Usage: `figs_all [--points N] [--trials N] [--arch-trials N] [--seed S] [--threads N]
//! [--cutoff K] [--prune off|interval|audit]`

use restore_bench::*;
use restore_core::fit::{figure8_sizes, FitScaling, MTBF_GOAL_FIT};
use restore_inject::{
    run_arch_campaign_io, run_uarch_campaign_io, ArchCampaignConfig, CfvMode, InjectionTarget,
    Shard, UarchCampaignConfig,
};
use restore_perf::{profile_all, PerfModel, Policy, FIGURE7_INTERVALS};
use restore_uarch::UarchConfig;

const USAGE: &str = "figs_all [--points N] [--trials N] [--arch-trials N] [--seed S] \
                     [--threads N] [--cutoff K] [--prune off|interval|audit] [--ckpt-stride K] \
                     [--store DIR]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // determinism: allow -- stderr progress timing; figure output is time-free
    let t0 = std::time::Instant::now();
    cli::or_exit(cli::reject_unknown(&args, &cli::uarch_flags_plus(&["--arch-trials"])), USAGE);

    // ---------------- Figure 2 ----------------
    let mut acfg = ArchCampaignConfig::default();
    cli::or_exit(cli::apply_arch_flags(&mut acfg, &args, "--arch-trials"), USAGE);
    eprintln!(
        "[{:6.1}s] figure 2 ({} trials/workload) ...",
        t0.elapsed().as_secs_f64(),
        acfg.trials_per_workload
    );
    // One `--store` directory serves all four campaigns below: each
    // opens it under its own campaign digest, so records never cross.
    let (arch_trials, astats) = {
        let store = cli::or_exit(cli::open_arch_store(&acfg, &args), USAGE);
        run_arch_campaign_io(&acfg, store.as_ref(), Shard::ALL)
    };
    eprintln!("[{:6.1}s] figure 2: {astats}", t0.elapsed().as_secs_f64());
    println!("==== Figure 2 — virtual machine fault injection ({} trials) ====", arch_trials.len());
    println!("{}", arch_table(&arch_trials, &FIG2_LATENCIES));

    let low32 = ArchCampaignConfig { low32: true, ..acfg.clone() };
    let (low32_trials, _) = {
        let store = cli::or_exit(cli::open_arch_store(&low32, &args), USAGE);
        run_arch_campaign_io(&low32, store.as_ref(), Shard::ALL)
    };
    println!("==== Figure 2 variant — low-32-bit flips (§3.1) ====");
    println!("{}", arch_table(&low32_trials, &FIG2_LATENCIES));

    // ---------------- Shared µarch campaign ----------------
    let mut ucfg = UarchCampaignConfig::default();
    cli::or_exit(cli::apply_uarch_flags(&mut ucfg, &args), USAGE);
    eprintln!(
        "[{:6.1}s] µarch campaign ({} points x {} trials x 7 workloads) ...",
        t0.elapsed().as_secs_f64(),
        ucfg.points_per_workload,
        ucfg.trials_per_point
    );
    let (trials, ustats) = {
        let store = cli::or_exit(cli::open_uarch_store(&ucfg, &args), USAGE);
        run_uarch_campaign_io(&ucfg, store.as_ref(), Shard::ALL)
    };
    eprintln!("[{:6.1}s] µarch campaign: {ustats}", t0.elapsed().as_secs_f64());

    println!(
        "==== Figure 4 — µarch injection, all state, perfect cfv ({} trials) ====",
        trials.len()
    );
    println!("{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::Perfect, false));

    let latch_cfg = UarchCampaignConfig { target: InjectionTarget::LatchesOnly, ..ucfg.clone() };
    let (latch_trials, _) = {
        let store = cli::or_exit(cli::open_uarch_store(&latch_cfg, &args), USAGE);
        run_uarch_campaign_io(&latch_cfg, store.as_ref(), Shard::ALL)
    };
    println!("==== §5.1.2 — latches only, perfect cfv ({} trials) ====", latch_trials.len());
    println!("{}", uarch_table(&latch_trials, &FIG46_INTERVALS, CfvMode::Perfect, false));
    let l = coverage_summary(&latch_trials, 100, CfvMode::Perfect, false);
    println!(
        "latch-only coverage of failures @100: {:.1}%  (paper: ~75%)\n",
        100.0 * l.coverage_of_failures
    );

    println!("==== Figure 5 — ReStore (JRS-confidence cfv) ====");
    println!("{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::HighConfidence, false));

    println!("==== Figure 6 — hardened pipeline + ReStore ====");
    println!("{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::HighConfidence, true));

    let base100 = coverage_summary(&trials, 100, CfvMode::Perfect, false);
    let jrs100 = coverage_summary(&trials, 100, CfvMode::HighConfidence, false);
    let hard100 = coverage_summary(&trials, 100, CfvMode::HighConfidence, true);
    println!("headline @100-instruction interval:");
    println!(
        "  failure fraction          {:.2}% ±{:.2}%  (paper ~7-8%)",
        100.0 * base100.failure_fraction,
        100.0 * base100.ci95
    );
    println!(
        "  perfect-cfv coverage      {:.1}%  (paper ~50%)",
        100.0 * base100.coverage_of_failures
    );
    println!(
        "  ReStore residual          {:.2}%  (paper ~3.5%)",
        100.0 * jrs100.residual_failure_fraction
    );
    println!("  lhf failure fraction      {:.2}%  (paper ~3%)", 100.0 * hard100.failure_fraction);
    println!(
        "  lhf+ReStore residual      {:.2}%  (paper ~1%)",
        100.0 * hard100.residual_failure_fraction
    );
    println!(
        "  MTBF improvement          {:.1}x  (paper ~7x)\n",
        base100.failure_fraction / hard100.residual_failure_fraction.max(1e-9)
    );

    // ---------------- Figure 7 ----------------
    eprintln!("[{:6.1}s] figure 7 ...", t0.elapsed().as_secs_f64());
    let profiles = profile_all(ucfg.scale, &UarchConfig::default(), 150_000);
    let model = PerfModel::default();
    println!("==== Figure 7 — performance impact of false positives ====");
    println!("{:<10}{:>10}{:>10}", "interval", "imm", "delayed");
    for &i in &FIGURE7_INTERVALS {
        println!(
            "{i:<10}{:>10.3}{:>10.3}",
            model.mean_speedup(&profiles, i, Policy::Immediate),
            model.mean_speedup(&profiles, i, Policy::Delayed)
        );
    }
    println!();

    // ---------------- Figure 8 ----------------
    let scaling = FitScaling::new(
        base100.failure_fraction.max(1e-4),
        jrs100.residual_failure_fraction.max(1e-4),
        hard100.failure_fraction.max(1e-4),
        hard100.residual_failure_fraction.max(1e-4),
    );
    println!(
        "==== Figure 8 — FIT vs design size (measured fractions; goal {MTBF_GOAL_FIT:.0} FIT) ===="
    );
    println!("{:<12}{:>12}{:>12}{:>12}{:>14}", "bits", "baseline", "ReStore", "lhf", "lhf+ReStore");
    for (bits, base, restore, lhf, both) in scaling.series(&figure8_sizes()) {
        println!("{:<12.0}{:>12.1}{:>12.1}{:>12.1}{:>14.1}", bits, base, restore, lhf, both);
    }
    println!("MTBF improvement: {:.1}x  (paper ~7x)", scaling.mtbf_improvement());
    eprintln!("[{:6.1}s] all figures done", t0.elapsed().as_secs_f64());
}
