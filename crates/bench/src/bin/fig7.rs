//! Figure 7 — performance impact of false-positive symptoms: relative
//! performance vs. checkpoint interval for the `imm` and `delayed`
//! rollback policies.
//!
//! Two estimates are reported per interval: the paper's analytic model
//! (1.5/2-interval rollback distances priced at the re-execution CPI)
//! and a **replayed** figure in which every rollback actually restores
//! the older checkpoint from the golden checkpoint library and
//! re-executes, so the rollback distance is measured, not assumed
//! (`restore_core::measure_rollbacks`).
//!
//! Usage: `fig7 [--cycles N] [--size N]`

use restore_bench::cli;
use restore_core::{measure_rollbacks, ReplayMeasurement, RollbackPolicy};
use restore_perf::{profile_all, PerfModel, Policy, WorkloadProfile, FIGURE7_INTERVALS};
use restore_uarch::UarchConfig;
use restore_workloads::Scale;

const USAGE: &str = "fig7 [--cycles N] [--size N]";

/// Retired instructions between the golden checkpoints replay restores
/// from.
const CKPT_STRIDE: u64 = 5_000;

/// Geometric-mean speedup with each workload's rollback cycles replaced
/// by its *measured* re-execution instructions, priced at the same
/// re-execution CPI the analytic model uses.
fn replayed_mean_speedup(model: &PerfModel, rows: &[(WorkloadProfile, ReplayMeasurement)]) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = rows
        .iter()
        .map(|(p, m)| {
            let base = p.cycles as f64;
            let replay_cycles = m.reexec_instructions as f64 * model.reexec_cpi(p);
            (base / (base + replay_cycles)).ln()
        })
        .sum();
    (log_sum / rows.len() as f64).exp()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::or_exit(cli::reject_unknown(&args, &["--cycles", "--size"]), USAGE);
    let cycles = cli::or_exit(cli::nonzero_u64(&args, "--cycles"), USAGE).unwrap_or(150_000);
    let mut scale = Scale::campaign();
    if let Some(n) = cli::or_exit(cli::nonzero_u64(&args, "--size"), USAGE) {
        scale.size = n as usize;
    }

    eprintln!("fig7: profiling 7 workloads for {cycles} cycles each ...");
    #[expect(
        clippy::disallowed_methods,
        reason = "stderr progress timing; figure output is time-free"
    )]
    let start = std::time::Instant::now();
    let profiles = profile_all(scale, &UarchConfig::default(), cycles);
    eprintln!("fig7: profiled in {:.1}s", start.elapsed().as_secs_f64());

    for p in &profiles {
        eprintln!(
            "  {:8} ipc={:.2} mispredicts/kinstr={:.1} fp-symptoms/kinstr={:.2}",
            p.workload.name(),
            1.0 / p.cpi(),
            1000.0 * p.mispredicts as f64 / p.instructions.max(1) as f64,
            1000.0 * p.symptom_rate()
        );
    }

    let model = PerfModel::default();
    let replay =
        |interval: u64, policy: RollbackPolicy| -> Vec<(WorkloadProfile, ReplayMeasurement)> {
            profiles
                .iter()
                .map(|p| {
                    let m = measure_rollbacks(
                        p.workload,
                        scale,
                        interval,
                        policy,
                        &p.symptom_positions,
                        CKPT_STRIDE,
                    );
                    (p.clone(), m)
                })
                .collect()
        };

    println!("# Figure 7 — performance impact of false positive symptoms");
    println!("# rows: checkpoint interval; speedup relative to no-checkpoint baseline");
    println!("# (replay restores the older checkpoint at stride {CKPT_STRIDE} and re-executes)");
    println!(
        "{:<10}{:>10}{:>12}{:>10}{:>12}",
        "interval", "imm", "imm-replay", "delayed", "del-replay"
    );
    for &i in &FIGURE7_INTERVALS {
        let imm = model.mean_speedup(&profiles, i, Policy::Immediate);
        let del = model.mean_speedup(&profiles, i, Policy::Delayed);
        let imm_rows = replay(i, RollbackPolicy::Immediate);
        let del_rows = replay(i, RollbackPolicy::Delayed);
        let imm_replay = replayed_mean_speedup(&model, &imm_rows);
        let del_replay = replayed_mean_speedup(&model, &del_rows);
        println!("{i:<10}{imm:>10.3}{imm_replay:>12.3}{del:>10.3}{del_replay:>12.3}");
    }

    let at100 = model.mean_speedup(&profiles, 100, Policy::Immediate);
    let replay100 = replayed_mean_speedup(&model, &replay(100, RollbackPolicy::Immediate));
    let rows100 = replay(100, RollbackPolicy::Immediate);
    let rollbacks: u64 = rows100.iter().map(|(_, m)| m.rollbacks).sum();
    let verified: u64 = rows100.iter().map(|(_, m)| m.restores_verified).sum();
    let ratio: f64 = {
        let measured: u64 = rows100.iter().map(|(_, m)| m.reexec_instructions).sum();
        let analytic: f64 = rows100.iter().map(|(_, m)| m.analytic_instructions).sum();
        if analytic > 0.0 {
            measured as f64 / analytic
        } else {
            1.0
        }
    };
    println!("\nperformance hit @100 (imm):         {:.1}%  (paper: ~6%)", 100.0 * (1.0 - at100));
    println!("performance hit @100 (imm, replay): {:.1}%", 100.0 * (1.0 - replay100));
    println!(
        "replay @100: {rollbacks} rollbacks, {verified} fingerprint-verified restores, \
         measured/analytic re-execution = {ratio:.2}"
    );
}
