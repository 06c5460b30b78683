//! # restore-bench
//!
//! Benchmark harness regenerating every figure of the ReStore paper.
//!
//! One binary per figure prints the same series the paper plots:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2` | Figure 2 — architectural fault propagation vs. latency (`--low32` for the §3.1 variant) |
//! | `fig4` | Figure 4 — µarch injection, perfect cfv detection (`--latches-only` for §5.1.2) |
//! | `fig5` | Figure 5 — ReStore coverage with JRS-confidence cfv detection |
//! | `fig6` | Figure 6 — hardened (parity/ECC) pipeline + ReStore |
//! | `fig7` | Figure 7 — performance impact of false-positive rollbacks |
//! | `fig8` | Figure 8 — FIT rates with device scaling |
//! | `figs_all` | every figure in sequence (writes the EXPERIMENTS.md data) |
//!
//! All binaries accept `--points N`, `--trials N` (scale knobs) and
//! `--seed N`; defaults are sized for a single-core laptop run of
//! minutes. Campaign binaries also take `--threads N` (default: the
//! `RESTORE_THREADS` env var, then all available cores), `--cutoff K`
//! (reconvergence-cutoff stride; 0 disables) and
//! `--prune off|interval|audit` (`interval` classifies the trials the
//! static masking-interval map proves without simulating them, `audit`
//! re-simulates every pruned trial and asserts the prediction; `off`
//! is the default); results are bit-identical at every thread count
//! and with every optimisation on or off. With
//! `--store DIR` the masking maps persist next to the trial segments
//! and are reused by later runs. This library holds the shared flag
//! parsing ([`cli`]), aggregation and table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod sweep;

use restore_inject::{ArchCategory, ArchTrial, CfvMode, Proportion, UarchCategory, UarchTrial};

/// Latency bounds (instructions) used for the Figure 2 x-axis.
pub const FIG2_LATENCIES: [u64; 8] = [25, 50, 100, 200, 500, 1_000, 10_000, u64::MAX];

/// Checkpoint intervals (instructions) used for the Figures 4–6 x-axis.
pub const FIG46_INTERVALS: [u64; 7] = [25, 50, 100, 200, 500, 1_000, 2_000];

/// Formats a latency bound for a column header.
pub fn latency_label(l: u64) -> String {
    match l {
        u64::MAX => "inf".to_string(),
        v if v >= 1_000 => format!("{}k", v / 1_000),
        v => v.to_string(),
    }
}

/// Aggregates architectural trials into a Figure 2 table: one row per
/// category, one column per latency bound, cells in percent of all
/// trials.
pub fn arch_table(trials: &[ArchTrial], latencies: &[u64]) -> String {
    let total = trials.len().max(1) as f64;
    let mut out = String::new();
    out.push_str(&format!("{:<10}", "category"));
    for &l in latencies {
        out.push_str(&format!("{:>8}", latency_label(l)));
    }
    out.push('\n');
    for cat in ArchCategory::ALL {
        out.push_str(&format!("{:<10}", cat.label()));
        for &l in latencies {
            let n = trials.iter().filter(|t| t.classify(l) == cat).count();
            out.push_str(&format!("{:>7.1}%", 100.0 * n as f64 / total));
        }
        out.push('\n');
    }
    out
}

/// Aggregates microarchitectural trials into a Figures 4–6 table.
pub fn uarch_table(
    trials: &[UarchTrial],
    intervals: &[u64],
    cfv: CfvMode,
    hardened: bool,
) -> String {
    let total = trials.len().max(1) as f64;
    let mut out = String::new();
    out.push_str(&format!("{:<10}", "category"));
    for &i in intervals {
        out.push_str(&format!("{:>8}", latency_label(i)));
    }
    out.push('\n');
    for cat in UarchCategory::ALL {
        out.push_str(&format!("{:<10}", cat.label()));
        for &i in intervals {
            let n = trials.iter().filter(|t| t.classify(i, cfv, hardened) == cat).count();
            out.push_str(&format!("{:>7.2}%", 100.0 * n as f64 / total));
        }
        out.push('\n');
    }
    out
}

/// Summary numbers extracted from a µarch campaign at one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageSummary {
    /// Fraction of all trials that are failures.
    pub failure_fraction: f64,
    /// Fraction of failures covered by deadlock+exception+cfv symptoms.
    pub coverage_of_failures: f64,
    /// Fraction of all trials that remain uncovered failures.
    pub residual_failure_fraction: f64,
    /// 95% CI half-width on the failure fraction.
    pub ci95: f64,
}

/// Computes the headline coverage numbers at an interval.
pub fn coverage_summary(
    trials: &[UarchTrial],
    interval: u64,
    cfv: CfvMode,
    hardened: bool,
) -> CoverageSummary {
    let total = trials.len().max(1);
    let classified: Vec<UarchCategory> =
        trials.iter().map(|t| t.classify(interval, cfv, hardened)).collect();
    let failures = classified.iter().filter(|c| c.is_failure()).count();
    let covered = classified.iter().filter(|c| c.is_covered()).count();
    CoverageSummary {
        failure_fraction: failures as f64 / total as f64,
        coverage_of_failures: covered as f64 / failures.max(1) as f64,
        residual_failure_fraction: (failures - covered) as f64 / total as f64,
        ci95: Proportion::new(failures as u64, total as u64).ci95(),
    }
}

/// Indices of the Pareto-efficient points on a (gain, cost) plane —
/// maximize the first coordinate, minimize the second. A point is
/// dominated when another point is at least as good on both axes and
/// strictly better on one; duplicated points all survive (neither
/// dominates the other).
pub fn pareto_indices(points: &[(f64, f64)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points.iter().enumerate().any(|(j, &(g, c))| {
                j != i
                    && g >= points[i].0
                    && c <= points[i].1
                    && (g > points[i].0 || c < points[i].1)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_inject::EndState;
    use restore_workloads::WorkloadId;

    fn trial(exc: Option<u64>, end: EndState) -> UarchTrial {
        UarchTrial {
            workload: WorkloadId::Mcfx,
            bit: 0,
            region: "scheduler",
            lhf_protected: false,
            symptoms: restore_inject::SymptomLatencies { exception: exc, ..Default::default() },
            value_divergence: None,
            hc_mispredict: None,
            any_mispredict: None,
            sig_mismatch: None,
            dup_mismatch: None,
            extra_dcache_misses: 0,
            extra_dtlb_misses: 0,
            end,
        }
    }

    #[test]
    fn labels() {
        assert_eq!(latency_label(25), "25");
        assert_eq!(latency_label(2_000), "2k");
        assert_eq!(latency_label(u64::MAX), "inf");
    }

    #[test]
    fn uarch_table_has_all_rows_and_columns() {
        let trials =
            vec![trial(Some(10), EndState::Terminated), trial(None, EndState::MaskedClean)];
        let t = uarch_table(&trials, &FIG46_INTERVALS, CfvMode::Perfect, false);
        assert_eq!(t.lines().count(), 1 + UarchCategory::ALL.len());
        assert!(t.contains("masked"));
        assert!(t.contains("50.00%"));
    }

    #[test]
    fn pareto_frontier_keeps_only_non_dominated_points() {
        // (coverage, overhead): maximize the first, minimize the second.
        let pts = [
            (0.9, 0.10), // frontier
            (0.8, 0.05), // frontier (cheaper, less coverage)
            (0.8, 0.10), // dominated by both
            (0.9, 0.10), // duplicate of the first — both survive
            (0.5, 0.20), // dominated
        ];
        assert_eq!(pareto_indices(&pts), vec![0, 1, 3]);
        assert!(pareto_indices(&[]).is_empty());
        assert_eq!(pareto_indices(&[(0.1, 0.9)]), vec![0], "a lone point is the frontier");
    }

    #[test]
    fn coverage_summary_arithmetic() {
        let trials = vec![
            trial(Some(10), EndState::Terminated),  // covered failure
            trial(Some(900), EndState::Terminated), // uncovered at 100
            trial(None, EndState::MaskedClean),
            trial(None, EndState::MaskedClean),
        ];
        let s = coverage_summary(&trials, 100, CfvMode::Perfect, false);
        assert!((s.failure_fraction - 0.5).abs() < 1e-12);
        assert!((s.coverage_of_failures - 0.5).abs() < 1e-12);
        assert!((s.residual_failure_fraction - 0.25).abs() < 1e-12);
    }
}
