//! The detector-configuration sweep behind `restore-sweep`: grid cells
//! (re-simulated detector hardware/software variants) × post-hoc source
//! subsets × checkpoint intervals, scored on a coverage/overhead plane.
//!
//! Two kinds of knob make up a configuration:
//!
//! * **Cell knobs** change what the campaign records — JRS geometry and
//!   watchdog timeout alter the pipeline's own detectors, and the
//!   software knobs (`sig_chunk`, `dup_mask`) alter which observation
//!   latencies get written into the trial records. Each distinct cell
//!   has its own campaign digest, so a `--store` directory keys every
//!   cell's trials separately and re-sweeps start warm.
//! * **Post-hoc knobs** are free — the enabled-source subset
//!   ([`SourceSet`]) and the checkpoint interval only select among the
//!   already-recorded first-firing latencies
//!   ([`UarchTrial::detected_within`]).
//!
//! Coverage is the fraction of failures the enabled sources catch
//! within the interval; overhead folds the false-positive rollback cost
//! (the Figure 7 analytic model, immediate policy) together with the
//! software detectors' dynamic instruction expansion. The frontier is
//! marked per workload and for the pooled suite by [`pareto_indices`].

use crate::pareto_indices;
use restore_inject::{CfvMode, SourceSet, UarchCampaignConfig, UarchTrial};
use restore_perf::{PerfModel, WorkloadProfile};
use restore_uarch::UarchConfig;
use restore_workloads::WorkloadId;

/// One simulated grid cell: a detector configuration that changes what
/// the campaign records, so it costs a (store-cached) campaign run.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Stable cell name for tables and JSON.
    pub name: &'static str,
    /// Campaign configuration (detector knobs folded in).
    pub cfg: UarchCampaignConfig,
    /// Score with the hardened (parity/ECC) pipeline of §5.2.2: lhf
    /// bits are recovered in hardware and leave the failure population.
    pub hardened: bool,
    /// Post-hoc source subsets evaluated against this cell's records.
    pub subsets: Vec<SourceSet>,
}

/// The store identity of a cell's records: exactly its campaign
/// configuration's digest. Cells differing only in post-hoc knobs
/// (`name`, `hardened`, `subsets`) share one digest and therefore one
/// (cached) campaign run. The pattern names every field, so a new one
/// does not compile until it is classified here.
pub fn cell_digest(cell: &SweepCell) -> u64 {
    let SweepCell {
        name: _, // display label; two names over one cfg record identically
        cfg,
        hardened: _, // post-hoc scoring policy over already-recorded trials
        subsets: _,  // post-hoc subset selection reads recorded latencies only
    } = cell;
    restore_inject::uarch_campaign_digest(cfg)
}

/// The default sweep grid over a base campaign configuration: the
/// paper's detector set and its ablations, the software-only sources,
/// JRS geometry variants, a faster watchdog, and the hardened pipeline.
pub fn default_cells(base: &UarchCampaignConfig) -> Vec<SweepCell> {
    let cell = |name, detectors, uarch: UarchConfig, hardened, subsets| SweepCell {
        name,
        cfg: UarchCampaignConfig { detectors, uarch, ..base.clone() },
        hardened,
        subsets,
    };
    let paper_det = restore_inject::DetectorConfig::paper();
    let lhf_det = restore_inject::DetectorConfig::lhf();
    let hc = SourceSet::paper();
    vec![
        cell(
            "paper",
            paper_det,
            base.uarch.clone(),
            false,
            vec![
                SourceSet { watchdog: false, ..SourceSet::baseline() },
                SourceSet::baseline(),
                hc,
                SourceSet { cfv: Some(CfvMode::Perfect), ..hc },
                SourceSet { cfv: Some(CfvMode::AnyMispredict), ..hc },
            ],
        ),
        cell(
            "software",
            lhf_det,
            base.uarch.clone(),
            false,
            vec![
                SourceSet { signature: true, ..hc },
                SourceSet { dup: true, ..hc },
                SourceSet { signature: true, dup: true, ..hc },
                SourceSet {
                    exceptions: false,
                    watchdog: false,
                    cfv: None,
                    signature: true,
                    dup: true,
                },
            ],
        ),
        cell(
            "jrs-relaxed",
            paper_det,
            UarchConfig { jrs_threshold: 7, ..base.uarch.clone() },
            false,
            vec![hc],
        ),
        cell(
            "jrs-small",
            paper_det,
            UarchConfig { jrs_entries: 256, ..base.uarch.clone() },
            false,
            vec![hc],
        ),
        cell(
            "wd-fast",
            paper_det,
            UarchConfig { watchdog_cycles: 500, ..base.uarch.clone() },
            false,
            vec![SourceSet::baseline(), hc],
        ),
        cell("hardened", paper_det, base.uarch.clone(), true, vec![hc]),
    ]
}

/// One evaluated configuration on the coverage/overhead plane.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Workload scored, or `None` for the pooled suite.
    pub workload: Option<WorkloadId>,
    /// Grid cell the records came from.
    pub cell: &'static str,
    /// Enabled-source subset label ([`SourceSet::label`]).
    pub sources: String,
    /// Checkpoint interval (retired instructions).
    pub interval: u64,
    /// Failures in the (hardened-adjusted) population.
    pub failures: usize,
    /// Failures detected within the interval.
    pub covered: usize,
    /// `covered / failures` (1 when there are no failures).
    pub coverage: f64,
    /// `1 −` relative performance: false-positive rollbacks plus the
    /// software detectors' dynamic instruction expansion.
    pub overhead: f64,
    /// Dedicated detector storage (bits).
    pub table_bits: u64,
    /// Extra per-checkpoint state (bits).
    pub checkpoint_bits: u64,
    /// On the Pareto frontier of its workload group.
    pub pareto: bool,
}

/// False-positive symptom count a source subset produces on the
/// fault-free profile: the cfv model is the only source that fires
/// without a fault (exceptions, watchdog, signature and duplication
/// compare against golden behaviour, so their fault-free rate is zero;
/// perfect cfv is an oracle).
fn false_positives(p: &WorkloadProfile, sel: &SourceSet) -> f64 {
    match sel.cfv {
        Some(CfvMode::HighConfidence) => p.symptom_positions.len() as f64,
        Some(CfvMode::AnyMispredict) => p.mispredicts as f64,
        _ => 0.0,
    }
}

/// Relative performance of one workload under a configuration: the
/// Figure 7 immediate-rollback model (expected 1.5-interval re-execution
/// per false positive) times the software detectors' instruction-expansion
/// slowdown.
fn speedup(
    model: &PerfModel,
    p: &WorkloadProfile,
    sel: &SourceSet,
    interval: u64,
    extra_instr_frac: f64,
) -> f64 {
    let base = p.cycles as f64;
    let rollback = false_positives(p, sel) * 1.5 * interval as f64 * model.reexec_cpi(p);
    (base / (base + rollback)) / (1.0 + extra_instr_frac)
}

/// Scores one cell's trial records: every subset × interval, for each
/// workload and for the pooled suite. `pareto` is left `false`; the
/// caller marks frontiers once all cells are in
/// ([`mark_pareto_frontiers`]).
pub fn evaluate_cell(
    cell: &SweepCell,
    trials: &[UarchTrial],
    profiles: &[WorkloadProfile],
    intervals: &[u64],
) -> Vec<SweepPoint> {
    let model = PerfModel::default();
    let uarch = &cell.cfg.uarch;
    let groups: Vec<Option<WorkloadId>> =
        std::iter::once(None).chain(WorkloadId::ALL.iter().copied().map(Some)).collect();
    let mut out = Vec::new();
    for sel in &cell.subsets {
        let cost = sel.overhead(&cell.cfg.detectors, uarch.jrs_entries, uarch.jrs_max);
        for &interval in intervals {
            for &group in &groups {
                let in_group = |t: &&UarchTrial| group.is_none_or(|w| t.workload == w);
                // The hardened pipeline recovers lhf flips in hardware,
                // removing them from the failure population (§5.2.2).
                let failing: Vec<&UarchTrial> = trials
                    .iter()
                    .filter(in_group)
                    .filter(|t| t.is_failure() && !(cell.hardened && t.lhf_protected))
                    .collect();
                let covered = failing.iter().filter(|t| t.detected_within(sel, interval)).count();
                let geo: f64 = {
                    let ps: Vec<&WorkloadProfile> =
                        profiles.iter().filter(|p| group.is_none_or(|w| p.workload == w)).collect();
                    if ps.is_empty() {
                        1.0
                    } else {
                        let log_sum: f64 = ps
                            .iter()
                            .map(|p| speedup(&model, p, sel, interval, cost.extra_instr_frac).ln())
                            .sum();
                        (log_sum / ps.len() as f64).exp()
                    }
                };
                out.push(SweepPoint {
                    workload: group,
                    cell: cell.name,
                    sources: sel.label(),
                    interval,
                    failures: failing.len(),
                    covered,
                    coverage: covered as f64 / failing.len().max(1) as f64,
                    overhead: 1.0 - geo,
                    table_bits: cost.table_bits,
                    checkpoint_bits: cost.checkpoint_bits,
                    pareto: false,
                });
            }
        }
    }
    out
}

/// Marks the Pareto frontier (maximize coverage, minimize overhead)
/// within each workload group (the pooled group competes separately).
pub fn mark_pareto_frontiers(points: &mut [SweepPoint]) {
    let groups: Vec<Option<WorkloadId>> =
        std::iter::once(None).chain(WorkloadId::ALL.iter().copied().map(Some)).collect();
    for group in groups {
        let idx: Vec<usize> = (0..points.len()).filter(|&i| points[i].workload == group).collect();
        let plane: Vec<(f64, f64)> =
            idx.iter().map(|&i| (points[i].coverage, points[i].overhead)).collect();
        for k in pareto_indices(&plane) {
            points[idx[k]].pareto = true;
        }
    }
}

/// Renders the pooled-suite table: one row per configuration, frontier
/// rows marked `*`.
pub fn combined_table(points: &[SweepPoint]) -> String {
    let mut out = format!(
        "{:<2}{:<12}{:<24}{:>9}{:>10}{:>10}{:>12}{:>11}\n",
        "", "cell", "sources", "interval", "coverage", "overhead", "table-bits", "ckpt-bits"
    );
    for p in points.iter().filter(|p| p.workload.is_none()) {
        out.push_str(&format!(
            "{:<2}{:<12}{:<24}{:>9}{:>9.1}%{:>9.2}%{:>12}{:>11}\n",
            if p.pareto { "*" } else { "" },
            p.cell,
            p.sources,
            p.interval,
            100.0 * p.coverage,
            100.0 * p.overhead,
            p.table_bits,
            p.checkpoint_bits,
        ));
    }
    out
}

/// Renders the per-workload Pareto frontiers (frontier rows only — the
/// full plane is in the JSON).
pub fn frontier_table(points: &[SweepPoint]) -> String {
    let mut out = String::new();
    for w in WorkloadId::ALL {
        out.push_str(&format!("{}:\n", w.name()));
        for p in points.iter().filter(|p| p.workload == Some(w) && p.pareto) {
            out.push_str(&format!(
                "  {:<12}{:<24}{:>9}{:>9.1}%{:>9.2}%\n",
                p.cell,
                p.sources,
                p.interval,
                100.0 * p.coverage,
                100.0 * p.overhead,
            ));
        }
    }
    out
}

/// Serializes every point as a JSON array (hand-rolled — the repo takes
/// no serialization dependency; labels are `[a-z()+-]` so no escaping
/// is needed).
pub fn render_json(points: &[SweepPoint]) -> String {
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"workload\":\"{}\",\"cell\":\"{}\",\"sources\":\"{}\",\"interval\":{},\
             \"failures\":{},\"covered\":{},\"coverage\":{:.6},\"overhead\":{:.6},\
             \"table_bits\":{},\"checkpoint_bits\":{},\"pareto\":{}}}{}\n",
            p.workload.map_or("combined", |w| w.name()),
            p.cell,
            p.sources,
            p.interval,
            p.failures,
            p.covered,
            p.coverage,
            p.overhead,
            p.table_bits,
            p.checkpoint_bits,
            p.pareto,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage_summary;
    use restore_inject::run_uarch_campaign;
    use restore_perf::profile_workload;

    fn smoke_base() -> UarchCampaignConfig {
        UarchCampaignConfig {
            points_per_workload: 2,
            trials_per_point: 4,
            warmup_cycles: 500,
            window_cycles: 1_500,
            drain_cycles: 1_000,
            seed: 0x60D,
            ..UarchCampaignConfig::default()
        }
    }

    fn smoke_profiles(uarch: &UarchConfig) -> Vec<WorkloadProfile> {
        WorkloadId::ALL
            .iter()
            .map(|&id| profile_workload(id, smoke_base().scale, uarch, 20_000))
            .collect()
    }

    /// The acceptance bar: the paper-default cell's `exc+wd+cfv(hc)`
    /// coverage must equal the Figure 5 (baseline) and Figure 6
    /// (hardened) classification pipeline exactly, at every interval.
    #[test]
    fn paper_default_cell_reproduces_fig5_and_fig6_coverage() {
        let base = smoke_base();
        let trials = run_uarch_campaign(&base);
        let profiles = smoke_profiles(&base.uarch);
        let cells = default_cells(&base);
        let intervals = crate::FIG46_INTERVALS;
        for (name, hardened) in [("paper", false), ("hardened", true)] {
            let cell = cells.iter().find(|c| c.name == name).unwrap();
            let points = evaluate_cell(cell, &trials, &profiles, &intervals);
            for &interval in &intervals {
                let want = coverage_summary(&trials, interval, CfvMode::HighConfidence, hardened)
                    .coverage_of_failures;
                let got = points
                    .iter()
                    .find(|p| {
                        p.workload.is_none()
                            && p.sources == SourceSet::paper().label()
                            && p.interval == interval
                    })
                    .unwrap()
                    .coverage;
                assert!(
                    (got - want).abs() < 1e-12,
                    "{name}@{interval}: sweep coverage {got} != figure coverage {want}"
                );
            }
        }
    }

    #[test]
    fn grid_meets_the_configuration_floor_and_ablations_order() {
        let base = smoke_base();
        let cells = default_cells(&base);
        let subsets: usize = cells.iter().map(|c| c.subsets.len()).sum();
        assert!(
            subsets * crate::FIG46_INTERVALS.len() >= 24,
            "default grid must evaluate at least 24 configurations per workload"
        );

        let trials = run_uarch_campaign(&base);
        let profiles = smoke_profiles(&base.uarch);
        let paper = cells.iter().find(|c| c.name == "paper").unwrap();
        let mut points = evaluate_cell(paper, &trials, &profiles, &[100]);
        let get = |points: &[SweepPoint], label: &str| -> SweepPoint {
            points.iter().find(|p| p.workload.is_none() && p.sources == label).cloned().unwrap()
        };
        // More sources never cover less, and the any-mispredict oracle
        // dominates high-confidence coverage at higher overhead.
        let exc = get(&points, "exc");
        let base_set = get(&points, "exc+wd");
        let hc = get(&points, "exc+wd+cfv(hc)");
        let any = get(&points, "exc+wd+cfv(any)");
        assert!(exc.coverage <= base_set.coverage && base_set.coverage <= hc.coverage);
        assert!(hc.coverage <= any.coverage);
        assert!(any.overhead >= hc.overhead);
        assert!(hc.table_bits > 0, "JRS confidence table is priced");
        assert_eq!(base_set.table_bits, 64, "watchdog counter only");

        mark_pareto_frontiers(&mut points);
        assert!(points.iter().any(|p| p.pareto), "some point is always non-dominated");
        let json = render_json(&points);
        assert!(json.contains("\"workload\":\"combined\""));
        assert!(json.trim_end().ends_with(']'));
    }
}
