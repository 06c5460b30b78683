//! `restore-sweep` — grid-sweeps detector configurations (checkpoint
//! interval × JRS geometry × watchdog timeout × enabled-source subsets,
//! including the software-only signature/duplication sources) and
//! reports the coverage/overhead Pareto frontier per workload and for
//! the pooled suite.
//!
//! Each grid *cell* is a campaign with its own configuration digest, so
//! with `--store DIR` every cell's trials persist independently and a
//! re-sweep (or a single-cell audit run) starts warm. The post-hoc axes
//! — enabled sources and checkpoint interval — are free: they only
//! select among recorded first-firing latencies.
//!
//! Usage: `restore-sweep [--points N] [--trials N] [--seed S]
//! [--threads N] [--prune off|interval|audit] [--store DIR]
//! [--sig-chunk N] [--dup-mask M] [--json PATH] [--profile-cycles N]
//! [--intervals A,B,..]`

use restore_bench::sweep::{
    cell_digest, combined_table, default_cells, evaluate_cell, frontier_table,
    mark_pareto_frontiers, render_json, SweepPoint,
};
use restore_bench::{cli, FIG46_INTERVALS};
use restore_inject::{run_uarch_campaign_io, Shard, TrialCache};
use restore_perf::profile_workload;
use restore_workloads::WorkloadId;
use std::collections::BTreeMap;

const USAGE: &str = "restore-sweep [--points N] [--trials N] [--seed S] [--threads N] \
                     [--prune off|interval|audit] [--store DIR] [--sig-chunk N] \
                     [--dup-mask M] [--json PATH] [--profile-cycles N] [--intervals A,B,..]";

/// Parses `--intervals 25,100,500` (defaults to the Figures 4–6 axis).
fn intervals(args: &[String]) -> Result<Vec<u64>, cli::CliError> {
    match cli::value(args, "--intervals")? {
        None => Ok(FIG46_INTERVALS.to_vec()),
        Some(list) => list
            .split(',')
            .map(|v| {
                v.parse::<u64>().ok().filter(|&i| i > 0).ok_or_else(|| {
                    cli::CliError(format!("--intervals: `{v}` is not a positive integer"))
                })
            })
            .collect(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::or_exit(
        cli::reject_unknown(
            &args,
            &cli::uarch_flags_plus(&["--json", "--profile-cycles", "--intervals"]),
        ),
        USAGE,
    );
    let mut base = restore_inject::UarchCampaignConfig::default();
    cli::or_exit(cli::apply_uarch_flags(&mut base, &args), USAGE);
    let intervals = cli::or_exit(intervals(&args), USAGE);
    let profile_cycles =
        cli::or_exit(cli::nonzero_u64(&args, "--profile-cycles"), USAGE).unwrap_or(50_000);
    let json_path = cli::or_exit(cli::value(&args, "--json"), USAGE).map(str::to_owned);
    let store_dir = cli::or_exit(cli::store_path(&args), USAGE);

    let cells = default_cells(&base);
    eprintln!(
        "restore-sweep: {} cells x {} source subsets x {} intervals \
         ({} points x {} trials x {} workloads per cell) ...",
        cells.len(),
        cells.iter().map(|c| c.subsets.len()).sum::<usize>(),
        intervals.len(),
        base.points_per_workload,
        base.trials_per_point,
        WorkloadId::ALL.len(),
    );

    // Cells sharing a campaign digest (e.g. `paper` and `hardened`
    // differ only in scoring) simulate once and share the records.
    // BTreeMaps: the cell loop iterates deterministically and the
    // emitted point order must be reproducible run-to-run.
    let mut campaigns: BTreeMap<u64, std::rc::Rc<Vec<restore_inject::UarchTrial>>> =
        BTreeMap::new();
    let mut profiles: BTreeMap<u64, Vec<restore_perf::WorkloadProfile>> = BTreeMap::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    for cell in &cells {
        let digest = cell_digest(cell);
        let trials = campaigns
            .entry(digest)
            .or_insert_with(|| {
                let store = store_dir.as_ref().map(|dir| {
                    cli::or_exit(
                        TrialCache::open(dir, "all", digest)
                            .map_err(|e| cli::CliError(format!("--store {}: {e}", dir.display()))),
                        USAGE,
                    )
                });
                let (trials, stats) = run_uarch_campaign_io(&cell.cfg, store.as_ref(), Shard::ALL);
                if let Some(s) = &store {
                    s.sync().expect("trial store sync failed");
                }
                eprintln!("restore-sweep[{}]: {stats}", cell.name);
                std::rc::Rc::new(trials)
            })
            .clone();
        // The overhead axis needs the fault-free profile under the
        // cell's pipeline geometry (JRS threshold and table size change
        // the false-positive symptom rate). Keyed the same way.
        let profs = profiles.entry(digest).or_insert_with(|| {
            WorkloadId::ALL
                .iter()
                .map(|&id| profile_workload(id, cell.cfg.scale, &cell.cfg.uarch, profile_cycles))
                .collect()
        });
        points.extend(evaluate_cell(cell, &trials, profs, &intervals));
    }
    mark_pareto_frontiers(&mut points);

    let per_workload =
        points.iter().filter(|p| p.workload.is_some()).count() / WorkloadId::ALL.len();
    println!("# restore-sweep — detector configuration coverage/overhead plane");
    println!("# {per_workload} configurations per workload; * marks the pooled Pareto frontier");
    println!("{}", combined_table(&points));
    println!("# per-workload Pareto frontiers (full plane in --json)");
    println!("{}", frontier_table(&points));

    if let Some(path) = json_path {
        std::fs::write(&path, render_json(&points)).expect("write --json output");
        eprintln!("restore-sweep: wrote {} points to {path}", points.len());
    }
}
