//! `restore-maskmap` — build, inspect and cross-check masking-interval
//! maps, and emit the per-structure AVF report.
//!
//! ```text
//! restore-maskmap [--workload NAME] [--scale smoke|campaign]
//!                 [--warmup N] [--window N] [--map-dir DIR]
//!                 [--avf] [--census] [--json PATH]
//! ```
//!
//! With no mode flag, prints a per-workload summary of each map's
//! interval inventory. `--avf` prints the AVF table (µarch regions plus
//! the architectural register file / PC) and, with `--json`, writes the
//! same rows as a JSON report. `--census` cross-checks every µarch
//! map's field table against the state catalog's bit census and exits
//! nonzero on the first mismatch; it takes neither `--avf` nor
//! `--json`. A repeated flag, like any malformed command line, exits 2
//! with the usage line before any map is built.
//!
//! µarch maps are keyed at the horizon a µarch campaign with the same
//! `--warmup` and `--window` (and the default drain) uses, so the maps
//! `--map-dir DIR` persists are the ones `--prune interval` campaigns
//! given `--store DIR` load instead of building. The workloads' maps
//! resolve concurrently, one per available core.

use restore_maskmap::{map_horizon, resolve_maps, uarch_map, ArchMaskMap, AvfRow};
use restore_store::Json;
use restore_uarch::{Pipeline, UarchConfig};
use restore_workloads::{Scale, WorkloadId};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    workloads: Vec<WorkloadId>,
    scale: Scale,
    warmup: u64,
    window: u64,
    map_dir: Option<PathBuf>,
    avf: bool,
    census: bool,
    json: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: restore-maskmap [--workload NAME] [--scale smoke|campaign] \
         [--warmup N] [--window N] [--map-dir DIR] [--avf] [--census] [--json PATH]"
    );
    std::process::exit(2)
}

/// The µarch campaigns' default drain allowance, which their maps'
/// horizon includes.
const DRAIN_CYCLES: u64 = 3_000;

impl Default for Opts {
    /// The µarch campaigns' default geometry, all seven workloads.
    fn default() -> Opts {
        Opts {
            workloads: WorkloadId::ALL.to_vec(),
            scale: Scale::campaign(),
            warmup: 2_000,
            window: 10_000,
            map_dir: None,
            avf: false,
            census: false,
            json: None,
        }
    }
}

impl Opts {
    /// The horizon a campaign at this warm-up and window keys its maps
    /// at, so maps persisted here load in `--prune interval` campaigns
    /// given the same directory as `--store`.
    fn horizon(&self) -> u64 {
        map_horizon(self.warmup, self.window, DRAIN_CYCLES)
    }
}

fn parse_args() -> Opts {
    let mut opts = Opts::default();
    let mut seen: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // Only a known flag can reach its second occurrence: an unknown
        // word exits at its first.
        if seen.contains(&arg) {
            eprintln!("{arg} given more than once");
            usage()
        }
        seen.push(arg.clone());
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                let Some(id) = WorkloadId::ALL.iter().find(|w| w.name() == name) else {
                    eprintln!("unknown workload {name:?}");
                    usage()
                };
                opts.workloads = vec![*id];
            }
            "--scale" => {
                opts.scale = match value("--scale").as_str() {
                    "smoke" => Scale::smoke(),
                    "campaign" => Scale::campaign(),
                    other => {
                        eprintln!("unknown scale {other:?}");
                        usage()
                    }
                };
            }
            "--warmup" => opts.warmup = parse_num(&value("--warmup")),
            "--window" => opts.window = parse_num(&value("--window")),
            "--map-dir" => opts.map_dir = Some(PathBuf::from(value("--map-dir"))),
            "--json" => opts.json = Some(PathBuf::from(value("--json"))),
            "--avf" => opts.avf = true,
            "--census" => opts.census = true,
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage()
            }
        }
    }
    if opts.census && (opts.avf || opts.json.is_some()) {
        eprintln!("--census cannot be combined with --avf or --json");
        usage()
    }
    opts
}

fn parse_num(s: &str) -> u64 {
    s.replace('_', "").parse().unwrap_or_else(|_| {
        eprintln!("expected a number, got {s:?}");
        usage()
    })
}

fn main() -> ExitCode {
    let opts = parse_args();
    let horizon = opts.horizon();
    let uarch = UarchConfig::default();
    let map_dir = opts.map_dir.as_deref();
    if let Some(dir) = map_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // The census needs only the µarch maps; the AVF report's
    // architectural rows come from a register access map built here.
    let maps = resolve_maps(&opts.workloads, threads, |id| {
        let arch = (!opts.census).then(|| ArchMaskMap::build(&id.build(opts.scale)));
        (uarch_map(id, opts.scale, &uarch, horizon, map_dir), arch)
    });

    let mut failures = 0u32;
    let mut report: Vec<(WorkloadId, Vec<AvfRow>)> = Vec::new();
    for (&id, (map, arch)) in opts.workloads.iter().zip(&maps) {
        let mut pipe = Pipeline::new(uarch.clone(), &id.build(opts.scale));
        let catalog = pipe.catalog();
        if opts.census {
            match map.census_check(&catalog) {
                Ok(()) => println!("{:<10} census ok: {} bits", id.name(), catalog.total_bits),
                Err(e) => {
                    eprintln!("{:<10} census MISMATCH: {e}", id.name());
                    failures += 1;
                }
            }
            continue;
        }
        let mut rows = map.avf(&catalog);
        rows.extend(arch.iter().flat_map(ArchMaskMap::avf));
        if opts.avf {
            println!("{} (span {} cycles)", id.name(), map.last_cycle());
            println!(
                "  {:<16} {:>8} {:>14} {:>14} {:>7}",
                "region", "bits", "dead bc", "masked bc", "AVF"
            );
            for r in &rows {
                println!(
                    "  {:<16} {:>8} {:>14} {:>14} {:>6.1}%",
                    r.name,
                    r.bits,
                    r.dead_bitcycles,
                    r.masked_bitcycles,
                    r.avf() * 100.0
                );
            }
        } else {
            let protected: u64 = rows.iter().map(AvfRow::protected_bitcycles).sum();
            let total: u64 = rows.iter().map(|r| r.bits * r.span).sum();
            println!(
                "{:<10} span {:>6} cycles, {:>3} regions, provably-masked bit-cycles: {} / {} ({:.1}%)",
                id.name(),
                map.last_cycle(),
                rows.len(),
                protected,
                total,
                100.0 * protected as f64 / total.max(1) as f64
            );
        }
        report.push((id, rows));
    }

    if let Some(path) = &opts.json {
        let v = Json::Obj(vec![
            ("kind".to_owned(), Json::from("avf-report")),
            ("scale".to_owned(), Json::from(format!("{:?}", opts.scale).as_str())),
            ("horizon".to_owned(), Json::UInt(horizon)),
            (
                "workloads".to_owned(),
                Json::Arr(
                    report
                        .iter()
                        .map(|(id, rows)| {
                            Json::Obj(vec![
                                ("workload".to_owned(), Json::from(id.name())),
                                (
                                    "regions".to_owned(),
                                    Json::Arr(rows.iter().map(AvfRow::to_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(path, v.render()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }

    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::Opts;
    use restore_inject::{maskmap_horizon, UarchCampaignConfig};

    /// Maps the CLI persists at its defaults must be the ones a default
    /// campaign given the same directory loads.
    #[test]
    fn default_horizon_is_the_default_campaigns() {
        assert_eq!(Opts::default().horizon(), maskmap_horizon(&UarchCampaignConfig::default()));
    }
}
