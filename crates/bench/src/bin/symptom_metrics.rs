//! §3.3 — generalised symptom evaluation: scores every candidate symptom
//! on the paper's three metrics:
//!
//! 1. how often failure-causing errors generate the symptom (coverage),
//! 2. the typical error-to-symptom propagation latency,
//! 3. how often the symptom fires in the *absence* of an error (false
//!    positives — the performance cost of arming it).
//!
//! Reproduces the paper's verdicts: exceptions score well on all three;
//! high-confidence mispredictions trade coverage for near-zero false
//! positives; raw mispredictions and cache misses fail metric 3.
//!
//! Usage: `symptom_metrics [--points N] [--trials N] [--seed S] [--threads N] [--cutoff K]
//! [--prune off|interval|audit]`

use restore_bench::cli;
use restore_inject::{run_uarch_campaign_io, Shard, UarchCampaignConfig, UarchTrial};
use restore_uarch::{Pipeline, Stop, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

struct Metric {
    name: &'static str,
    covered: usize,
    latencies: Vec<u64>,
    /// False positives per 1000 fault-free instructions.
    fp_per_kinstr: f64,
    verdict: &'static str,
}

fn median(v: &mut [u64]) -> Option<u64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    Some(v[v.len() / 2])
}

const USAGE: &str = "symptom_metrics [--points N] [--trials N] [--seed S] [--threads N] \
                     [--cutoff K] [--prune off|interval|audit] [--ckpt-stride K] [--store DIR]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // This study wants more bits per point than the campaign default.
    let mut cfg = UarchCampaignConfig { trials_per_point: 12, ..UarchCampaignConfig::default() };
    cli::or_exit(cli::reject_unknown(&args, &cli::UARCH_FLAGS), USAGE);
    cli::or_exit(cli::apply_uarch_flags(&mut cfg, &args), USAGE);

    // ---- metric 3: fault-free event rates ----
    eprintln!("measuring fault-free symptom rates ...");
    let mut instructions = 0u64;
    let (mut exceptions, mut hc_mis, mut all_mis) = (0u64, 0u64, 0u64);
    let (mut dc0, mut dt0) = (0u64, 0u64);
    for id in WorkloadId::ALL {
        let program = id.build(Scale::campaign());
        let mut pipe = Pipeline::new(UarchConfig::default(), &program);
        for _ in 0..60_000 {
            if pipe.status() != Stop::Running {
                break;
            }
            let r = pipe.cycle();
            exceptions += r.exception.is_some() as u64;
            for m in &r.mispredicts {
                if m.conditional {
                    all_mis += 1;
                    hc_mis += m.high_confidence as u64;
                }
            }
        }
        instructions += pipe.retired();
        let (_, dc, _, dt) = pipe.miss_counters();
        dc0 += dc;
        dt0 += dt;
    }
    let per_kinstr = |n: u64| 1000.0 * n as f64 / instructions.max(1) as f64;

    // ---- metrics 1 & 2: campaign coverage and latency ----
    eprintln!(
        "running campaign ({} points x {} trials x 7 workloads) ...",
        cfg.points_per_workload, cfg.trials_per_point
    );
    let store = cli::or_exit(cli::open_uarch_store(&cfg, &args), USAGE);
    let (trials, stats) = run_uarch_campaign_io(&cfg, store.as_ref(), Shard::ALL);
    let failures: Vec<&UarchTrial> = trials.iter().filter(|t| t.is_failure()).collect();
    eprintln!("{stats} ({} failures)", failures.len());

    let collect = |f: &dyn Fn(&UarchTrial) -> Option<u64>| -> (usize, Vec<u64>) {
        let mut lats = Vec::new();
        let mut covered = 0;
        for t in &failures {
            if let Some(l) = f(t) {
                covered += 1;
                lats.push(l);
            }
        }
        (covered, lats)
    };

    let (exc_c, exc_l) = collect(&|t| t.symptoms.exception.or(t.symptoms.deadlock));
    let (hc_c, hc_l) = collect(&|t| t.hc_mispredict);
    let (any_c, any_l) = collect(&|t| t.any_mispredict);
    let (dc_c, dc_l) = collect(&|t| (t.extra_dcache_misses > 0).then_some(0));
    let (dt_c, dt_l) = collect(&|t| (t.extra_dtlb_misses > 0).then_some(0));

    let metrics = [
        Metric {
            name: "exception (+watchdog)",
            covered: exc_c,
            latencies: exc_l,
            fp_per_kinstr: per_kinstr(exceptions),
            verdict: "excellent: high coverage, short latency, ~zero false positives",
        },
        Metric {
            name: "high-conf mispredict",
            covered: hc_c,
            latencies: hc_l,
            fp_per_kinstr: per_kinstr(hc_mis),
            verdict: "paper's pick: modest coverage, very low false positives",
        },
        Metric {
            name: "any mispredict",
            covered: any_c,
            latencies: any_l,
            fp_per_kinstr: per_kinstr(all_mis),
            verdict: "\"unacceptably costly\": rollback on every flush (§3.2.2)",
        },
        Metric {
            name: "d-cache miss",
            covered: dc_c,
            latencies: dc_l,
            fp_per_kinstr: per_kinstr(dc0),
            verdict: "§3.3's cautionary example: fails metric 3",
        },
        Metric {
            name: "d-TLB miss",
            covered: dt_c,
            latencies: dt_l,
            fp_per_kinstr: per_kinstr(dt0),
            verdict: "rarer than cache misses but still frequent vs errors",
        },
    ];

    println!("# §3.3 — candidate symptom evaluation over {} failures", failures.len());
    println!("{:<24}{:>12}{:>16}{:>16}", "symptom", "coverage", "median latency", "fp / kinstr");
    for mut m in metrics {
        let med = median(&mut m.latencies).map(|v| v.to_string()).unwrap_or_else(|| "-".into());
        println!(
            "{:<24}{:>11.1}%{:>16}{:>16.3}   {}",
            m.name,
            100.0 * m.covered as f64 / failures.len().max(1) as f64,
            med,
            m.fp_per_kinstr,
            m.verdict
        );
    }
    println!(
        "\n(fault-free rates measured over {} instructions across all 7 workloads)",
        instructions
    );
}
