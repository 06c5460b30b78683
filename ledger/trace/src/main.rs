//! Traced replica of the ledger workloads.
//!
//! Given the exact command line the ledger runs untraced (`figs_all …`
//! or `fig4 …`), this runs the same figure flow in-process: the same
//! public calls, in the same order, with the same flags, so its stdout
//! is byte-identical to the shipped binary's. Every call into a crate
//! sits inside a span. After the flow it probes each layer the flow
//! exercised on the workload's own seven programs and geometry; a layer
//! the flow bypassed is not probed, so it reads as 0.
//!
//! Spans, probe samples and counters stay in memory and are written to
//! `--out` as JSON at exit. `ledger/run.py` turns them into the
//! per-layer metrics.
//!
//! Usage: `ledger-trace --out FILE --scratch DIR -- figs_all|fig4 [FLAGS]`

use restore_arch::Cpu;
use restore_bench::{
    arch_table, cli, coverage_summary, uarch_table, FIG2_LATENCIES, FIG46_INTERVALS,
};
use restore_core::fit::{figure8_sizes, FitScaling, MTBF_GOAL_FIT};
use restore_core::{DetectorConfig, DetectorSet, Observation, RetiredCompare};
use restore_inject::{
    run_arch_campaign_io, run_uarch_campaign_io, ArchCampaignConfig, ArchTrial, CampaignStats,
    CfvMode, InjectionTarget, PruneMode, Shard, TrialCache, UarchCampaignConfig, UarchTrial,
};
use restore_maskmap::{map_path, uarch_map, uarch_map_digest, UarchMaskMap};
use restore_perf::{profile_all, PerfModel, Policy, FIGURE7_INTERVALS};
use restore_snapshot::GoldenCheckpointLibrary;
use restore_store::{Json, Payload, TrialStore};
use restore_uarch::{Pipeline, Stop, UarchConfig};
use restore_workloads::{Scale, WorkloadId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "ledger-trace --out FILE --scratch DIR -- figs_all|fig4 [FLAGS]";

/// Appends one line to the figure text (`println!` into a `String`).
macro_rules! emit {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// One closed span: seconds since the trace started, and the index of
/// the span that was open when it began.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// The in-memory trace: spans, per-call probe samples and counters.
struct Trace {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
            values: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        r
    }

    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}[\"{}\",{},{},{parent}]", sp.name, sp.start, sp.end);
        }
        s.push_str("],\"samples\":{");
        for (i, (name, xs)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let list: Vec<String> = xs.iter().map(f64::to_string).collect();
            let _ = write!(s, "{sep}\"{name}\":[{}]", list.join(","));
        }
        s.push_str("},\"values\":{");
        for (i, (name, v)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{name}\":{v}");
        }
        s.push_str("}}\n");
        s
    }
}

/// Seconds one call of `f` takes.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, t.elapsed().as_secs_f64())
}

/// Folds one campaign's own accounting into the trace counters.
fn record_stats(tr: &mut Trace, s: &CampaignStats, uarch: bool) {
    tr.add("inject.produce_s", s.produce_secs);
    tr.add("inject.sweep_s", s.sweep_secs);
    tr.add("inject.golden_s", s.golden_secs);
    tr.add("inject.trial_s", s.trial_secs);
    tr.add("inject.busy_s", s.sweep_secs + s.golden_secs + s.trial_secs);
    tr.add("inject.capacity_s", s.threads as f64 * s.wall_secs);
    tr.add("snapshot.hits", s.checkpoint_hits as f64);
    tr.add("snapshot.misses", s.checkpoint_misses as f64);
    if uarch {
        tr.add("uarch.cycles_simulated", s.cycles_simulated as f64);
        tr.add("uarch.cycles_saved", s.cycles_saved as f64);
        tr.add("uarch.trials", s.trials as f64);
        tr.add("maskmap.interval_pruned", s.trials_interval_pruned as f64);
        tr.add("maskmap.shadow_runs", s.shadow_runs as f64);
    }
}

/// What the flow exercised, deciding which layers get probed.
#[derive(Default)]
struct Exercised {
    arch: Option<ArchCampaignConfig>,
    uarch: Option<UarchCampaignConfig>,
    checkpoints: bool,
    interval: Option<UarchCampaignConfig>,
}

impl Exercised {
    fn note(&mut self, s: &CampaignStats) {
        self.checkpoints |= s.checkpoint_hits + s.checkpoint_misses > 0;
    }
}

fn arch_campaign(
    tr: &mut Trace,
    cfg: &ArchCampaignConfig,
    args: &[String],
    ex: &mut Exercised,
) -> Vec<ArchTrial> {
    let store = tr.span("store.open", |_| cli::open_arch_store(cfg, args).expect("store opens"));
    let (trials, stats) =
        tr.span("inject.arch_campaign", |_| run_arch_campaign_io(cfg, store.as_ref(), Shard::ALL));
    record_stats(tr, &stats, false);
    ex.note(&stats);
    if stats.cycles_simulated > 0 {
        ex.arch = Some(cfg.clone());
    }
    trials
}

fn open_uarch_store(
    tr: &mut Trace,
    cfg: &UarchCampaignConfig,
    args: &[String],
) -> Option<TrialCache<UarchTrial>> {
    tr.span("store.open", |_| cli::open_uarch_store(cfg, args).expect("store opens"))
}

fn uarch_campaign(
    tr: &mut Trace,
    cfg: &UarchCampaignConfig,
    store: Option<&TrialCache<UarchTrial>>,
    ex: &mut Exercised,
) -> Vec<UarchTrial> {
    let (trials, stats) =
        tr.span("inject.uarch_campaign", |_| run_uarch_campaign_io(cfg, store, Shard::ALL));
    record_stats(tr, &stats, true);
    ex.note(&stats);
    if stats.cycles_simulated > 0 {
        ex.uarch = Some(cfg.clone());
    }
    trials
}

/// The `figs_all` flow, printing exactly what the binary prints.
fn figs_all(tr: &mut Trace, args: &[String], out: &mut String, ex: &mut Exercised) {
    cli::reject_unknown(args, &cli::uarch_flags_plus(&["--arch-trials"])).expect("known flags");
    let mut acfg = ArchCampaignConfig::default();
    cli::apply_arch_flags(&mut acfg, args, "--arch-trials").expect("arch flags parse");
    let arch_trials = arch_campaign(tr, &acfg, args, ex);
    tr.span("bench.render", |_| {
        emit!(out, "==== Figure 2 — virtual machine fault injection ({} trials) ====", {
            arch_trials.len()
        });
        emit!(out, "{}", arch_table(&arch_trials, &FIG2_LATENCIES));
    });

    let low32 = ArchCampaignConfig { low32: true, ..acfg.clone() };
    let low32_trials = arch_campaign(tr, &low32, args, ex);
    tr.span("bench.render", |_| {
        emit!(out, "==== Figure 2 variant — low-32-bit flips (§3.1) ====");
        emit!(out, "{}", arch_table(&low32_trials, &FIG2_LATENCIES));
    });

    let mut ucfg = UarchCampaignConfig::default();
    cli::apply_uarch_flags(&mut ucfg, args).expect("uarch flags parse");
    let store = open_uarch_store(tr, &ucfg, args);
    let trials = uarch_campaign(tr, &ucfg, store.as_ref(), ex);
    tr.span("bench.render", |_| {
        emit!(
            out,
            "==== Figure 4 — µarch injection, all state, perfect cfv ({} trials) ====",
            trials.len()
        );
        emit!(out, "{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::Perfect, false));
    });

    let latch_cfg = UarchCampaignConfig { target: InjectionTarget::LatchesOnly, ..ucfg.clone() };
    let store = open_uarch_store(tr, &latch_cfg, args);
    let latch_trials = uarch_campaign(tr, &latch_cfg, store.as_ref(), ex);
    let (base100, jrs100, hard100) = tr.span("bench.render", |_| {
        emit!(out, "==== §5.1.2 — latches only, perfect cfv ({} trials) ====", latch_trials.len());
        emit!(out, "{}", uarch_table(&latch_trials, &FIG46_INTERVALS, CfvMode::Perfect, false));
        let l = coverage_summary(&latch_trials, 100, CfvMode::Perfect, false);
        emit!(
            out,
            "latch-only coverage of failures @100: {:.1}%  (paper: ~75%)\n",
            100.0 * l.coverage_of_failures
        );

        emit!(out, "==== Figure 5 — ReStore (JRS-confidence cfv) ====");
        emit!(out, "{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::HighConfidence, false));

        emit!(out, "==== Figure 6 — hardened pipeline + ReStore ====");
        emit!(out, "{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::HighConfidence, true));

        let base100 = coverage_summary(&trials, 100, CfvMode::Perfect, false);
        let jrs100 = coverage_summary(&trials, 100, CfvMode::HighConfidence, false);
        let hard100 = coverage_summary(&trials, 100, CfvMode::HighConfidence, true);
        emit!(out, "headline @100-instruction interval:");
        emit!(
            out,
            "  failure fraction          {:.2}% ±{:.2}%  (paper ~7-8%)",
            100.0 * base100.failure_fraction,
            100.0 * base100.ci95
        );
        emit!(
            out,
            "  perfect-cfv coverage      {:.1}%  (paper ~50%)",
            100.0 * base100.coverage_of_failures
        );
        emit!(
            out,
            "  ReStore residual          {:.2}%  (paper ~3.5%)",
            100.0 * jrs100.residual_failure_fraction
        );
        emit!(
            out,
            "  lhf failure fraction      {:.2}%  (paper ~3%)",
            100.0 * hard100.failure_fraction
        );
        emit!(
            out,
            "  lhf+ReStore residual      {:.2}%  (paper ~1%)",
            100.0 * hard100.residual_failure_fraction
        );
        emit!(
            out,
            "  MTBF improvement          {:.1}x  (paper ~7x)\n",
            base100.failure_fraction / hard100.residual_failure_fraction.max(1e-9)
        );
        (base100, jrs100, hard100)
    });

    let profiles =
        tr.span("perf.profile", |_| profile_all(ucfg.scale, &UarchConfig::default(), 150_000));
    tr.span("bench.render", |_| {
        let model = PerfModel::default();
        emit!(out, "==== Figure 7 — performance impact of false positives ====");
        emit!(out, "{:<10}{:>10}{:>10}", "interval", "imm", "delayed");
        for &i in &FIGURE7_INTERVALS {
            emit!(
                out,
                "{i:<10}{:>10.3}{:>10.3}",
                model.mean_speedup(&profiles, i, Policy::Immediate),
                model.mean_speedup(&profiles, i, Policy::Delayed)
            );
        }
        emit!(out);

        let scaling = FitScaling::new(
            base100.failure_fraction.max(1e-4),
            jrs100.residual_failure_fraction.max(1e-4),
            hard100.failure_fraction.max(1e-4),
            hard100.residual_failure_fraction.max(1e-4),
        );
        emit!(
            out,
            "==== Figure 8 — FIT vs design size (measured fractions; goal {MTBF_GOAL_FIT:.0} FIT) ===="
        );
        emit!(out, "{:<12}{:>12}{:>12}{:>12}{:>14}", "bits", "baseline", "ReStore", "lhf", "lhf+ReStore");
        for (bits, base, restore, lhf, both) in scaling.series(&figure8_sizes()) {
            emit!(out, "{:<12.0}{:>12.1}{:>12.1}{:>12.1}{:>14.1}", bits, base, restore, lhf, both);
        }
        emit!(out, "MTBF improvement: {:.1}x  (paper ~7x)", scaling.mtbf_improvement());
    });
}

/// Cycle horizon the campaign's masking maps cover (mirrors the
/// campaign's own `warmup + 5·window + drain`).
fn maskmap_horizon(cfg: &UarchCampaignConfig) -> u64 {
    cfg.warmup_cycles + 5 * cfg.window_cycles + cfg.drain_cycles
}

/// The `fig4` flow (all-state target), printing exactly what the binary
/// prints. Interval maps are built in a `setup` span between opening the
/// store (which creates the directory they persist into) and the
/// campaign, which then finds them in the process-wide registry.
fn fig4(tr: &mut Trace, args: &[String], out: &mut String, ex: &mut Exercised) {
    cli::reject_unknown(args, &cli::UARCH_FLAGS).expect("known flags");
    let mut cfg = UarchCampaignConfig::default();
    cli::apply_uarch_flags(&mut cfg, args).expect("uarch flags parse");
    let store = open_uarch_store(tr, &cfg, args);
    if matches!(cfg.prune, PruneMode::Interval | PruneMode::Audit) {
        tr.span("setup", |tr| {
            tr.span("maskmap.uarch_build", |_| {
                for id in WorkloadId::ALL {
                    let horizon = maskmap_horizon(&cfg);
                    uarch_map(id, cfg.scale, &cfg.uarch, horizon, cfg.map_dir.as_deref());
                }
            });
        });
        ex.interval = Some(cfg.clone());
    }
    let trials = uarch_campaign(tr, &cfg, store.as_ref(), ex);
    tr.span("bench.render", |_| {
        emit!(
            out,
            "# Figure 4 — µarch injection into all state (perfect exception+cfv identification)"
        );
        emit!(out, "# columns: checkpoint interval (instructions); cells: % of all trials");
        emit!(out, "{}", uarch_table(&trials, &FIG46_INTERVALS, CfvMode::Perfect, false));
        let s = coverage_summary(&trials, 100, CfvMode::Perfect, false);
        emit!(
            out,
            "failure fraction:            {:.1}% ±{:.1}%  (paper: ~8%)",
            100.0 * s.failure_fraction,
            100.0 * s.ci95
        );
        emit!(
            out,
            "coverage of failures @100:   {:.1}%  (paper: ~50% all-state / ~75% latches)",
            100.0 * s.coverage_of_failures
        );
        emit!(out, "residual failure fraction:   {:.1}%", 100.0 * s.residual_failure_fraction);
    });
}

/// Deterministic draws for the map probe (xorshift64*).
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Builds the seven programs at `scale`, five times over.
fn probe_builds(tr: &mut Trace, scale: Scale) {
    for _ in 0..5 {
        let (_, secs) = timed(|| WorkloadId::ALL.map(|id| id.build(scale)));
        tr.sample("workloads.build_ms", secs * 1e3);
    }
}

/// Walks each program's pipeline over the campaign's sampling span:
/// per-cycle cost in 500-cycle batches, and at every checkpoint stride
/// one clone, fingerprint, state walk, checkpoint capture and
/// materialisation.
fn probe_uarch(tr: &mut Trace, cfg: &UarchCampaignConfig, checkpoints: bool) {
    const BATCH: u64 = 500;
    let end = cfg.warmup_cycles + 4 * cfg.window_cycles;
    let stride = if cfg.ckpt_stride > 0 { cfg.ckpt_stride } else { 2_000 };
    for id in WorkloadId::ALL {
        let program = id.build(cfg.scale);
        let mut pipe = Pipeline::new(cfg.uarch.clone(), &program);
        while pipe.cycles() < end && pipe.status() == Stop::Running {
            if pipe.cycles().is_multiple_of(stride) {
                let (copy, s) = timed(|| pipe.clone());
                tr.sample("uarch.clone_us", s * 1e6);
                drop(copy);
                let (_, s) = timed(|| pipe.fingerprint());
                tr.sample("uarch.fingerprint_us", s * 1e6);
                let (_, s) = timed(|| pipe.state_hash());
                tr.sample("uarch.walk_us", s * 1e6);
                if checkpoints {
                    let origin = pipe.clone();
                    let (mut lib, s) = timed(|| GoldenCheckpointLibrary::new(origin, stride));
                    tr.sample("snapshot.capture_ms", s * 1e3);
                    let coord = lib.origin_coord();
                    let (m, s) = timed(|| lib.materialize(coord));
                    tr.sample("snapshot.materialize_us", s * 1e6);
                    drop(m);
                }
            }
            let start = pipe.cycles();
            let t = Instant::now();
            while pipe.cycles() < start + BATCH && pipe.status() == Stop::Running {
                black_box(pipe.cycle());
            }
            let n = pipe.cycles() - start;
            if n > 0 {
                tr.sample("uarch.cycle_ns", t.elapsed().as_secs_f64() * 1e9 / n as f64);
            }
        }
    }
}

/// Steps each program's architectural golden run (up to `MAX`
/// instructions): per-step cost in 1000-step batches, and a fingerprint
/// at every checkpoint stride.
fn probe_arch(tr: &mut Trace, cfg: &ArchCampaignConfig) {
    const BATCH: u64 = 1_000;
    const MAX: u64 = 300_000;
    let stride = if cfg.ckpt_stride > 0 { cfg.ckpt_stride } else { 5_000 };
    for id in WorkloadId::ALL {
        let program = id.build(cfg.scale);
        let mut cpu = Cpu::new(&program);
        while !cpu.is_halted() && cpu.retired() < MAX {
            if cpu.retired().is_multiple_of(stride) {
                let (_, s) = timed(|| cpu.fingerprint());
                tr.sample("arch.fingerprint_us", s * 1e6);
            }
            let start = cpu.retired();
            let t = Instant::now();
            while cpu.retired() < start + BATCH && !cpu.is_halted() {
                black_box(cpu.step().expect("golden runs never fault"));
            }
            let n = cpu.retired() - start;
            tr.sample("arch.step_ns", t.elapsed().as_secs_f64() * 1e9 / n as f64);
        }
    }
}

/// Feeds each program's golden retirement stream, as aligned compares,
/// to a µarch trial's detector set: per-observation cost in batches.
fn probe_detectors(tr: &mut Trace, scale: Scale) {
    const BATCH: usize = 1_000;
    const MAX: u64 = 200_000;
    for id in WorkloadId::ALL {
        let program = id.build(scale);
        let mut cpu = Cpu::new(&program);
        let mut set = DetectorSet::uarch_trial(&DetectorConfig::paper(), &UarchConfig::default());
        let mut batch = Vec::with_capacity(BATCH);
        while !cpu.is_halted() && cpu.retired() < MAX {
            batch.clear();
            while batch.len() < BATCH && !cpu.is_halted() {
                let r = cpu.step().expect("golden runs never fault");
                let reg = r.reg_write.map(|(reg, _)| reg.index() as u8);
                batch.push(Observation::Retired(RetiredCompare {
                    latency: cpu.retired(),
                    pc_mismatch: false,
                    value_mismatch: false,
                    reg_write_mismatch: false,
                    trial_reg: reg,
                    golden_reg: reg,
                }));
            }
            let t = Instant::now();
            for o in &batch {
                set.observe(black_box(o));
            }
            tr.sample("detector.observe_ns", t.elapsed().as_secs_f64() * 1e9 / batch.len() as f64);
        }
    }
}

/// Queries each workload's interval map with uniform (bit, cycle) draws
/// over the campaign's sampling span, then reloads each persisted map
/// from the store directory and checks it equals the built one.
fn probe_maskmap(tr: &mut Trace, cfg: &UarchCampaignConfig, seed: u64) {
    const DRAWS: usize = 5_000;
    const BATCH: usize = 500;
    let horizon = maskmap_horizon(cfg);
    let digest = uarch_map_digest(cfg.scale, &cfg.uarch, horizon);
    let mut rng = Draws(seed | 1);
    for id in WorkloadId::ALL {
        let map = uarch_map(id, cfg.scale, &cfg.uarch, horizon, cfg.map_dir.as_deref());
        let program = id.build(cfg.scale);
        let total = Pipeline::new(cfg.uarch.clone(), &program).catalog().total_bits;
        let draws: Vec<(u64, u64)> = (0..DRAWS)
            .map(|_| (rng.next() % total, cfg.warmup_cycles + rng.next() % (4 * cfg.window_cycles)))
            .collect();
        for chunk in draws.chunks(BATCH) {
            let t = Instant::now();
            for &(bit, cycle) in chunk {
                black_box(map.proves(bit, cycle, cycle + cfg.window_cycles));
            }
            tr.sample("maskmap.proves_ns", t.elapsed().as_secs_f64() * 1e9 / chunk.len() as f64);
        }
        let Some(dir) = cfg.map_dir.as_deref() else { continue };
        let path = map_path(dir, "uarch", id, digest);
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        tr.add("maskmap.file_bytes", bytes as f64);
        let (loaded, secs) = timed(|| {
            let text = std::fs::read_to_string(&path).expect("persisted map is readable");
            let v = Json::parse(&text).expect("persisted map parses");
            UarchMaskMap::from_json(&v, &cfg.uarch, &program, digest)
        });
        tr.add("maskmap.load_s", secs);
        assert!(loaded.as_ref() == Some(&*map), "persisted map for {id:?} does not reload equal");
    }
}

/// Opens the run's store for one payload kind; times a lookup of every
/// record and, when `append_into` is given, an append of each into a
/// scratch store.
fn probe_store_kind<T: Payload>(tr: &mut Trace, dir: &Path, append_into: Option<&Path>) {
    const BATCH: usize = 200;
    const MAX_APPENDS: usize = 2_000;
    let store = TrialStore::<T>::open(dir, "ledger-probe").expect("store reopens");
    tr.add("store.records", store.len() as f64);
    let keys: Vec<_> = store.records().iter().map(|r| r.key).collect();
    for chunk in keys.chunks(BATCH) {
        let t = Instant::now();
        for k in chunk {
            black_box(store.get(k));
        }
        tr.sample("store.get_ns", t.elapsed().as_secs_f64() * 1e9 / chunk.len() as f64);
    }
    if let Some(scratch) = append_into {
        let mut fresh =
            TrialStore::<T>::open(scratch, "ledger-probe").expect("scratch store opens");
        for rec in store.records().iter().take(MAX_APPENDS) {
            let rec = rec.clone();
            let (ok, s) = timed(|| fresh.append(rec));
            ok.expect("scratch append");
            tr.sample("store.append_us", s * 1e6);
        }
    }
}

fn probe_store(tr: &mut Trace, dir: &Path, append_into: Option<&Path>) {
    probe_store_kind::<ArchTrial>(tr, dir, append_into);
    probe_store_kind::<UarchTrial>(tr, dir, append_into);
    let seg_bytes: u64 = std::fs::read_dir(dir)
        .expect("store directory lists")
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("seg-") && name.ends_with(".jsonl")
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    tr.add("store.segment_bytes", seg_bytes as f64);
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let split = argv.iter().position(|a| a == "--").unwrap_or_else(|| usage());
    let (own, bin) = (&argv[..split], &argv[split + 1..]);
    let flag = |name: &str| -> PathBuf {
        cli::value(own, name).ok().flatten().map(PathBuf::from).unwrap_or_else(|| usage())
    };
    let (out_path, scratch) = (flag("--out"), flag("--scratch"));
    let seed = cli::parsed_u64(bin, "--seed").ok().flatten().unwrap_or_else(|| usage());
    let store = cli::store_path(bin).ok().flatten();

    let mut tr = Trace::new();
    let mut out = String::new();
    let mut ex = Exercised::default();
    tr.add("flow.start", tr.now());
    match bin.first().map(String::as_str) {
        Some("figs_all") => figs_all(&mut tr, bin, &mut out, &mut ex),
        Some("fig4") => fig4(&mut tr, bin, &mut out, &mut ex),
        _ => usage(),
    }
    tr.span("emit", |_| {
        let mut stdout = std::io::stdout().lock();
        stdout.write_all(out.as_bytes()).expect("stdout is writable");
        stdout.flush().expect("stdout flushes");
    });
    tr.add("flow.end", tr.now());

    tr.span("probes", |tr| {
        let scale = ex
            .uarch
            .as_ref()
            .map(|c| c.scale)
            .or(ex.arch.as_ref().map(|c| c.scale))
            .unwrap_or_else(|| UarchCampaignConfig::default().scale);
        probe_builds(tr, scale);
        if let Some(cfg) = &ex.uarch {
            probe_uarch(tr, cfg, ex.checkpoints);
        }
        if let Some(cfg) = &ex.arch {
            probe_arch(tr, cfg);
        }
        if ex.uarch.is_some() || ex.arch.is_some() {
            probe_detectors(tr, scale);
        }
        if let Some(cfg) = &ex.interval {
            probe_maskmap(tr, cfg, seed);
        }
        if let Some(dir) = &store {
            let simulated = ex.uarch.is_some() || ex.arch.is_some();
            let append_dir = scratch.join("append");
            probe_store(tr, dir, simulated.then_some(append_dir.as_path()));
        }
    });
    std::fs::write(&out_path, tr.to_json()).expect("trace file is writable");
}

fn usage() -> ! {
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}
