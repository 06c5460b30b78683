//! Microarchitectural fault injection — the Figures 4/5/6 studies (§5.1,
//! §5.2).
//!
//! This module is the campaign *driver*: configuration, the per-workload
//! injection plan, and the [`FaultModel`] instance that binds the trial
//! monitor ([`crate::uarch_trial`]) to the shared campaign core
//! ([`crate::campaign`]). The core supplies planning order, per-unit
//! seeding, the parallel engine and stats accounting; per-unit seeds
//! from [`crate::seeding`] make the trial vector bit-identical at any
//! thread count.
//!
//! Two throughput optimisations ride on the monitor, both result-neutral:
//!
//! * the **reconvergence cutoff** stops a trial at the first
//!   [`crate::campaign::CUTOFF_STRIDE`] boundary where its full-machine
//!   fingerprint ([`Pipeline::fingerprint`]) matches the golden run's —
//!   the simulator is deterministic, so equal complete state at equal
//!   cycle means identical futures, and the remaining observables are
//!   back-filled from the golden record;
//! * **interval pruning** ([`UarchCampaignConfig::prune`]) classifies
//!   flips the per-workload masking-interval map
//!   ([`restore_maskmap::UarchMaskMap`]) proves masked or residue without
//!   simulating their window at all.
//!
//! Together they are the fast path. `PruneMode::Audit` runs every trial
//! down the fast path *and* as the reference — the exhaustive trial with
//! no cutoff and no map — and asserts both return the same record.

use crate::cache::TrialCache;
use crate::campaign::{self, CampaignIo, FaultModel, TrialCost};
use crate::engine::CampaignStats;
use crate::seeding::{self, DOMAIN_UARCH};
use crate::uarch_trial::{
    draw_bit, golden_run, predict_dead_trial, run_trial, GoldenRun, UarchTrial,
};
use rand::rngs::StdRng;
use rand::Rng;
use restore_core::{config_digest, ConfigDigest, DetectorConfig};
use restore_maskmap::{MapSource, UarchMaskMap};
use restore_snapshot::SnapshotMachine;
use restore_store::Shard;
use restore_uarch::{Pipeline, StateCatalog, UarchConfig};
use restore_workloads::{Scale, WorkloadId};
use std::sync::Arc;

/// Which bits are eligible for injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionTarget {
    /// All latch and RAM state (Figure 4).
    AllState,
    /// Pipeline latches only (§5.1.2).
    LatchesOnly,
}

// The cfv detection model lives with the detectors in `restore-core`;
// re-exported here for the historical path.
pub use restore_core::CfvMode;

/// Injection pruning mode of a µarch campaign
/// ([`UarchCampaignConfig::prune`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// Every trial simulates its observation window, up to the
    /// reconvergence cutoff.
    #[default]
    Off,
    /// The static masking-interval map ([`restore_maskmap::UarchMaskMap`])
    /// is consulted first: an injection the map proves masked (or
    /// residue) is classified with zero simulated window cycles, and
    /// every other draw is simulated. Results are bit-identical to `Off`.
    Interval,
    /// `Interval`, checked: every trial also runs as the exhaustive
    /// reference (no cutoff, no map), which must return the same record
    /// and simulate exactly the window the fast path planned. The
    /// reference runs are not counted, so the trials and every
    /// non-timing counter equal `Interval`'s — the cutoff's and the
    /// map's equivalence check at any geometry, at full cost.
    Audit,
}

/// Configuration of a microarchitectural campaign.
#[derive(Debug, Clone)]
pub struct UarchCampaignConfig {
    /// Workload scale.
    pub scale: Scale,
    /// Pipeline configuration.
    pub uarch: UarchConfig,
    /// Injection points (cycles) per workload (paper: ~250–300 total
    /// across the suite).
    pub points_per_workload: usize,
    /// Trials (random bits) per injection point (paper: ~48).
    pub trials_per_point: usize,
    /// Cycles of warm-up before the earliest injection point.
    pub warmup_cycles: u64,
    /// Observation window after injection (paper: 10,000 cycles).
    pub window_cycles: u64,
    /// Extra cycles allowed for the end-of-trial pipeline drain.
    pub drain_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Eligible state.
    pub target: InjectionTarget,
    /// Worker threads; 0 means the machine's available parallelism.
    /// Results are bit-identical at every thread count.
    pub threads: usize,
    /// Interval pruning: skip simulating trials whose flip the
    /// masking-interval map proves masked or residue. Results are
    /// bit-identical to [`PruneMode::Off`]; [`PruneMode::Audit`]
    /// verifies that claim, and the cutoff's, trial-by-trial at full
    /// simulation cost.
    pub prune: PruneMode,
    /// Where to persist (and load) the per-workload masking-interval
    /// maps used by [`PruneMode::Interval`] — the campaign runners pass
    /// their `--store` directory so sharded runs compute each map once
    /// per shard *set*. `None` keeps maps in the process-wide registry
    /// only. Result-neutral (maps are deterministic functions of the
    /// configuration).
    pub map_dir: Option<std::path::PathBuf>,
    /// Cycles between golden checkpoint captures
    /// ([`restore_snapshot::GoldenCheckpointLibrary`]), which must be
    /// positive. A cold campaign walks the library's frontier through
    /// its sorted points once; a repeat campaign in the same process
    /// materializes each point from the nearest checkpoint at-or-before
    /// it. Results are bit-identical at every stride — only producer
    /// cost changes.
    pub ckpt_stride: u64,
    /// Observation-time software-detector configuration (signature block
    /// size, duplication mask). Result-shaping: the knobs set the
    /// latencies the software detectors record, so they fold into
    /// [`uarch_campaign_digest`]. The golden run and the checkpoint
    /// library are detector-blind, so sweeps across these knobs start
    /// warm.
    pub detectors: DetectorConfig,
}

impl Default for UarchCampaignConfig {
    fn default() -> Self {
        UarchCampaignConfig {
            scale: Scale::campaign(),
            uarch: UarchConfig::default(),
            points_per_workload: 6,
            trials_per_point: 10,
            warmup_cycles: 2_000,
            window_cycles: 10_000,
            drain_cycles: 3_000,
            seed: 0xF4F5,
            target: InjectionTarget::AllState,
            threads: 0,
            prune: PruneMode::Off,
            map_dir: None,
            // A campaign-scale pipeline is ~100KB, so 2 000-cycle
            // checkpoints over the ~20k-cycle sampling span cost a few
            // MB per (workload, config) while bounding each warm unit's
            // residual sweep to one stride.
            ckpt_stride: 2_000,
            detectors: DetectorConfig::paper(),
        }
    }
}

/// Pre-selects one workload's injection cycles (paper §4.4): distinct
/// uniform draws over the sampling span, sorted so one walker sweeps
/// forward. Distinctness matters — a duplicate draw would silently
/// double-weight one machine state in every downstream fraction, so
/// collisions are rejection-sampled away (re-drawing only on collision
/// keeps the collision-free plan identical to the historical one). The
/// plan is seeded per workload, so it never depends on other workloads
/// or on execution order.
fn plan_points(cfg: &UarchCampaignConfig, seed: u64) -> Vec<u64> {
    let mut rng = seeding::rng(seed);
    let span = (cfg.window_cycles * 4).max(1);
    // More points than span would make distinctness unsatisfiable.
    let want = cfg.points_per_workload.min(span as usize);
    let mut points: Vec<u64> = Vec::with_capacity(want);
    while points.len() < want {
        let p = cfg.warmup_cycles + rng.gen_range(0..span);
        if !points.contains(&p) {
            points.push(p);
        }
    }
    points.sort_unstable();
    points
}

/// Cycle horizon the campaign's masking-interval maps cover
/// ([`restore_maskmap::map_horizon`] of its warm-up, window and drain).
pub fn maskmap_horizon(cfg: &UarchCampaignConfig) -> u64 {
    restore_maskmap::map_horizon(cfg.warmup_cycles, cfg.window_cycles, cfg.drain_cycles)
}

/// The microarchitectural campaign as a [`FaultModel`] instance.
struct UarchModel<'a> {
    cfg: &'a UarchCampaignConfig,
}

/// One workload's walker: the swept pipeline plus its state catalog
/// (shared by every fork, since the catalog is a function of the
/// pipeline configuration alone).
#[derive(Clone)]
struct UarchMachine {
    pipe: Pipeline,
    catalog: Arc<StateCatalog>,
}

/// Delegates to the pipeline: the catalog is a function of the
/// configuration alone, so it contributes no state beyond the `Arc`.
impl SnapshotMachine for UarchMachine {
    fn coord(&self) -> u64 {
        self.pipe.coord()
    }

    fn step_to(&mut self, coord: u64) -> bool {
        self.pipe.step_to(coord)
    }

    fn fingerprint(&mut self) -> u64 {
        self.pipe.fingerprint()
    }
}

/// Per-point golden observation plus (in interval mode) the workload's
/// shared masking-interval map.
struct UarchGolden {
    run: GoldenRun,
    /// The workload's masking-interval map ([`PruneMode::Interval`] and
    /// [`PruneMode::Audit`]). Deliberately *not* carried by
    /// [`UarchMachine`]: machines are cached in the process-wide
    /// checkpoint library under a config digest that excludes the prune
    /// mode, so a map there would leak across prune settings.
    map: Option<Arc<UarchMaskMap>>,
}

impl FaultModel for UarchModel<'_> {
    type Machine = UarchMachine;
    type Golden = UarchGolden;
    type Trial = UarchTrial;

    fn domain(&self) -> u64 {
        DOMAIN_UARCH
    }
    fn seed(&self) -> u64 {
        self.cfg.seed
    }
    fn threads(&self) -> usize {
        self.cfg.threads
    }
    fn trials_per_point(&self) -> usize {
        self.cfg.trials_per_point
    }
    fn ckpt_stride(&self) -> u64 {
        self.cfg.ckpt_stride
    }
    fn config_digest(&self) -> u64 {
        // Only what shapes the golden run: the program (scale) and the
        // machine (uarch config). Seeds, point counts, windows and
        // thread counts never touch it.
        config_digest(&format!("{:?}|{:?}", self.cfg.scale, self.cfg.uarch))
    }
    fn campaign_digest(&self) -> u64 {
        let UarchModel { cfg } = self;
        uarch_campaign_digest(cfg)
    }

    fn spawn(&self, id: WorkloadId) -> UarchMachine {
        let program = id.build(self.cfg.scale);
        let mut pipe = Pipeline::new(self.cfg.uarch.clone(), &program);
        let catalog = Arc::new(pipe.catalog());
        UarchMachine { pipe, catalog }
    }

    fn plan(&self, _id: WorkloadId, point_seed: u64) -> Vec<u64> {
        plan_points(self.cfg, point_seed)
    }

    fn prepare(&self, live: &[WorkloadId], threads: usize) -> Vec<MapSource> {
        if self.cfg.prune == PruneMode::Off {
            return Vec::new();
        }
        let (cfg, horizon) = (self.cfg, maskmap_horizon(self.cfg));
        restore_maskmap::resolve_maps(live, threads, |id| {
            let dir = cfg.map_dir.as_deref();
            restore_maskmap::uarch_map_sourced(id, cfg.scale, &cfg.uarch, horizon, dir).1
        })
    }

    fn golden(&self, fork: &UarchMachine, id: WorkloadId) -> UarchGolden {
        // `prepare` resolved the map before any unit ran, so fetching
        // it per point is a registry hit and an `Arc` clone.
        let map = match self.cfg.prune {
            PruneMode::Off => None,
            PruneMode::Interval | PruneMode::Audit => Some(restore_maskmap::uarch_map(
                id,
                self.cfg.scale,
                &self.cfg.uarch,
                maskmap_horizon(self.cfg),
                self.cfg.map_dir.as_deref(),
            )),
        };
        UarchGolden { run: golden_run(&fork.pipe, self.cfg), map }
    }

    fn run_trial(
        &self,
        fork: &UarchMachine,
        golden: &UarchGolden,
        id: WorkloadId,
        mut rng: StdRng,
    ) -> (Option<UarchTrial>, TrialCost) {
        let UarchGolden { run, map } = golden;
        let bit = draw_bit(&mut rng, &fork.catalog, self.cfg.target);
        let cycle = fork.pipe.cycles();
        let (trial, cost) =
            match map.as_ref().and_then(|m| m.proves(bit, cycle, cycle + run.window_executed)) {
                // The map proves either that the bit is overwritten from a
                // value independent of the flip before the window closes
                // (`written`), or that the flip survives untouched and
                // unread through the end-of-trial hash (residue). A proved
                // trial's live evolution is the golden run's, so the
                // exhaustive trial would have simulated (or been cut across)
                // exactly the golden run's window cycles.
                Some(p) => (
                    predict_dead_trial(run, &fork.catalog, id, bit, fork.pipe.retired(), p.written),
                    TrialCost {
                        pruned: true,
                        pruned_cycles: run.window_executed,
                        ..TrialCost::default()
                    },
                ),
                None => run_trial(&fork.pipe, run, &fork.catalog, id, bit, self.cfg, true),
            };
        if self.cfg.prune == PruneMode::Audit {
            let (reference, ref_cost) =
                run_trial(&fork.pipe, run, &fork.catalog, id, bit, self.cfg, false);
            assert_eq!(
                trial, reference,
                "fast path disagrees with the reference trial (workload {id:?}, bit {bit}, \
                 cycle {cycle}, pruned {}, cut {})",
                cost.pruned, cost.cut
            );
            assert_eq!(
                ref_cost.simulated,
                cost.planned(),
                "fast path planned a different window than the reference simulated \
                 (workload {id:?}, bit {bit}, cycle {cycle})"
            );
        }
        (Some(trial), cost)
    }
}

/// Digest of everything that shapes a µarch *trial record* given its
/// key: the program (scale), the machine (uarch config — including the
/// JRS geometry and watchdog timeout the hardware detectors run at),
/// the observation window, the drain allowance, the injection target
/// and the software-detector knobs ([`DetectorConfig`] — they set the
/// signature/duplication latencies a record carries). Deliberately
/// excluded — seeds, point/trial counts and warm-up (they live in the
/// [`restore_store::TrialKey`] as coordinates), and thread counts,
/// checkpoint strides and prune settings (result-neutral, proved by the
/// golden vectors and `--prune audit`). Records written under a
/// different digest are inert misses, never corruption.
///
/// The pattern below names every field with no `..`, so a field added
/// to the config (or to [`DetectorConfig`]) does not compile until it
/// is either folded here or bound `_` with the reason it cannot shape
/// a record.
pub fn uarch_campaign_digest(cfg: &UarchCampaignConfig) -> u64 {
    let UarchCampaignConfig {
        scale,
        uarch,
        points_per_workload: _, // sample-count knob: more points, same per-trial records
        trials_per_point: _,    // sample-count knob: more trials, same per-trial records
        warmup_cycles: _, // only bounds where points may land; each record keys on its own cycle
        window_cycles,
        drain_cycles,
        seed: _, // per-trial seeds ride in the store key, not the campaign key
        target,
        threads: _,     // results are bit-identical at every thread count
        prune: _,       // pruning is bit-identical across all modes
        map_dir: _,     // maps are deterministic functions of the config
        ckpt_stride: _, // checkpoint fast-start is bit-identical at every stride
        detectors: DetectorConfig { sig_chunk, dup_mask },
    } = cfg;
    ConfigDigest::new()
        .text("uarch-campaign")
        .debug(scale)
        .debug(uarch)
        .word(*window_cycles)
        .word(*drain_cycles)
        .debug(target)
        .word(*sig_chunk)
        .word(u64::from(*dup_mask))
        .finish()
}

/// Runs the campaign over all seven workloads.
pub fn run_uarch_campaign(cfg: &UarchCampaignConfig) -> Vec<UarchTrial> {
    run_uarch_campaign_with_stats(cfg).0
}

/// [`run_uarch_campaign_with_stats`] against a trial store and a shard
/// of the plan: cached trials replay from `cache` with zero simulated
/// window cycles, fresh trials are recorded into it, and only plan
/// positions owned by `shard` run at all. `cache` must have been opened
/// under [`uarch_campaign_digest`] of this `cfg`.
///
/// With a warm full-coverage cache the trial vector — and every
/// non-timing counter — is bit-identical to a cold
/// [`run_uarch_campaign_with_stats`]; merging the stats of the `N`
/// shards of a campaign reproduces the unsharded run
/// ([`CampaignStats::merge`]).
pub fn run_uarch_campaign_io(
    cfg: &UarchCampaignConfig,
    cache: Option<&TrialCache<UarchTrial>>,
    shard: Shard,
) -> (Vec<UarchTrial>, CampaignStats) {
    campaign::run_all_io(&UarchModel { cfg }, &CampaignIo { cache, shard })
}

/// Runs the campaign and also reports throughput instrumentation.
///
/// Trials come back in plan order `(workload, point, trial)` and are
/// bit-identical for a given `(cfg.seed, cfg)` at every thread count.
pub fn run_uarch_campaign_with_stats(
    cfg: &UarchCampaignConfig,
) -> (Vec<UarchTrial>, CampaignStats) {
    campaign::run_all(&UarchModel { cfg })
}

/// Runs trials for a single workload. The result is exactly the
/// workload's slice of the full campaign with the same seed.
pub fn run_workload(cfg: &UarchCampaignConfig, id: WorkloadId) -> Vec<UarchTrial> {
    campaign::run_single(&UarchModel { cfg }, id).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeding::Seeder;
    use crate::uarch_trial::EndState;

    fn quick() -> UarchCampaignConfig {
        UarchCampaignConfig {
            scale: Scale::campaign(),
            points_per_workload: 2,
            trials_per_point: 6,
            warmup_cycles: 500,
            window_cycles: 2_000,
            drain_cycles: 1_500,
            seed: 3,
            ..UarchCampaignConfig::default()
        }
    }

    // The per-field digest behavior (shaped fields rekey, neutral fields
    // do not) is proven generically by the perturbation battery in
    // `restore-audit` (`crates/audit/src/battery.rs`), which also pins
    // the historical default-config digest values.

    #[test]
    fn injection_plan_is_deterministic_and_duplicate_free() {
        let cfg = quick();
        let seeder = Seeder::new(cfg.seed, DOMAIN_UARCH);
        for wl in 0..WorkloadId::ALL.len() {
            let a = plan_points(&cfg, seeder.points(wl));
            assert_eq!(a, plan_points(&cfg, seeder.points(wl)), "plan not deterministic");
            assert_eq!(a.len(), cfg.points_per_workload);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "workload {wl}: {a:?} not distinct+sorted");
            let span = cfg.window_cycles * 4;
            assert!(a.iter().all(|&p| (cfg.warmup_cycles..cfg.warmup_cycles + span).contains(&p)));
        }
    }

    /// Pins the exact plan vector: collision-free plans must match the
    /// historical sampler draw-for-draw (rejection only replaces
    /// colliding draws), so campaign results stay comparable across
    /// code changes.
    #[test]
    fn injection_plan_is_pinned() {
        let cfg = quick();
        let pts = plan_points(&cfg, Seeder::new(cfg.seed, DOMAIN_UARCH).points(0));
        assert_eq!(pts, vec![6_600, 6_709]);
    }

    /// A span smaller than the request forces collisions; the plan must
    /// cap at the span and still come back duplicate-free.
    #[test]
    fn injection_plan_rejection_samples_collisions() {
        let cfg = UarchCampaignConfig {
            points_per_workload: 8,
            window_cycles: 1, // span = 4
            warmup_cycles: 10,
            ..quick()
        };
        let pts = plan_points(&cfg, 7);
        assert_eq!(pts, vec![10, 11, 12, 13]);
    }

    #[test]
    fn single_workload_matches_campaign_slice() {
        let cfg = quick();
        let full = run_uarch_campaign(&cfg);
        let solo = run_workload(&cfg, WorkloadId::Mcfx);
        let slice: Vec<_> =
            full.iter().filter(|t| t.workload == WorkloadId::Mcfx).cloned().collect();
        assert_eq!(solo, slice);
    }

    #[test]
    fn campaign_runs_and_masks_dominate() {
        let trials = run_uarch_campaign(&quick());
        assert!(trials.len() >= 70, "{} trials", trials.len());
        let failures = trials.iter().filter(|t| t.is_failure()).count();
        let frac = failures as f64 / trials.len() as f64;
        // Paper: ~7–8% of injections fail. Small windows and samples
        // justify slack, but masking must clearly dominate.
        assert!(frac < 0.45, "failure fraction {frac:.2} implausibly high");
        // The masked/latent split is exercised, not vacuous.
        assert!(trials.iter().any(|t| t.end != EndState::Terminated));
    }

    #[test]
    fn latch_only_draws_from_latch_regions() {
        let cfg = UarchCampaignConfig { target: InjectionTarget::LatchesOnly, ..quick() };
        let program = WorkloadId::Mcfx.build(cfg.scale);
        let mut pipe = restore_uarch::Pipeline::new(cfg.uarch.clone(), &program);
        let catalog = pipe.catalog();
        let mut rng = seeding::rng(9);
        for _ in 0..200 {
            let bit = draw_bit(&mut rng, &catalog, cfg.target);
            let region = catalog.region_of(bit).unwrap();
            assert_eq!(region.kind, restore_uarch::StateKind::Latch, "{}", region.name);
        }
    }

    #[test]
    fn perfect_cfv_covers_at_least_as_much_as_jrs() {
        let trials = run_uarch_campaign(&quick());
        for interval in [25u64, 100, 1000] {
            let cover = |mode: CfvMode| {
                trials.iter().filter(|t| t.classify(interval, mode, false).is_covered()).count()
            };
            assert!(
                cover(CfvMode::Perfect) >= cover(CfvMode::HighConfidence),
                "interval {interval}"
            );
            // Perfect confidence covers at least as much as JRS (§5.2.1).
            assert!(
                cover(CfvMode::AnyMispredict) >= cover(CfvMode::HighConfidence),
                "interval {interval}"
            );
        }
    }
}
