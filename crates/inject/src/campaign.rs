//! The shared trial-execution core: one sweep/seeding/lockstep/stats
//! loop for every fault model.
//!
//! The architectural (Figure 2) and microarchitectural (Figures 4–8)
//! campaigns decompose identically — plan per-workload injection
//! coordinates, walk the golden run forward to hand out a machine
//! snapshot at each reachable point as a unit the parallel engine's
//! workers claim in plan order, run a golden observation plus seeded
//! trials per point, and account window cycles simulated/saved/pruned
//! — but the two drivers used to each own a private copy of that loop,
//! and optimisations landed in one without reaching the other (the
//! reconvergence cutoff existed only at the µarch level; the arch
//! campaign's cycle counters were hard-coded to zero). Following DETOx's structural argument
//! (Lenz & Schirmeier, 2016), the loop now exists exactly once, here:
//! a [`FaultModel`] supplies the model-specific primitives (spawning
//! and sweeping a machine, the golden observation, one injected
//! trial), and [`run_campaign`] owns plan order, per-unit seeding
//! coordinates, [`run_ordered`] wiring and [`CampaignStats`]
//! accounting. A third fault model — a new abstraction level, a remote
//! backend — plugs in by implementing the trait; it inherits
//! parallelism, determinism and the cost accounting without touching
//! any campaign loop.
//!
//! Determinism contract (what makes results bit-identical at every
//! thread count, for every model): injection plans are drawn from a
//! per-workload seed stream, each trial's RNG is seeded from its
//! `(workload, point, trial)` coordinates ([`crate::seeding`]), and the
//! engine reassembles unit results in claim (= plan) order.

use crate::cache::TrialCache;
use crate::engine::{effective_threads, run_ordered, CampaignStats, UnitOutput};
use crate::seeding::{self, Seeder};
use rand::rngs::StdRng;
use restore_maskmap::MapSource;
use restore_snapshot::{library, GoldenCheckpointLibrary, LibraryKey, Served, SnapshotMachine};
use restore_store::{Payload, Shard, Stored, TrialCost, TrialKey};
use restore_workloads::WorkloadId;
use std::time::Instant;

/// Window units between reconvergence checks, in both fault models: at
/// each multiple a trial whose machine equals golden's is cut, and the
/// rest of its window is back-filled from golden. A µarch check costs a
/// fingerprint, about a few hundred pipeline cycles of work (an arch
/// check is free), so 250 keeps the overhead a few percent while
/// catching reconvergence (typically a few hundred units after a masked
/// flip) early in the window. Stride 0 — no checks — is
/// the exhaustive reference trial that `PruneMode::Audit` and the
/// in-crate tests compare against.
pub(crate) const CUTOFF_STRIDE: u64 = 250;

/// Why a golden checkpoint library's lock may fail: a claim that
/// panicked inside `materialize` can leave the frontier between two
/// coordinates, so a poisoned library is never served again.
const POISONED_LIBRARY: &str = "a panicked claim poisoned this golden checkpoint library";

impl<R> UnitOutput<R> {
    /// Folds one simulated trial's cost into the unit's accounting.
    /// `trials_interval_pruned` counts the same trials as
    /// `trials_pruned`: the masking map is the only pruner.
    fn absorb(&mut self, cost: TrialCost) {
        let stats = &mut self.stats;
        stats.cycles_simulated += cost.simulated;
        stats.cycles_saved += cost.saved;
        stats.trials_cut += u64::from(cost.cut);
        stats.trials_pruned += u64::from(cost.pruned);
        stats.trials_interval_pruned += u64::from(cost.pruned);
        stats.cycles_pruned += cost.pruned_cycles;
    }

    /// Replays one stored record into the unit: the record's full
    /// planned window lands in the cached counters (zero cycles
    /// simulated this run), its outcome — if the trial produced one —
    /// in the results.
    fn absorb_cached(&mut self, rec: Stored<R>) {
        self.stats.trials_cached += 1;
        self.stats.cycles_cached += rec.cost.planned();
        self.results.extend(rec.trial);
    }
}

/// A fault model: the primitives one abstraction level contributes to
/// the shared campaign loop. Everything order- or thread-sensitive
/// (plan enumeration, seeding, reassembly, stats) stays in
/// [`run_campaign`]; implementations only ever see one machine, one
/// golden observation, or one trial at a time.
pub(crate) trait FaultModel: Sync {
    /// A machine snapshot: cloned at each injection point from the
    /// golden checkpoint library, walked forward in between (by the
    /// library's frontier inside a claim, or by workers finishing the
    /// residual from a checkpoint).
    type Machine: Send + SnapshotMachine + 'static;
    /// Per-point golden observation shared by the point's trials.
    type Golden;
    /// One trial's record.
    type Trial: Send;

    /// Seeding domain tag ([`crate::seeding`]); distinct per model so
    /// equal `--seed` values stay decorrelated across campaigns.
    fn domain(&self) -> u64;
    /// Campaign seed.
    fn seed(&self) -> u64;
    /// Requested worker threads (0 = auto).
    fn threads(&self) -> usize;
    /// Trials per injection point.
    fn trials_per_point(&self) -> usize;
    /// Golden checkpoint capture stride, in the model's sweep unit. Must
    /// be positive ([`GoldenCheckpointLibrary::new`] asserts it).
    fn ckpt_stride(&self) -> u64;
    /// Digest of everything that shapes the golden run's evolution
    /// (program scale, machine configuration — *not* campaign seeds,
    /// point counts or thread counts). Keys the process-wide checkpoint
    /// library ([`restore_snapshot::LibraryKey`]).
    fn config_digest(&self) -> u64;
    /// Digest of everything that shapes a *trial record* — the machine
    /// configuration plus the observation-window parameters — and
    /// nothing that doesn't: seeds and coordinates live in the
    /// [`TrialKey`] itself, and thread counts, checkpoint strides and
    /// prune settings are result-neutral (proved by the golden vectors
    /// and `--prune audit`). Keys the on-disk trial store: records
    /// written under a different campaign digest are inert misses.
    fn campaign_digest(&self) -> u64;

    /// Builds the workload's walker, positioned before the first
    /// injection coordinate.
    fn spawn(&self, id: WorkloadId) -> Self::Machine;
    /// Sorted injection coordinates for one workload, drawn from
    /// `point_seed` (the per-workload stream — never from shared state,
    /// so plans are independent of execution order).
    fn plan(&self, id: WorkloadId, point_seed: u64) -> Vec<u64>;
    /// Resolves, over up to `threads` threads, whatever per-workload
    /// state the `live` workloads' golden observations share — the
    /// masking maps of an interval-pruned campaign — before any unit
    /// runs. Reports how each map was served; models with nothing to
    /// resolve keep the default.
    fn prepare(&self, _live: &[WorkloadId], _threads: usize) -> Vec<MapSource> {
        Vec::new()
    }
    /// The golden observation at a fork (runs once per point, on the
    /// worker, outside the claim).
    fn golden(&self, fork: &Self::Machine, id: WorkloadId) -> Self::Golden;
    /// Runs one injected trial against the fork and its golden
    /// observation. `rng` is seeded from the trial's plan coordinates.
    /// `None` means the drawn injection had no effect to corrupt (e.g.
    /// a result-less instruction at the arch level) — the trial is
    /// skipped, as the paper's methodology prescribes.
    fn run_trial(
        &self,
        fork: &Self::Machine,
        golden: &Self::Golden,
        id: WorkloadId,
        rng: StdRng,
    ) -> (Option<Self::Trial>, TrialCost);
}

/// One engine work unit: a machine snapshot at (or checkpoint-near) an
/// injection point, with the plan coordinates that seed its trials.
struct PointUnit<M> {
    /// Workload index in [`WorkloadId::ALL`] (a seeding coordinate).
    wl: usize,
    id: WorkloadId,
    /// Point index within the workload's sorted plan (a seeding
    /// coordinate).
    point: usize,
    /// The injection coordinate. The worker finishes the residual
    /// `machine.step_to(coord)` — a no-op for a frontier serve, at most
    /// one stride for a snapshot serve.
    coord: u64,
    machine: M,
    /// `true` if the serving snapshot predated this campaign.
    ckpt_hit: bool,
    /// Warm-up cycles the library skipped for this unit (hits only).
    warmup_saved: u64,
}

/// One engine work unit: either a live machine fork to simulate, or a
/// point whose every trial is already in the trial store.
enum Unit<M, T> {
    /// Simulate: sweep, golden, trials (each trial may still be an
    /// individual store hit).
    Live(PointUnit<M>),
    /// Replay: the point's records, in trial order. No machine, no
    /// golden run, zero simulated cycles.
    Cached(Vec<Stored<T>>),
}

/// Campaign I/O context: an optional content-addressed trial cache to
/// consult before simulating (and record into after), plus the shard
/// of plan positions this run owns.
pub(crate) struct CampaignIo<'a, T> {
    /// Trial store handle, keyed by the model's campaign digest.
    pub cache: Option<&'a TrialCache<T>>,
    /// The slice of plan positions this run executes. Sharding is
    /// positional over the campaign plan, which every shard enumerates
    /// identically — so shards partition the plan exactly.
    pub shard: Shard,
}

/// The one campaign loop, over all seven workloads. It first draws
/// every workload's plan and has the model [`FaultModel::prepare`] the
/// workloads with at least one owned, not-fully-cached point, over the
/// campaign's worker threads. It then hands [`run_ordered`] the
/// workloads' units in plan order ([`library_units`]): each claim
/// materializes the next planned point from the golden checkpoint
/// library as a [`PointUnit`]; the claiming worker finishes the
/// residual sweep to the injection coordinate, runs the point's golden
/// observation and its coordinate-seeded trials, and results reassemble
/// in plan order `(workload, point, trial)`.
///
/// A unit is claimed iff the golden run is live *at* its coordinate,
/// and the machine a worker ends up with there is the golden run's
/// whichever way the library served it: the simulators are
/// deterministic and snapshot restores are fingerprint-verified.
#[expect(
    clippy::disallowed_methods,
    reason = "the campaign driver times its phases for CampaignStats; wall time never reaches a result"
)]
pub(crate) fn run_campaign<F: FaultModel>(
    model: &F,
    io: &CampaignIo<'_, F::Trial>,
) -> (Vec<F::Trial>, CampaignStats)
where
    F::Trial: Payload,
{
    let seeder = Seeder::new(model.seed(), model.domain());
    let config = model.campaign_digest();
    if let Some(cache) = io.cache {
        assert_eq!(
            cache.config(),
            config,
            "trial cache was opened under a different campaign digest"
        );
    }
    let threads = effective_threads(model.threads());
    let prep0 = Instant::now();
    // Plan position across every workload, in plan order, is the shard
    // coordinate: each workload's plan starts where the previous one's
    // ended, whatever actually runs, so every shard numbers every point
    // identically.
    let mut base = 0u64;
    let plans: Vec<Points> = WorkloadId::ALL
        .into_iter()
        .enumerate()
        .map(|(wl, id)| {
            let plan = model.plan(id, seeder.points(wl));
            let points = Points { wl, id, base, plan };
            base += points.plan.len() as u64;
            points
        })
        .collect();
    let live: Vec<WorkloadId> = plans
        .iter()
        .filter(|p| {
            p.plan.iter().enumerate().any(|(point, &coord)| {
                io.shard.owns(p.base + point as u64)
                    && !point_cached(model, io.cache, &seeder, p.wl, point, coord)
            })
        })
        .map(|p| p.id)
        .collect();
    let m0 = Instant::now();
    let maps = model.prepare(&live, threads);
    let maskmap_secs = m0.elapsed().as_secs_f64();
    let prep_secs = prep0.elapsed().as_secs_f64();

    let (results, mut stats) = run_ordered(
        threads,
        plans.iter().flat_map(|points| {
            library_units(model, points, live.contains(&points.id), &seeder, io)
        }),
        |unit: Unit<F::Machine, F::Trial>| {
            let mut unit = match unit {
                Unit::Cached(recs) => {
                    let mut out = UnitOutput::default();
                    for rec in recs {
                        out.absorb_cached(rec);
                    }
                    return out;
                }
                Unit::Live(unit) => unit,
            };
            let s0 = Instant::now();
            let live = unit.machine.step_to(unit.coord);
            let sweep_secs = s0.elapsed().as_secs_f64();
            assert!(live, "claimed units are live at their injection coordinate");

            let g0 = Instant::now();
            let golden = model.golden(&unit.machine, unit.id);
            let golden_secs = g0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let mut out = UnitOutput {
                results: Vec::with_capacity(model.trials_per_point()),
                stats: CampaignStats {
                    sweep_secs,
                    golden_secs,
                    checkpoint_hits: u64::from(unit.ckpt_hit),
                    checkpoint_misses: u64::from(!unit.ckpt_hit),
                    warmup_cycles_saved: unit.warmup_saved,
                    ..CampaignStats::default()
                },
            };
            for t in 0..model.trials_per_point() {
                let seed = seeder.trial(unit.wl, unit.point, t);
                let key = TrialKey { config, workload: unit.wl as u64, point: unit.coord, seed };
                if let Some(rec) = io.cache.and_then(|c| c.lookup(&key)) {
                    out.absorb_cached(rec);
                    continue;
                }
                let rng = seeding::rng(seed);
                let (trial, cost) = model.run_trial(&unit.machine, &golden, unit.id, rng);
                if let Some(cache) = io.cache {
                    cache.record(Stored { key, cost, trial: trial.clone() });
                }
                out.absorb(cost);
                out.results.extend(trial);
            }
            out.stats.trial_secs = t0.elapsed().as_secs_f64();
            out
        },
    );
    stats.wall_secs += prep_secs;
    stats.maskmap_secs = maskmap_secs;
    stats.maps_built = maps.iter().filter(|&&s| s == MapSource::Built).count() as u64;
    stats.maps_loaded = maps.iter().filter(|&&s| s == MapSource::Loaded).count() as u64;
    (results, stats)
}

/// One workload's plan, as the claims walk it.
struct Points {
    /// Workload index in [`WorkloadId::ALL`] (a seeding coordinate).
    wl: usize,
    id: WorkloadId,
    /// Plan position of the workload's first point (the shard
    /// coordinate).
    base: u64,
    /// Sorted injection coordinates.
    plan: Vec<u64>,
}

/// The point's full trial record set, when *every* trial is in the
/// store (partial coverage — e.g. a rerun with more trials per point —
/// falls back to the live path, which still serves the covered trials
/// individually). Presence of records implies the golden run was live
/// at the coordinate when they were recorded, which by determinism
/// means it still is — so a fully-cached point needs no machine at all.
fn cached_point<F: FaultModel>(
    model: &F,
    cache: Option<&TrialCache<F::Trial>>,
    seeder: &Seeder,
    wl: usize,
    point: usize,
    coord: u64,
) -> Option<Vec<Stored<F::Trial>>>
where
    F::Trial: Payload,
{
    let cache = cache?;
    let mut recs = Vec::with_capacity(model.trials_per_point());
    for t in 0..model.trials_per_point() {
        recs.push(cache.lookup(&trial_key(cache, seeder, wl, point, coord, t))?);
    }
    Some(recs)
}

/// Whether [`cached_point`] would serve the point, without decoding
/// its records.
fn point_cached<F: FaultModel>(
    model: &F,
    cache: Option<&TrialCache<F::Trial>>,
    seeder: &Seeder,
    wl: usize,
    point: usize,
    coord: u64,
) -> bool
where
    F::Trial: Payload,
{
    cache.is_some_and(|cache| {
        (0..model.trials_per_point())
            .all(|t| cache.contains(&trial_key(cache, seeder, wl, point, coord, t)))
    })
}

/// The store address of trial `t` at plan point `point` (coordinate
/// `coord`) of workload `wl`.
fn trial_key<T: Payload>(
    cache: &TrialCache<T>,
    seeder: &Seeder,
    wl: usize,
    point: usize,
    coord: u64,
    t: usize,
) -> TrialKey {
    TrialKey {
        config: cache.config(),
        workload: wl as u64,
        point: coord,
        seed: seeder.trial(wl, point, t),
    }
}

/// One workload's units, in plan order: points materialize from the
/// process-wide golden library for `(domain, workload, config,
/// stride)`, each inside the claim that yields it. Points past the
/// library's frontier are clones of the frontier walked there — for a
/// cold library, exactly the work of one serial forward walk, since
/// claims arrive in plan order — and points behind it come from the
/// nearest snapshot at-or-before them. The workload's golden prefix is
/// simulated at most once per process. Points outside the shard, and
/// fully-cached points, are skipped without materializing anything,
/// and the units stop at exactly the first coordinate where the golden
/// run is no longer live. A workload that is not `live` (every owned
/// point fully cached) builds no library at all.
fn library_units<'a, F: FaultModel>(
    model: &'a F,
    points: &'a Points,
    live: bool,
    seeder: &'a Seeder,
    io: &'a CampaignIo<'a, F::Trial>,
) -> impl Iterator<Item = Unit<F::Machine, F::Trial>> + 'a
where
    F::Trial: Payload,
{
    let Points { wl, id, base, ref plan } = *points;
    let stride = model.ckpt_stride();
    let key = LibraryKey {
        domain: model.domain(),
        workload: wl as u64,
        config: model.config_digest(),
        stride,
    };
    let lib = live.then(|| {
        let (lib, created) = library(key, || GoldenCheckpointLibrary::new(model.spawn(id), stride));
        // A snapshot is "warm" only if it predates this campaign
        // entirely; a just-created library's origin snapshot is as cold
        // as the captures that follow it.
        let warm_snaps = if created { 0 } else { lib.lock().expect(POISONED_LIBRARY).len() };
        (lib, warm_snaps)
    });
    let owned =
        plan.iter().enumerate().filter(move |&(point, _)| io.shard.owns(base + point as u64));
    owned.map_while(move |(point, &coord)| {
        if let Some(recs) = cached_point(model, io.cache, seeder, wl, point, coord) {
            return Some(Unit::Cached(recs));
        }
        let (lib, warm_snaps) = lib.as_ref().expect("a workload with an uncached point is live");
        let mut lib = lib.lock().expect(POISONED_LIBRARY);
        let m = lib.materialize(coord)?;
        let hit = matches!(m.served, Served::Snapshot { index, .. } if index < *warm_snaps);
        Some(Unit::Live(PointUnit {
            wl,
            id,
            point,
            coord,
            machine: m.machine,
            ckpt_hit: hit,
            warmup_saved: if hit { m.base_coord - lib.origin_coord() } else { 0 },
        }))
    })
}
