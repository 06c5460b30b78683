//! The shared trial-execution core: one sweep/seeding/lockstep/stats
//! loop for every fault model.
//!
//! The architectural (Figure 2) and microarchitectural (Figures 4–8)
//! campaigns decompose identically — plan per-workload injection
//! coordinates, sweep one walker forward emitting a machine snapshot at
//! each reachable point, fan the snapshots over the parallel engine,
//! run a golden observation plus seeded trials per point, and account
//! window cycles simulated/saved/pruned — but the two drivers used to
//! each own a private copy of that loop, and optimisations landed in
//! one without reaching the other (the reconvergence cutoff existed
//! only at the µarch level; the arch campaign's cycle counters were
//! hard-coded to zero). Following DETOx's structural argument
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
//! engine reassembles unit results in emission (= plan) order.

use crate::cache::TrialCache;
use crate::engine::{effective_threads, run_ordered, CampaignStats, UnitOutput};
use crate::seeding::Seeder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use restore_snapshot::{with_library, GoldenCheckpointLibrary, LibraryKey, SnapshotMachine};
use restore_store::{Payload, Shard, Stored, TrialKey};
use restore_workloads::WorkloadId;
use std::time::Instant;

/// Window-cycle accounting for one trial ("cycles" are the model's
/// window unit: pipeline cycles at the µarch level, retired
/// instructions at the arch level). The definition lives in
/// `restore-store` — it is persisted in every trial record so cached
/// hits replay exact accounting — and is re-exported here so the fault
/// models keep their historical path.
pub(crate) use restore_store::TrialCost;

impl<R> UnitOutput<R> {
    /// Folds one trial's cost into the unit's accounting.
    pub(crate) fn absorb(&mut self, cost: TrialCost) {
        self.cycles_simulated += cost.simulated;
        self.cycles_saved += cost.saved;
        self.trials_cut += cost.cut as u64;
        self.trials_pruned += cost.pruned as u64;
        self.cycles_pruned += cost.pruned_cycles;
    }
}

/// A fault model: the primitives one abstraction level contributes to
/// the shared campaign loop. Everything order- or thread-sensitive
/// (plan enumeration, seeding, reassembly, stats) stays in
/// [`run_campaign`]; implementations only ever see one machine, one
/// golden observation, or one trial at a time.
pub(crate) trait FaultModel: Sync {
    /// A machine snapshot: cloned at each injection point, walked
    /// forward (by the serial sweeper, or by workers finishing the
    /// residual from a checkpoint) in between.
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
    /// Golden checkpoint capture stride, in the model's sweep unit.
    /// `0` disables the library: the producer falls back to the
    /// historical serial forward walk.
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
    /// cutoff/prune settings are result-neutral (proved by the
    /// equivalence suites). Keys the on-disk trial store: records
    /// written under a different campaign digest are inert misses.
    fn campaign_digest(&self) -> u64;

    /// Builds the workload's walker, positioned before the first
    /// injection coordinate.
    fn spawn(&self, id: WorkloadId) -> Self::Machine;
    /// Sorted injection coordinates for one workload, drawn from
    /// `point_seed` (the per-workload stream — never from shared state,
    /// so plans are independent of execution order).
    fn plan(&self, walker: &Self::Machine, point_seed: u64) -> Vec<u64>;
    /// The golden observation at a fork (runs once per point, on the
    /// worker).
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
    /// `machine.step_to(coord)` — a no-op for the serial producer, at
    /// most one stride for the checkpoint producer.
    coord: u64,
    machine: M,
    /// `Some(hit)` when the machine came from the checkpoint library:
    /// `true` if its serving snapshot predated this campaign.
    ckpt_hit: Option<bool>,
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
/// of plan positions this run owns. [`CampaignIo::none`] is the
/// historical in-memory campaign.
pub(crate) struct CampaignIo<'a, T> {
    /// Trial store handle, keyed by the model's campaign digest.
    pub cache: Option<&'a TrialCache<T>>,
    /// The slice of plan positions this run executes. Sharding is
    /// positional over the campaign plan, which every shard enumerates
    /// identically — so shards partition the plan exactly.
    pub shard: Shard,
}

impl<'a, T> CampaignIo<'a, T> {
    /// No store, whole plan.
    pub(crate) fn none() -> CampaignIo<'a, T> {
        CampaignIo { cache: None, shard: Shard::ALL }
    }
}

/// Index of `id` in [`WorkloadId::ALL`] — the stable workload seeding
/// coordinate.
fn workload_index(id: WorkloadId) -> usize {
    WorkloadId::ALL.iter().position(|&w| w == id).expect("id is in ALL")
}

/// Runs a model's campaign over all seven workloads.
pub(crate) fn run_all<F: FaultModel>(model: &F) -> (Vec<F::Trial>, CampaignStats)
where
    F::Trial: Payload,
{
    run_all_io(model, &CampaignIo::none())
}

/// [`run_all`] with a trial store and shard selection.
pub(crate) fn run_all_io<F: FaultModel>(
    model: &F,
    io: &CampaignIo<'_, F::Trial>,
) -> (Vec<F::Trial>, CampaignStats)
where
    F::Trial: Payload,
{
    run_campaign(model, &WorkloadId::ALL.map(|id| (workload_index(id), id)), io)
}

/// Runs a model's campaign over a single workload. Seeding coordinates
/// are absolute, so the result is exactly the workload's slice of the
/// full campaign with the same seed.
pub(crate) fn run_single<F: FaultModel>(model: &F, id: WorkloadId) -> (Vec<F::Trial>, CampaignStats)
where
    F::Trial: Payload,
{
    run_single_io(model, id, &CampaignIo::none())
}

/// [`run_single`] with a trial store and shard selection. Plan
/// positions stay workload-local slices of the full campaign's
/// numbering only when the workload set matches, so shard selections
/// are comparable across runs of the *same* workload set.
pub(crate) fn run_single_io<F: FaultModel>(
    model: &F,
    id: WorkloadId,
    io: &CampaignIo<'_, F::Trial>,
) -> (Vec<F::Trial>, CampaignStats)
where
    F::Trial: Payload,
{
    run_campaign(model, &[(workload_index(id), id)], io)
}

/// The one campaign loop. The [`run_ordered`] producer materializes
/// each workload's planned points — from the golden checkpoint library
/// when the model's stride is non-zero (O(1) per point, warm across
/// campaigns), by the historical serial forward walk when it is 0 —
/// and forks a [`PointUnit`] at each; workers finish the residual
/// sweep to the injection coordinate, run the point's golden
/// observation and its coordinate-seeded trials, and results
/// reassemble in plan order `(workload, point, trial)`.
///
/// Equivalence of the two producers (proved bit-exact by
/// `tests/ckpt_equivalence.rs`): a unit is emitted iff the golden run
/// is live *at* its coordinate — the serial walk observes that
/// directly via `step_to`, the library via its recorded stop
/// coordinate — and the machine a worker ends up with at the
/// coordinate is identical either way because the simulators are
/// deterministic and restore is fingerprint-verified.
fn run_campaign<F: FaultModel>(
    model: &F,
    workloads: &[(usize, WorkloadId)],
    io: &CampaignIo<'_, F::Trial>,
) -> (Vec<F::Trial>, CampaignStats)
where
    F::Trial: Payload,
{
    let seeder = Seeder::new(model.seed(), model.domain());
    let stride = model.ckpt_stride();
    let config = model.campaign_digest();
    if let Some(cache) = io.cache {
        assert_eq!(
            cache.config(),
            config,
            "trial cache was opened under a different campaign digest"
        );
    }
    run_ordered(
        effective_threads(model.threads()),
        |emit| {
            // Plan position across every workload, in plan order — the
            // shard coordinate. Advanced by full plan lengths (never by
            // what actually ran), so every shard numbers every point
            // identically.
            let mut pos = 0u64;
            for &(wl, id) in workloads {
                if stride == 0 {
                    serial_produce(model, wl, id, &seeder, io, &mut pos, emit);
                } else {
                    library_produce(model, wl, id, stride, &seeder, io, &mut pos, emit);
                }
            }
        },
        |unit: Unit<F::Machine, F::Trial>| {
            let mut unit = match unit {
                Unit::Cached(recs) => {
                    let mut out = UnitOutput::default();
                    for rec in recs {
                        absorb_cached(&mut out, rec);
                    }
                    return out;
                }
                Unit::Live(unit) => unit,
            };
            let s0 = Instant::now();
            let live = unit.machine.step_to(unit.coord);
            let sweep_secs = s0.elapsed().as_secs_f64();
            assert!(live, "emitted units are live at their injection coordinate");

            let g0 = Instant::now();
            let golden = model.golden(&unit.machine, unit.id);
            let golden_secs = g0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let mut out = UnitOutput { sweep_secs, golden_secs, ..UnitOutput::default() };
            out.checkpoint_hits = u64::from(unit.ckpt_hit == Some(true));
            out.checkpoint_misses = u64::from(unit.ckpt_hit == Some(false));
            out.warmup_cycles_saved = unit.warmup_saved;
            out.results.reserve(model.trials_per_point());
            for t in 0..model.trials_per_point() {
                let seed = seeder.trial(unit.wl, unit.point, t);
                let key = TrialKey { config, workload: unit.wl as u64, point: unit.coord, seed };
                if let Some(rec) = io.cache.and_then(|c| c.lookup(&key)) {
                    absorb_cached(&mut out, rec);
                    continue;
                }
                let rng = StdRng::seed_from_u64(seed);
                let (trial, cost) = model.run_trial(&unit.machine, &golden, unit.id, rng);
                if let Some(cache) = io.cache {
                    cache.record(Stored { key, cost, trial: trial.clone() });
                }
                out.absorb(cost);
                out.results.extend(trial);
            }
            out.trial_secs = t0.elapsed().as_secs_f64();
            out
        },
    )
}

/// Replays one stored record into a unit's output: the record's full
/// planned window lands in the cached counters (zero cycles simulated
/// this run), its outcome — if the trial produced one — in the results.
fn absorb_cached<R>(out: &mut UnitOutput<R>, rec: Stored<R>) {
    out.trials_cached += 1;
    out.cycles_cached += rec.cost.planned();
    out.results.extend(rec.trial);
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
        let key = TrialKey {
            config: cache.config(),
            workload: wl as u64,
            point: coord,
            seed: seeder.trial(wl, point, t),
        };
        recs.push(cache.lookup(&key)?);
    }
    Some(recs)
}

/// The historical producer: one walker swept serially forward through
/// the workload's sorted plan, forked at each reachable point. Points
/// outside the shard — and fully-cached points — are skipped without
/// stepping: `step_to` is absolute, so the walker jumps straight to
/// the next coordinate this run actually simulates.
#[allow(clippy::too_many_arguments)]
fn serial_produce<F: FaultModel>(
    model: &F,
    wl: usize,
    id: WorkloadId,
    seeder: &Seeder,
    io: &CampaignIo<'_, F::Trial>,
    pos: &mut u64,
    emit: &mut dyn FnMut(Unit<F::Machine, F::Trial>),
) where
    F::Trial: Payload,
{
    let mut walker = model.spawn(id);
    let plan = model.plan(&walker, seeder.points(wl));
    let base = *pos;
    *pos += plan.len() as u64;
    for (point, coord) in plan.into_iter().enumerate() {
        if !io.shard.owns(base + point as u64) {
            continue;
        }
        if let Some(recs) = cached_point(model, io.cache, seeder, wl, point, coord) {
            emit(Unit::Cached(recs));
            continue;
        }
        if !walker.step_to(coord) {
            break;
        }
        emit(Unit::Live(PointUnit {
            wl,
            id,
            point,
            coord,
            machine: walker.clone(),
            ckpt_hit: None,
            warmup_saved: 0,
        }));
    }
}

/// The checkpoint producer: points materialize from the process-wide
/// golden library for `(domain, workload, config, stride)`, each unit
/// carrying the nearest snapshot at-or-before its coordinate. The
/// workload's golden prefix is simulated at most once per process, and
/// emission stops at exactly the first unreachable coordinate — the
/// same abandonment point as the serial walk.
#[allow(clippy::too_many_arguments)]
fn library_produce<F: FaultModel>(
    model: &F,
    wl: usize,
    id: WorkloadId,
    stride: u64,
    seeder: &Seeder,
    io: &CampaignIo<'_, F::Trial>,
    pos: &mut u64,
    emit: &mut dyn FnMut(Unit<F::Machine, F::Trial>),
) where
    F::Trial: Payload,
{
    let key = LibraryKey {
        domain: model.domain(),
        workload: wl as u64,
        config: model.config_digest(),
        stride,
    };
    with_library(
        key,
        || GoldenCheckpointLibrary::new(model.spawn(id), stride),
        |lib, created| {
            // A snapshot is "warm" only if it predates this campaign
            // entirely; a just-created library's origin snapshot is as
            // cold as the captures that follow it.
            let warm_snaps = if created { 0 } else { lib.len() };
            let plan = model.plan(lib.origin(), seeder.points(wl));
            let base = *pos;
            *pos += plan.len() as u64;
            for (point, coord) in plan.into_iter().enumerate() {
                if !io.shard.owns(base + point as u64) {
                    continue;
                }
                if let Some(recs) = cached_point(model, io.cache, seeder, wl, point, coord) {
                    emit(Unit::Cached(recs));
                    continue;
                }
                let Some(m) = lib.materialize(coord) else {
                    break;
                };
                let hit = m.snap_index < warm_snaps;
                emit(Unit::Live(PointUnit {
                    wl,
                    id,
                    point,
                    coord,
                    machine: m.machine,
                    ckpt_hit: Some(hit),
                    warmup_saved: if hit { m.base_coord - lib.origin_coord() } else { 0 },
                }));
            }
        },
    );
}
