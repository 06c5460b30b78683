//! Parallel campaign engine: workers that pull their own units, with
//! deterministic reassembly.
//!
//! Both campaign types decompose the same way: one ordered spine — the
//! golden walk through a workload's sorted injection points, since
//! reaching cycle *c* requires simulating cycles *0..c* — and, at each
//! point, an expensive independent part (golden run + trials, ~10⁴
//! cycles each) against a snapshot of the machine there. The campaign
//! hands [`run_ordered`] its units as one lazy iterator in plan order,
//! and exactly `threads` scoped **workers** share it behind a lock:
//! each worker *claims* its next unit by advancing the iterator under
//! the lock (which is where the spine runs: walking the golden
//! checkpoint library's frontier, cloning a snapshot, or reading a
//! fully cached point's records), then runs the unit outside it. The
//! lock makes claims strictly sequential in plan order, so the frontier
//! only ever walks forward; each claim is tagged with its claim index,
//! and reassembly sorts by that index, so output order is the campaign
//! *plan* order `(workload, point, trial)` regardless of worker
//! interleaving. Combined with per-unit seeding ([`crate::seeding`]) the
//! full trial vector is bit-identical at every thread count.
//!
//! No unit is claimed before a worker is free to run it, so at most
//! `threads` snapshots are in flight, and `--threads N` means N busy
//! threads: the calling thread only waits. `--threads 1` is the same
//! engine with one worker, not a separate code path.

use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Resolves a requested worker count: an explicit request wins, and 0
/// means the machine's available parallelism.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
}

/// Throughput instrumentation for one campaign run.
///
/// Stage seconds are *summed across workers*, so on `t` threads
/// `produce_secs + sweep_secs + golden_secs + trial_secs` can approach
/// `t × wall_secs`; the ratio of the two is the parallel efficiency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignStats {
    /// Worker threads used: every claim and every unit ran on one of
    /// them, and the calling thread only waited.
    pub threads: usize,
    /// Work units (injection points) executed.
    pub units: u64,
    /// Trials produced.
    pub trials: u64,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// Worker seconds spent inside claims, summed across workers:
    /// advancing the campaign's unit iterator under its lock, which
    /// walks the golden checkpoint library's frontier, clones snapshots
    /// and reads fully cached points. Waits for the lock are not
    /// counted.
    pub produce_secs: f64,
    /// Worker seconds spent sweeping materialized machines from their
    /// checkpoint to the injection coordinate (the residual O(stride)
    /// walk), summed across workers. Near zero on a cold campaign: the
    /// claims pay the golden walk in `produce_secs` and hand out
    /// machines already at their coordinates; only units served from a
    /// snapshot behind the library's frontier have a residual to walk.
    pub sweep_secs: f64,
    /// Worker seconds spent on golden runs, summed across workers.
    pub golden_secs: f64,
    /// Worker seconds spent on injected trials, summed across workers.
    pub trial_secs: f64,
    /// Units served from a checkpoint captured before this campaign
    /// started (warm library reuse across campaigns in one process).
    pub checkpoint_hits: u64,
    /// Units served cold: cloned from the library's frontier as this
    /// campaign walked it forward, or from a snapshot that walk captured.
    pub checkpoint_misses: u64,
    /// Golden warm-up cycles the library's warm checkpoints skipped:
    /// the sum over hit units of their serving checkpoint's coordinate.
    /// A cold library re-simulates these.
    pub warmup_cycles_saved: u64,
    /// Observation-window cycles actually simulated by trials (golden
    /// runs excluded — they run once per unit regardless of the cutoff).
    pub cycles_simulated: u64,
    /// Window cycles skipped because a trial's fingerprint matched the
    /// golden run's at a stride boundary (reconvergence cutoff).
    pub cycles_saved: u64,
    /// Trials cut short by the reconvergence cutoff.
    pub trials_cut: u64,
    /// Trials the masking-interval map classified (`--prune interval`)
    /// without simulating their window. Under `--prune audit` these
    /// trials are simulated as well, and their cycles count as
    /// simulated/saved, not pruned.
    pub trials_pruned: u64,
    /// Window cycles those pruned trials would have needed.
    pub cycles_pruned: u64,
    /// Always equal to `trials_pruned`: the map is the only pruner.
    /// Kept because the benchmark's traced run reads it as its
    /// `maskmap.pruned_frac` numerator.
    pub trials_interval_pruned: u64,
    /// Always 0: no pruner runs shadow simulations any more. Kept
    /// because the benchmark's traced run reports it as
    /// `maskmap.shadow_runs`.
    pub shadow_runs: u64,
    /// Trials served from the on-disk trial store without simulating
    /// anything (content-addressed cache hits).
    pub trials_cached: u64,
    /// Planned window cycles those cached trials replayed from their
    /// records (the recording run's `simulated + saved + pruned`), so
    /// the invariant `simulated + saved + pruned + cached = planned`
    /// holds across any cold/warm mix.
    pub cycles_cached: u64,
    /// Wall seconds spent resolving the masking maps before any unit
    /// ran (part of `wall_secs`).
    pub maskmap_secs: f64,
    /// Masking maps this run built by replaying a golden run.
    pub maps_built: u64,
    /// Masking maps this run loaded from persisted files.
    pub maps_loaded: u64,
}

impl CampaignStats {
    /// Campaign throughput in trials per wall-clock second.
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.trials as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Fraction of planned trial window cycles the reconvergence cutoff
    /// skipped: `saved / (simulated + saved)`. Zero when the cutoff is
    /// off or never fired.
    pub fn cycles_saved_fraction(&self) -> f64 {
        let planned = self.cycles_simulated + self.cycles_saved;
        if planned > 0 {
            self.cycles_saved as f64 / planned as f64
        } else {
            0.0
        }
    }

    /// Folds another run's stats into this one — the shard-merge
    /// operation. Counters sum exactly; stage seconds sum (so a merged
    /// `wall_secs` is the *sequential-equivalent* wall time of the
    /// shards, not the elapsed time of a concurrent fleet); `threads`
    /// takes the maximum, matching what a single run at that width
    /// would report. Merging the per-shard stats of a sharded campaign
    /// reproduces the single cold run's counters exactly — proved by
    /// `tests/store_equivalence.rs`. The pattern names every field with
    /// no `..`, so a counter added to the struct does not compile until
    /// it is merged here.
    pub fn merge(&mut self, other: &CampaignStats) {
        let CampaignStats {
            threads,
            units,
            trials,
            wall_secs,
            produce_secs,
            sweep_secs,
            golden_secs,
            trial_secs,
            checkpoint_hits,
            checkpoint_misses,
            warmup_cycles_saved,
            cycles_simulated,
            cycles_saved,
            trials_cut,
            trials_pruned,
            cycles_pruned,
            trials_interval_pruned,
            shadow_runs,
            trials_cached,
            cycles_cached,
            maskmap_secs,
            maps_built,
            maps_loaded,
        } = *other;
        self.threads = self.threads.max(threads);
        self.units += units;
        self.trials += trials;
        self.wall_secs += wall_secs;
        self.produce_secs += produce_secs;
        self.sweep_secs += sweep_secs;
        self.golden_secs += golden_secs;
        self.trial_secs += trial_secs;
        self.checkpoint_hits += checkpoint_hits;
        self.checkpoint_misses += checkpoint_misses;
        self.warmup_cycles_saved += warmup_cycles_saved;
        self.cycles_simulated += cycles_simulated;
        self.cycles_saved += cycles_saved;
        self.trials_cut += trials_cut;
        self.trials_pruned += trials_pruned;
        self.cycles_pruned += cycles_pruned;
        self.trials_interval_pruned += trials_interval_pruned;
        self.shadow_runs += shadow_runs;
        self.trials_cached += trials_cached;
        self.cycles_cached += cycles_cached;
        self.maskmap_secs += maskmap_secs;
        self.maps_built += maps_built;
        self.maps_loaded += maps_loaded;
    }
}

/// One-line human summary: throughput, stage times, and — when the
/// optimisations fired — the cutoff/pruning breakdown plus the trial
/// mix (fully simulated vs. cut vs. pruned), then the masking maps the
/// run built or loaded.
impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trials over {} units on {} thread{} in {:.2}s ({:.0} trials/s; \
             produce {:.2}s; sweep {:.2}s, golden {:.2}s, trials {:.2}s worker-time)",
            self.trials,
            self.units,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall_secs,
            self.trials_per_sec(),
            self.produce_secs,
            self.sweep_secs,
            self.golden_secs,
            self.trial_secs,
        )?;
        if self.checkpoint_hits + self.checkpoint_misses > 0 {
            write!(
                f,
                "; checkpoints served {} units ({} warm / {} cold), \
                 skipping {} warm-up cycles",
                self.checkpoint_hits + self.checkpoint_misses,
                self.checkpoint_hits,
                self.checkpoint_misses,
                self.warmup_cycles_saved,
            )?;
        }
        if self.trials_cut > 0 {
            write!(
                f,
                "; cutoff ended {}/{} trials early, skipping {} of {} window cycles ({:.0}%)",
                self.trials_cut,
                self.trials,
                self.cycles_saved,
                self.cycles_simulated + self.cycles_saved,
                100.0 * self.cycles_saved_fraction(),
            )?;
        }
        if self.trials_pruned > 0 {
            // The clause's wording predates the interval map; the
            // benchmark's stats parser matches it verbatim.
            write!(
                f,
                "; liveness oracle pruned {}/{} trials, skipping {} window cycles",
                self.trials_pruned, self.trials, self.cycles_pruned,
            )?;
        }
        if self.trials_cached > 0 {
            write!(
                f,
                "; trial store served {} trials, replaying {} window cycles",
                self.trials_cached, self.cycles_cached,
            )?;
        }
        if self.trials > 0 && (self.trials_cut > 0 || self.trials_pruned > 0) {
            let pct = |n: u64| 100.0 * n as f64 / self.trials as f64;
            // In audit mode a pruned trial is also simulated (and may be
            // cut), so the categories can overlap — saturate rather than
            // wrap.
            let full = self.trials.saturating_sub(self.trials_cut + self.trials_pruned);
            write!(
                f,
                "; trial mix: {:.0}% simulated / {:.0}% cut / {:.0}% pruned",
                pct(full),
                pct(self.trials_cut),
                pct(self.trials_pruned),
            )?;
        }
        if self.maps_built + self.maps_loaded > 0 {
            write!(
                f,
                "; masking maps: {} built, {} loaded in {:.2}s",
                self.maps_built, self.maps_loaded, self.maskmap_secs,
            )?;
        }
        Ok(())
    }
}

/// What a worker hands back for one unit.
pub(crate) struct UnitOutput<R> {
    /// The unit's results, in the unit's own deterministic order.
    pub results: Vec<R>,
    /// The unit's share of the campaign's worker-side counters: stage
    /// seconds, checkpoint serves and window-cycle accounting.
    /// [`run_ordered`] folds every unit's with [`CampaignStats::merge`]
    /// and fills in the campaign-wide fields (threads, units, trials,
    /// wall and claim time) itself.
    pub stats: CampaignStats,
}

/// An empty unit: no results, zero time, zero cycle accounting. (Not
/// derived — that would demand `R: Default` for no reason.)
impl<R> Default for UnitOutput<R> {
    fn default() -> Self {
        UnitOutput { results: Vec::new(), stats: CampaignStats::default() }
    }
}

/// Runs `units` over exactly `threads` scoped workers and reassembles
/// the results in iterator order.
///
/// Each worker claims its next unit by advancing `units` under a lock —
/// so claims happen one at a time, in iterator order, and whatever the
/// iterator computes to yield a unit runs inside the claim — then runs
/// `work` on it outside the lock. The flattened results are returned
/// ordered by claim index. A panic in `work` or in the iterator fails
/// the whole run once the other workers stop: a panicked claim poisons
/// the lock, and no worker claims past it.
#[expect(
    clippy::disallowed_methods,
    reason = "the engine times itself for CampaignStats; wall time never reaches a result"
)]
pub(crate) fn run_ordered<U, R>(
    threads: usize,
    units: impl IntoIterator<Item = U, IntoIter: Send>,
    work: impl Fn(U) -> UnitOutput<R> + Sync,
) -> (Vec<R>, CampaignStats)
where
    R: Send,
{
    let threads = threads.max(1);
    let source = Mutex::new(units.into_iter().fuse().enumerate());
    let collected: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let totals: Mutex<CampaignStats> = Mutex::new(CampaignStats::default());

    let wall0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut claim_secs = 0.0;
                loop {
                    // A poisoned lock means a claim panicked: stop.
                    let Ok(mut source) = source.lock() else { break };
                    let c0 = Instant::now();
                    let claimed = source.next();
                    claim_secs += c0.elapsed().as_secs_f64();
                    drop(source);
                    let Some((index, unit)) = claimed else { break };
                    let out = work(unit);
                    lock(&totals).merge(&out.stats);
                    lock(&collected).push((index, out.results));
                }
                lock(&totals).produce_secs += claim_secs;
            });
        }
    });

    let mut collected = collected.into_inner().unwrap_or_else(PoisonError::into_inner);
    collected.sort_unstable_by_key(|&(index, _)| index);
    debug_assert!(collected.iter().enumerate().all(|(i, (idx, _))| i == *idx));

    let units = collected.len() as u64;
    let results: Vec<R> = collected.into_iter().flat_map(|(_, r)| r).collect();
    let stats = CampaignStats {
        threads,
        units,
        trials: results.len() as u64,
        wall_secs: wall0.elapsed().as_secs_f64(),
        ..totals.into_inner().unwrap_or_else(PoisonError::into_inner)
    };
    (results, stats)
}

/// Locks `m`, ignoring poisoning: a worker that panicked holding a lock
/// is propagated by the thread scope, and what the lock guards is only
/// read after every worker has stopped.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_unit(u: u32) -> UnitOutput<u32> {
        UnitOutput {
            results: vec![u * 2, u * 2 + 1],
            stats: CampaignStats {
                sweep_secs: 0.005,
                golden_secs: 0.01,
                trial_secs: 0.02,
                checkpoint_hits: u64::from(u.is_multiple_of(2)),
                checkpoint_misses: u64::from(!u.is_multiple_of(2)),
                warmup_cycles_saved: 10,
                cycles_simulated: 100,
                cycles_saved: 50,
                trials_cut: 1,
                trials_pruned: 1,
                cycles_pruned: 25,
                trials_interval_pruned: 1,
                trials_cached: 1,
                cycles_cached: 40,
                ..CampaignStats::default()
            },
        }
    }

    #[test]
    fn results_come_back_in_emission_order() {
        for threads in [1, 2, 4, 8] {
            let (results, stats) = run_ordered(threads, 0..57u32, |u| {
                // Stagger work so completion order scrambles.
                if u % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                double_unit(u)
            });
            let expect: Vec<u32> = (0..57u32).flat_map(|u| [u * 2, u * 2 + 1]).collect();
            assert_eq!(results, expect, "threads={threads}");
            assert_eq!(stats.units, 57);
            assert_eq!(stats.trials, 114);
            assert_eq!(stats.threads, threads);
            assert!(stats.sweep_secs > 0.0 && stats.golden_secs > 0.0 && stats.trial_secs > 0.0);
            assert_eq!(stats.cycles_simulated, 57 * 100);
            assert_eq!(stats.cycles_saved, 57 * 50);
            assert_eq!(stats.trials_cut, 57);
            assert_eq!(stats.trials_pruned, 57);
            assert_eq!(stats.cycles_pruned, 57 * 25);
            assert_eq!(stats.trials_interval_pruned, stats.trials_pruned);
            assert_eq!(stats.shadow_runs, 0);
            assert_eq!(stats.checkpoint_hits, 29, "even unit indices 0..57");
            assert_eq!(stats.checkpoint_misses, 28);
            assert_eq!(stats.checkpoint_hits + stats.checkpoint_misses, stats.units);
            assert_eq!(stats.warmup_cycles_saved, 57 * 10);
            assert_eq!(stats.trials_cached, 57);
            assert_eq!(stats.cycles_cached, 57 * 40);
            assert!((stats.cycles_saved_fraction() - 1.0 / 3.0).abs() < 1e-12);
            let line = stats.to_string();
            assert!(line.contains("cutoff ended 57/114 trials early"), "{line}");
            assert!(
                line.contains("liveness oracle pruned 57/114 trials, skipping 1425 window cycles"),
                "{line}"
            );
            assert!(line.contains("trial mix: 0% simulated / 50% cut / 50% pruned"), "{line}");
            assert!(line.contains("checkpoints served 57 units (29 warm / 28 cold)"), "{line}");
            assert!(line.contains("skipping 570 warm-up cycles"), "{line}");
            assert!(line.contains("trial store served 57 trials, replaying 2280"), "{line}");
            assert!(!line.contains("masking maps"), "no maps resolved, no clause: {line}");
        }
    }

    /// The map clause trails every other clause, whose text it leaves
    /// untouched, and appears once a map was built or loaded.
    #[test]
    fn map_clause_trails_the_stats_line() {
        let base = CampaignStats {
            threads: 2,
            units: 10,
            trials: 40,
            wall_secs: 10.0,
            trials_pruned: 27,
            cycles_pruned: 176_343,
            ..CampaignStats::default()
        };
        let with_maps = CampaignStats { maskmap_secs: 9.5, maps_built: 6, maps_loaded: 1, ..base };
        let (line, plain) = (with_maps.to_string(), base.to_string());
        assert_eq!(line, format!("{plain}; masking maps: 6 built, 1 loaded in 9.50s"));
        assert!(line.starts_with("40 trials over 10 units on 2 threads in 10.00s"), "{line}");
    }

    /// Merging per-shard stats reproduces the single-run stats exactly:
    /// the seconds here split without rounding (dyadic fractions), so
    /// even the float fields — and therefore the `Display` line — must
    /// come back bit-identical.
    #[test]
    fn merging_shard_stats_reproduces_the_single_run() {
        let single = CampaignStats {
            threads: 4,
            units: 57,
            trials: 114,
            wall_secs: 3.75,
            produce_secs: 1.5,
            sweep_secs: 0.5,
            golden_secs: 2.25,
            trial_secs: 6.0,
            checkpoint_hits: 29,
            checkpoint_misses: 28,
            warmup_cycles_saved: 570,
            cycles_simulated: 5_700,
            cycles_saved: 2_850,
            trials_cut: 57,
            trials_pruned: 57,
            cycles_pruned: 1_425,
            trials_interval_pruned: 57,
            shadow_runs: 0,
            trials_cached: 57,
            cycles_cached: 2_280,
            maskmap_secs: 4.5,
            maps_built: 6,
            maps_loaded: 3,
        };
        // Three shards: counters split 19/19/19 (and 1.25s/0.5s/… for
        // the times); every field of `single` is divisible that way.
        let shard = |units: u64, hits, wall, produce, sweep, golden, trial, built| CampaignStats {
            threads: 4,
            units,
            trials: units * 2,
            wall_secs: wall,
            produce_secs: produce,
            sweep_secs: sweep,
            golden_secs: golden,
            trial_secs: trial,
            checkpoint_hits: hits,
            checkpoint_misses: units - hits,
            warmup_cycles_saved: units * 10,
            cycles_simulated: units * 100,
            cycles_saved: units * 50,
            trials_cut: units,
            trials_pruned: units,
            cycles_pruned: units * 25,
            trials_interval_pruned: units,
            shadow_runs: 0,
            trials_cached: units,
            cycles_cached: units * 40,
            maskmap_secs: 1.5,
            maps_built: built,
            maps_loaded: 1,
        };
        let shards = [
            shard(19, 10, 1.25, 0.5, 0.25, 0.75, 2.0, 3),
            shard(19, 10, 1.25, 0.5, 0.125, 0.75, 2.0, 2),
            shard(19, 9, 1.25, 0.5, 0.125, 0.75, 2.0, 1),
        ];
        let mut merged = CampaignStats::default();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged, single, "shard merge must be exact, floats included");
        assert_eq!(merged.to_string(), single.to_string());
        // Merge order cannot matter.
        let mut reversed = CampaignStats::default();
        for s in shards.iter().rev() {
            reversed.merge(s);
        }
        assert_eq!(reversed, single);
    }

    /// Units are claimed strictly in iterator order, and the claims and
    /// the work on them run on at most `threads` distinct threads: the
    /// calling thread claims nothing and runs nothing.
    #[test]
    fn claims_follow_iterator_order_on_at_most_threads_threads() {
        use std::thread::{self, ThreadId};
        for threads in [1, 2, 4] {
            let claims: Mutex<Vec<(u32, ThreadId)>> = Mutex::new(Vec::new());
            let workers: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
            let units = (0..200u32).inspect(|&u| lock(&claims).push((u, thread::current().id())));
            let (results, stats) = run_ordered(threads, units, |u| {
                lock(&workers).push(thread::current().id());
                if u % 7 == 0 {
                    thread::sleep(std::time::Duration::from_micros(100));
                }
                double_unit(u)
            });
            let claims = claims.into_inner().unwrap();
            let order: Vec<u32> = claims.iter().map(|&(u, _)| u).collect();
            assert_eq!(order, (0..200).collect::<Vec<_>>(), "threads={threads}");
            let seen: std::collections::HashSet<ThreadId> =
                claims.iter().map(|&(_, t)| t).chain(workers.into_inner().unwrap()).collect();
            assert!(seen.len() <= threads, "{} threads busy at threads={threads}", seen.len());
            assert!(!seen.contains(&thread::current().id()), "the caller only waits");
            assert_eq!(results.len(), 400);
            assert_eq!(stats.units, 200);
            assert!(stats.produce_secs > 0.0, "claims are timed");
        }
    }

    /// A campaign whose every unit panics, or whose unit iterator panics
    /// mid-campaign, fails as a whole within a minute: the scope
    /// propagates the panic once the other workers stop, and no worker
    /// claims past a panicked claim.
    #[test]
    fn panicking_workers_fail_the_producer_instead_of_deadlocking() {
        fn fails_within_a_minute(
            run: impl FnOnce() -> (Vec<u32>, CampaignStats) + Send + std::panic::UnwindSafe + 'static,
        ) {
            let campaign = std::thread::spawn(move || {
                std::panic::catch_unwind(run).err().and_then(|e| e.downcast_ref::<&str>().copied())
            });
            // 6,000 polls 10 ms apart: a minute.
            for _ in 0..6_000 {
                if campaign.is_finished() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            assert!(
                campaign.is_finished(),
                "the campaign is still running a minute after it failed"
            );
            let message = campaign.join().expect("the campaign's panic was caught");
            assert_eq!(message, Some("a scoped thread panicked"));
        }
        fails_within_a_minute(|| {
            run_ordered(2, 0..1_000u32, |_: u32| -> UnitOutput<u32> { panic!("worker failure") })
        });
        fails_within_a_minute(|| {
            let units = (0..1_000u32).inspect(|&u| assert!(u != 9, "claim failure"));
            run_ordered(2, units, double_unit)
        });
    }

    #[test]
    fn empty_campaign_is_fine() {
        let (results, stats) = run_ordered(4, std::iter::empty(), double_unit);
        assert!(results.is_empty());
        assert_eq!(stats.units, 0);
        assert_eq!(stats.trials_per_sec(), 0.0);
    }

    #[test]
    fn effective_threads_resolution_order() {
        assert_eq!(effective_threads(3), 3, "explicit request wins");
        let auto = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        assert_eq!(effective_threads(0), auto, "0 is the available parallelism");
    }
}
