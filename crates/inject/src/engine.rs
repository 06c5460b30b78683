//! Parallel campaign engine: a bounded work-unit pipeline with
//! deterministic reassembly.
//!
//! Both campaign types decompose the same way: a **serial sweeper** (the
//! producer) advances one simulator forward through pre-selected
//! injection points — inherently ordered work, since reaching cycle *c*
//! requires simulating cycles *0..c* — and at each point forks a cheap
//! snapshot into a bounded channel. A pool of scoped **workers** drains
//! the channel, runs the expensive part (golden run + trials, ~10⁴
//! cycles each) against the snapshot, and tags results with the unit's
//! plan index. Reassembly sorts by that index, so output order is the
//! campaign *plan* order `(workload, point, trial)` regardless of worker
//! interleaving; combined with per-unit seeding ([`crate::seeding`])
//! the full trial vector is bit-identical at every thread count.
//!
//! The channel bound keeps at most a few pipeline snapshots in flight,
//! so memory stays O(threads), and it applies backpressure to the
//! sweeper instead of letting it race ahead. `--threads 1` is the same
//! engine with one worker, not a separate code path.

use crossbeam::channel;
use parking_lot::Mutex;
use std::fmt;
use std::time::Instant;

/// Resolves a requested worker count: an explicit request wins, then the
/// `RESTORE_THREADS` environment variable, then the machine's available
/// parallelism.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("RESTORE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
}

/// Resolves a campaign's checkpoint stride: an explicit non-default
/// request would be set on the config directly, so this only arbitrates
/// between the `RESTORE_CKPT_STRIDE` environment variable and the
/// model's default. `0` disables the golden checkpoint library (the
/// producer falls back to the historical serial sweep) and is a valid
/// explicit setting, so — unlike [`effective_threads`] — zero from the
/// environment is honoured, not treated as "unset".
pub fn effective_ckpt_stride(default: u64) -> u64 {
    std::env::var("RESTORE_CKPT_STRIDE").ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or(default)
}

/// Throughput instrumentation for one campaign run.
///
/// Stage seconds are *summed across workers*, so on `t` threads
/// `golden_secs + trial_secs` can approach `t × wall_secs`; the ratio of
/// the two is the parallel efficiency. `produce_secs` is the sweeper's
/// wall time and includes any backpressure waits on the full channel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignStats {
    /// Worker threads used.
    pub threads: usize,
    /// Work units (injection points) executed.
    pub units: u64,
    /// Trials produced.
    pub trials: u64,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// Sweeper (producer) wall seconds, including channel backpressure.
    pub produce_secs: f64,
    /// Worker seconds spent sweeping materialized machines from their
    /// checkpoint to the injection coordinate (the residual O(stride)
    /// walk), summed across workers. Zero when the checkpoint library is
    /// off — the serial producer pays the whole sweep in `produce_secs`.
    pub sweep_secs: f64,
    /// Worker seconds spent on golden runs, summed across workers.
    pub golden_secs: f64,
    /// Worker seconds spent on injected trials, summed across workers.
    pub trial_secs: f64,
    /// Units served from a checkpoint captured before this campaign
    /// started (warm library reuse across campaigns in one process).
    pub checkpoint_hits: u64,
    /// Units whose serving checkpoint was captured by this campaign's
    /// own frontier extension (cold capture).
    pub checkpoint_misses: u64,
    /// Golden warm-up cycles the library's warm checkpoints skipped:
    /// the sum over hit units of their serving checkpoint's coordinate.
    /// A serial sweep (or a cold library) re-simulates these.
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

    /// One-line human summary for progress logs (same text as the
    /// [`fmt::Display`] impl).
    pub fn summary(&self) -> String {
        self.to_string()
    }

    /// Folds another run's stats into this one — the shard-merge
    /// operation. Counters sum exactly; stage seconds sum (so a merged
    /// `wall_secs` is the *sequential-equivalent* wall time of the
    /// shards, not the elapsed time of a concurrent fleet); `threads`
    /// takes the maximum, matching what a single run at that width
    /// would report. Merging the per-shard stats of a sharded campaign
    /// reproduces the single cold run's counters exactly — proved by
    /// `tests/store_equivalence.rs`.
    pub fn merge(&mut self, other: &CampaignStats) {
        self.threads = self.threads.max(other.threads);
        self.units += other.units;
        self.trials += other.trials;
        self.wall_secs += other.wall_secs;
        self.produce_secs += other.produce_secs;
        self.sweep_secs += other.sweep_secs;
        self.golden_secs += other.golden_secs;
        self.trial_secs += other.trial_secs;
        self.checkpoint_hits += other.checkpoint_hits;
        self.checkpoint_misses += other.checkpoint_misses;
        self.warmup_cycles_saved += other.warmup_cycles_saved;
        self.cycles_simulated += other.cycles_simulated;
        self.cycles_saved += other.cycles_saved;
        self.trials_cut += other.trials_cut;
        self.trials_pruned += other.trials_pruned;
        self.cycles_pruned += other.cycles_pruned;
        self.trials_interval_pruned += other.trials_interval_pruned;
        self.shadow_runs += other.shadow_runs;
        self.trials_cached += other.trials_cached;
        self.cycles_cached += other.cycles_cached;
    }
}

/// One-line human summary: throughput, stage times, and — when the
/// optimisations fired — the cutoff/pruning breakdown plus the trial
/// mix (fully simulated vs. cut vs. pruned).
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
        Ok(())
    }
}

/// What a worker hands back for one unit.
pub(crate) struct UnitOutput<R> {
    /// The unit's results, in the unit's own deterministic order.
    pub results: Vec<R>,
    /// Seconds spent sweeping from the unit's checkpoint to its
    /// injection coordinate.
    pub sweep_secs: f64,
    /// Seconds spent establishing the golden reference.
    pub golden_secs: f64,
    /// Seconds spent running injected trials.
    pub trial_secs: f64,
    /// 1 when this unit was served from a pre-campaign (warm)
    /// checkpoint, 0 for a cold capture or the serial producer.
    pub checkpoint_hits: u64,
    /// 1 when this unit's checkpoint was captured cold by this
    /// campaign, 0 otherwise.
    pub checkpoint_misses: u64,
    /// Warm-up cycles the unit's warm checkpoint skipped.
    pub warmup_cycles_saved: u64,
    /// Trial window cycles simulated in this unit.
    pub cycles_simulated: u64,
    /// Trial window cycles skipped by the reconvergence cutoff.
    pub cycles_saved: u64,
    /// Trials this unit cut short at a fingerprint match.
    pub trials_cut: u64,
    /// Trials this unit classified via the masking-interval map.
    pub trials_pruned: u64,
    /// Trial window cycles the pruned trials would have needed.
    pub cycles_pruned: u64,
    /// Trials this unit served from the trial store.
    pub trials_cached: u64,
    /// Planned window cycles those cached trials replayed.
    pub cycles_cached: u64,
}

/// An empty unit: no results, zero time, zero cycle accounting. (Not
/// derived — that would demand `R: Default` for no reason.)
impl<R> Default for UnitOutput<R> {
    fn default() -> Self {
        UnitOutput {
            results: Vec::new(),
            sweep_secs: 0.0,
            golden_secs: 0.0,
            trial_secs: 0.0,
            checkpoint_hits: 0,
            checkpoint_misses: 0,
            warmup_cycles_saved: 0,
            cycles_simulated: 0,
            cycles_saved: 0,
            trials_cut: 0,
            trials_pruned: 0,
            cycles_pruned: 0,
            trials_cached: 0,
            cycles_cached: 0,
        }
    }
}

/// Fans units out over `threads` scoped workers and reassembles results
/// in emission order.
///
/// `produce` runs on the calling thread and receives an `emit` callback;
/// every emitted unit is processed by `work` on some worker, and the
/// flattened results are returned ordered by emission index. `work` runs
/// concurrently with `produce`, so a unit emitted while the sweeper is
/// still advancing may already be complete.
pub(crate) fn run_ordered<U, R>(
    threads: usize,
    produce: impl FnOnce(&mut dyn FnMut(U)),
    work: impl Fn(U) -> UnitOutput<R> + Sync,
) -> (Vec<R>, CampaignStats)
where
    U: Send,
    R: Send,
{
    let threads = threads.max(1);
    // 2× bound: enough slack that workers never starve while the sweeper
    // advances to the next point, small enough that snapshot memory
    // stays O(threads).
    let (tx, rx) = channel::bounded::<(usize, U)>(threads * 2);
    let collected: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let stage_secs: Mutex<(f64, f64, f64)> = Mutex::new((0.0, 0.0, 0.0));
    let cycle_counts: Mutex<[u64; 10]> = Mutex::new([0; 10]);

    let wall0 = Instant::now();
    let mut produce_secs = 0.0;
    let mut units = 0usize;

    std::thread::scope(|s| {
        for _ in 0..threads {
            let rx = rx.clone();
            let work = &work;
            let collected = &collected;
            let stage_secs = &stage_secs;
            let cycle_counts = &cycle_counts;
            s.spawn(move || {
                for (index, unit) in rx {
                    let out = work(unit);
                    {
                        let mut st = stage_secs.lock();
                        st.0 += out.sweep_secs;
                        st.1 += out.golden_secs;
                        st.2 += out.trial_secs;
                    }
                    {
                        let mut cc = cycle_counts.lock();
                        cc[0] += out.cycles_simulated;
                        cc[1] += out.cycles_saved;
                        cc[2] += out.trials_cut;
                        cc[3] += out.trials_pruned;
                        cc[4] += out.cycles_pruned;
                        cc[5] += out.checkpoint_hits;
                        cc[6] += out.checkpoint_misses;
                        cc[7] += out.warmup_cycles_saved;
                        cc[8] += out.trials_cached;
                        cc[9] += out.cycles_cached;
                    }
                    collected.lock().push((index, out.results));
                }
            });
        }
        drop(rx);

        let p0 = Instant::now();
        let mut emit = |unit: U| {
            // Workers only exit once all senders drop, so send cannot
            // fail unless a worker panicked — propagate that instead of
            // deadlocking.
            if tx.send((units, unit)).is_err() {
                panic!("campaign worker pool shut down early");
            }
            units += 1;
        };
        produce(&mut emit);
        produce_secs = p0.elapsed().as_secs_f64();
        drop(tx);
    });

    let mut collected = collected.into_inner();
    collected.sort_unstable_by_key(|&(index, _)| index);
    debug_assert!(collected.iter().enumerate().all(|(i, (idx, _))| i == *idx));

    let (sweep_secs, golden_secs, trial_secs) = stage_secs.into_inner();
    let [cycles_simulated, cycles_saved, trials_cut, trials_pruned, cycles_pruned, checkpoint_hits, checkpoint_misses, warmup_cycles_saved, trials_cached, cycles_cached] =
        cycle_counts.into_inner();
    let results: Vec<R> = collected.into_iter().flat_map(|(_, r)| r).collect();
    let stats = CampaignStats {
        threads,
        units: units as u64,
        trials: results.len() as u64,
        wall_secs: wall0.elapsed().as_secs_f64(),
        produce_secs,
        sweep_secs,
        golden_secs,
        trial_secs,
        cycles_simulated,
        cycles_saved,
        trials_cut,
        trials_pruned,
        cycles_pruned,
        trials_interval_pruned: trials_pruned,
        shadow_runs: 0,
        checkpoint_hits,
        checkpoint_misses,
        warmup_cycles_saved,
        trials_cached,
        cycles_cached,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_unit(u: u32) -> UnitOutput<u32> {
        UnitOutput {
            results: vec![u * 2, u * 2 + 1],
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
            trials_cached: 1,
            cycles_cached: 40,
        }
    }

    #[test]
    fn results_come_back_in_emission_order() {
        for threads in [1, 2, 4, 8] {
            let (results, stats) = run_ordered(
                threads,
                |emit| (0..57u32).for_each(emit),
                |u| {
                    // Stagger work so completion order scrambles.
                    if u % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    double_unit(u)
                },
            );
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
            assert_eq!(line, stats.summary());
            assert!(line.contains("cutoff ended 57/114 trials early"), "{line}");
            assert!(
                line.contains("liveness oracle pruned 57/114 trials, skipping 1425 window cycles"),
                "{line}"
            );
            assert!(line.contains("trial mix: 0% simulated / 50% cut / 50% pruned"), "{line}");
            assert!(line.contains("checkpoints served 57 units (29 warm / 28 cold)"), "{line}");
            assert!(line.contains("skipping 570 warm-up cycles"), "{line}");
            assert!(line.contains("trial store served 57 trials, replaying 2280"), "{line}");
        }
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
        };
        // Three shards: counters split 19/19/19 (and 1.25s/0.5s/… for
        // the times); every field of `single` is divisible that way.
        let shard = |units: u64, hits, wall, produce, sweep, golden, trial| CampaignStats {
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
        };
        let shards = [
            shard(19, 10, 1.25, 0.5, 0.25, 0.75, 2.0),
            shard(19, 10, 1.25, 0.5, 0.125, 0.75, 2.0),
            shard(19, 9, 1.25, 0.5, 0.125, 0.75, 2.0),
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

    #[test]
    fn empty_campaign_is_fine() {
        let (results, stats) = run_ordered(4, |_emit| {}, double_unit);
        assert!(results.is_empty());
        assert_eq!(stats.units, 0);
        assert_eq!(stats.trials_per_sec(), 0.0);
    }

    #[test]
    fn effective_threads_resolution_order() {
        assert_eq!(effective_threads(3), 3, "explicit request wins");
        assert!(effective_threads(0) >= 1, "auto resolves to something");
    }

    #[test]
    fn effective_ckpt_stride_defaults_without_env() {
        // Setting the variable here would race every concurrently
        // running test whose config `Default` reads it, so only the
        // unset path is asserted in-process; the CLI tests cover
        // explicit values, including zero (= library off).
        if std::env::var_os("RESTORE_CKPT_STRIDE").is_none() {
            assert_eq!(effective_ckpt_stride(2_000), 2_000);
            assert_eq!(effective_ckpt_stride(0), 0);
        }
    }
}
