//! The ReStore controller: pipeline + checkpoints + symptom detectors +
//! rollback/re-execution orchestration (§2, §3.2).
//!
//! Execution proceeds normally while the controller takes a checkpoint
//! every `interval` retired instructions (and at synchronisation events).
//! When an armed symptom fires, the controller restores the **older**
//! checkpoint (registers, PC, and memory via the undo log) and
//! re-executes. During re-execution the branch-outcome event log compares
//! the two executions: a divergence is a *detected* soft error; an
//! exception that recurs at the same instruction is genuine and is
//! delivered.

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::event_log::{EventLog, LogCheck};
use crate::symptom::{Symptom, SymptomConfig};
use restore_arch::Exception;
use restore_isa::{Inst, PalFunc};
use restore_uarch::{Pipeline, Stop};

/// Tuning knobs for the ReStore mechanism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreConfig {
    /// Checkpoint interval in retired instructions (paper: 10–1000,
    /// evaluated around 100).
    pub interval: u64,
    /// Armed symptom detectors.
    pub symptoms: SymptomConfig,
    /// Consecutive rollbacks to the same checkpoint before a recurring
    /// exception is declared genuine ("an implementation … may elect to
    /// re-execute a third time", §3.2.3).
    pub max_rollbacks_per_window: u32,
    /// Dynamic throttle (§3.2.3): if more than this fraction of recent
    /// cfv rollbacks were false positives, cfv symptoms are ignored for a
    /// while. `1.0` disables throttling.
    pub throttle_threshold: f64,
    /// Window (rollback count) over which the false-positive rate is
    /// estimated.
    pub throttle_window: u32,
    /// Instructions for which cfv symptoms stay suppressed once the
    /// throttle trips.
    pub throttle_hold: u64,
}

impl Default for RestoreConfig {
    fn default() -> Self {
        RestoreConfig {
            interval: 100,
            symptoms: SymptomConfig::paper(),
            max_rollbacks_per_window: 3,
            throttle_threshold: 0.75,
            throttle_window: 8,
            throttle_hold: 10_000,
        }
    }
}

/// Aggregate statistics of a controller run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks triggered, total.
    pub rollbacks: u64,
    /// Rollbacks triggered by exception symptoms.
    pub rollbacks_exception: u64,
    /// Rollbacks triggered by cfv symptoms.
    pub rollbacks_cfv: u64,
    /// Rollbacks triggered by the watchdog.
    pub rollbacks_watchdog: u64,
    /// Rollbacks triggered by cache-miss symptoms (§3.3 ablation).
    pub rollbacks_cache: u64,
    /// Soft errors *detected* via event-log divergence during
    /// re-execution.
    pub detected_errors: u64,
    /// Rollbacks that re-executed to the symptom point without
    /// divergence or recurrence (false positives).
    pub false_positives: u64,
    /// cfv symptoms ignored while the throttle was engaged.
    pub throttled_symptoms: u64,
    /// Instructions retired (architecturally useful, after dedup of
    /// re-executed work).
    pub useful_retired: u64,
    /// Instructions retired including re-execution (raw pipeline work).
    pub total_retired: u64,
}

/// Terminal outcome of [`RestoreController::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// Program halted normally.
    Halted,
    /// A genuine (recurring) exception was delivered.
    GenuineException(Exception),
    /// The cycle budget ran out.
    BudgetExhausted,
    /// Unrecoverable: rollback limit exceeded without forward progress.
    Unrecoverable,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Normal,
    /// Re-executing after a rollback; holds the global retired index at
    /// which the triggering symptom fired and what it was.
    Reexec {
        symptom_at: u64,
        was_exception: bool,
    },
}

/// Drives a [`Pipeline`] under the ReStore architecture.
#[derive(Debug)]
pub struct RestoreController {
    pipe: Pipeline,
    cfg: RestoreConfig,
    ckpts: CheckpointStore,
    log: EventLog,
    mode: Mode,
    stats: RestoreStats,
    /// Retired count of the last checkpoint boundary.
    next_checkpoint_at: u64,
    /// Global retired index (architectural position, monotone through
    /// rollbacks — rollback rewinds it).
    arch_retired: u64,
    /// High-water mark of `arch_retired` (useful-progress accounting).
    high_water: u64,
    rollbacks_this_window: u32,
    /// Recent cfv rollback outcomes: `true` = false positive.
    cfv_history: Vec<bool>,
    throttle_until: u64,
    /// Output values, deduplicated across re-execution.
    output: Vec<u64>,
}

impl RestoreController {
    /// Wraps a pipeline in the ReStore mechanism.
    pub fn new(pipe: Pipeline, cfg: RestoreConfig) -> RestoreController {
        let initial = Checkpoint { regs: pipe.arch_regs(), pc: pipe.retired_next_pc(), retired: 0 };
        RestoreController {
            pipe,
            cfg,
            ckpts: CheckpointStore::new(initial),
            log: EventLog::new(),
            mode: Mode::Normal,
            stats: RestoreStats::default(),
            next_checkpoint_at: cfg.interval,
            arch_retired: 0,
            high_water: 0,
            rollbacks_this_window: 0,
            cfv_history: Vec::new(),
            throttle_until: 0,
            output: Vec::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &RestoreStats {
        &self.stats
    }

    /// Program output (deduplicated across rollbacks).
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipe
    }

    /// Mutable pipeline access — used by fault-injection harnesses to
    /// flip a state bit mid-run.
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipe
    }

    /// Runs under ReStore for at most `max_cycles` pipeline clocks.
    pub fn run(&mut self, max_cycles: u64) -> RestoreOutcome {
        for _ in 0..max_cycles {
            match self.pipe.status() {
                Stop::Running => {}
                Stop::Halted => return RestoreOutcome::Halted,
                // Exceptions/deadlocks are handled below, at the cycle
                // that reported them; reaching here means they were
                // delivered as genuine.
                Stop::Exception(e) => return RestoreOutcome::GenuineException(e),
                Stop::Deadlock => return RestoreOutcome::Unrecoverable,
            }
            let report = self.pipe.cycle();

            // Account retired work, event log, undo records, output.
            let mut out_iter = report.output.iter();
            for r in &report.retired {
                self.arch_retired += 1;
                self.stats.total_retired += 1;
                let is_new = self.arch_retired > self.high_water;
                if is_new {
                    self.high_water = self.arch_retired;
                    self.stats.useful_retired += 1;
                }
                if let Inst::Pal(PalFunc::Outq | PalFunc::Putc) = r.inst {
                    if let Some(&v) = out_iter.next() {
                        // Replayed outputs (at or below the high-water
                        // mark) were already logged the first time.
                        if is_new {
                            self.output.push(v);
                        }
                    }
                }
                match self.mode {
                    Mode::Normal => {
                        self.log.record(self.arch_retired, r);
                    }
                    Mode::Reexec { symptom_at, was_exception } => {
                        match self.log.check(self.arch_retired, r) {
                            LogCheck::Consistent => {}
                            LogCheck::Divergence { .. } => {
                                // Soft error detected: one of the two
                                // executions was corrupted. Trust the
                                // current one (it started from a clean
                                // checkpoint) and resume normal mode.
                                self.stats.detected_errors += 1;
                                self.note_cfv_outcome(false);
                                self.exit_reexec();
                            }
                            LogCheck::Exhausted => {}
                        }
                        if let Mode::Reexec { .. } = self.mode {
                            // Exceptions fire *at* the symptom offset (the
                            // faulting instruction never retires), so the
                            // re-execution window for them extends one
                            // instruction further.
                            let done = if was_exception {
                                self.arch_retired > symptom_at
                            } else {
                                self.arch_retired >= symptom_at
                            };
                            if done {
                                if !was_exception {
                                    self.stats.false_positives += 1;
                                    self.note_cfv_outcome(true);
                                } else {
                                    // Exception vanished on re-execution:
                                    // a detected+recovered soft error.
                                    self.stats.detected_errors += 1;
                                }
                                self.exit_reexec();
                            }
                        }
                    }
                }
            }
            for u in &report.store_undo {
                self.ckpts.record_store(*u);
            }

            // Checkpoint boundary (plus forced sync events, §2.1).
            let boundary = self.arch_retired >= self.next_checkpoint_at
                || (report.sync_retired && self.mode == Mode::Normal);
            if boundary && self.mode == Mode::Normal && self.pipe.status() == Stop::Running {
                self.take_checkpoint();
            }

            // Symptom detection and rollback.
            let symptoms = self.cfg.symptoms.detect(&report);
            if let Some(symptom) = self.select_symptom(&symptoms) {
                match self.mode {
                    Mode::Reexec { symptom_at, was_exception }
                        if was_exception
                            && matches!(symptom, Symptom::Exception(_))
                            && self.arch_retired >= symptom_at =>
                    {
                        // Recurred at/after the original point: genuine.
                        if let Symptom::Exception(e) = symptom {
                            return RestoreOutcome::GenuineException(e);
                        }
                    }
                    _ => {
                        if self.rollbacks_this_window >= self.cfg.max_rollbacks_per_window {
                            return match symptom {
                                Symptom::Exception(e) => RestoreOutcome::GenuineException(e),
                                _ => RestoreOutcome::Unrecoverable,
                            };
                        }
                        self.rollback(symptom);
                    }
                }
            }
        }
        RestoreOutcome::BudgetExhausted
    }

    fn select_symptom(&mut self, symptoms: &[Symptom]) -> Option<Symptom> {
        for &s in symptoms {
            match s {
                Symptom::HighConfidenceMispredict { .. } | Symptom::CacheMiss => {
                    // §5.2.3: during re-execution the event log provides
                    // perfect control-flow prediction (and replayed
                    // misses hit), so these symptoms must not re-fire and
                    // trigger nested rollbacks.
                    if matches!(self.mode, Mode::Reexec { .. }) {
                        continue;
                    }
                    if self.arch_retired < self.throttle_until {
                        self.stats.throttled_symptoms += 1;
                        continue;
                    }
                    return Some(s);
                }
                _ => return Some(s),
            }
        }
        None
    }

    fn note_cfv_outcome(&mut self, false_positive: bool) {
        self.cfv_history.push(false_positive);
        let w = self.cfg.throttle_window as usize;
        if self.cfv_history.len() > w {
            let excess = self.cfv_history.len() - w;
            self.cfv_history.drain(..excess);
        }
        if self.cfv_history.len() == w {
            let fp = self.cfv_history.iter().filter(|&&b| b).count() as f64 / w as f64;
            if fp >= self.cfg.throttle_threshold {
                self.throttle_until = self.arch_retired + self.cfg.throttle_hold;
                self.cfv_history.clear();
            }
        }
    }

    fn exit_reexec(&mut self) {
        self.mode = Mode::Normal;
        self.pipe.set_confidence_training(true);
        self.log.clear();
        self.rollbacks_this_window = 0;
    }

    fn take_checkpoint(&mut self) {
        let ck = Checkpoint {
            regs: self.pipe.arch_regs(),
            pc: self.pipe.retired_next_pc(),
            retired: self.arch_retired,
        };
        self.ckpts.take(ck);
        self.log.advance_interval();
        self.stats.checkpoints += 1;
        self.next_checkpoint_at = self.arch_retired + self.cfg.interval;
        self.rollbacks_this_window = 0;
    }

    fn rollback(&mut self, symptom: Symptom) {
        self.stats.rollbacks += 1;
        let was_exception = match symptom {
            Symptom::Exception(_) => {
                self.stats.rollbacks_exception += 1;
                true
            }
            Symptom::HighConfidenceMispredict { .. } => {
                self.stats.rollbacks_cfv += 1;
                false
            }
            Symptom::Watchdog => {
                self.stats.rollbacks_watchdog += 1;
                false
            }
            Symptom::CacheMiss => {
                self.stats.rollbacks_cache += 1;
                false
            }
        };
        let symptom_at = self.arch_retired;
        let ck = self.ckpts.rollback(self.pipe.memory_mut());
        self.pipe.restore_checkpoint(&ck.regs, ck.pc);
        self.arch_retired = ck.retired;
        self.log.rewind();
        self.pipe.set_confidence_training(false);
        self.mode = Mode::Reexec { symptom_at, was_exception };
        self.rollbacks_this_window += 1;
        self.next_checkpoint_at = ck.retired + self.cfg.interval;
    }
}
