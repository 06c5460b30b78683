//! The pluggable `SymptomSource` detector layer.
//!
//! ReStore's detectors were originally scattered: the live pipeline
//! monitor ([`crate::RestoreController`]) matched on [`CycleReport`]
//! fields through [`SymptomConfig`], while the two fault-injection
//! campaign monitors each re-implemented exception/watchdog/cfv/
//! mispredict bookkeeping inline. This module turns every detector into
//! an instance of one trait:
//!
//! * [`SymptomSource::observe`] consumes domain-neutral [`Observation`]
//!   events (a retired-stream comparison against golden, a fault-novel
//!   misprediction, an exception, watchdog saturation, a memory-effect
//!   mismatch) and reports the latency of the source's *first firing*;
//! * [`SymptomSource::live`] is the on-line face of the same detector:
//!   it scans one [`CycleReport`] — no golden run available — and emits
//!   [`Symptom`] occurrences for the rollback controller;
//! * [`SymptomSource::overhead`] is the static cost model ([`Overhead`]):
//!   extra instructions executed, detector table bits, and extra state
//!   each checkpoint must carry.
//!
//! Sources register in a [`DetectorSet`]; both the architectural and the
//! microarchitectural trial monitors drive their sets through one shared
//! observation loop, and the sweep binary reads coverage/overhead off
//! the same instances. Two of the sources are *software-only* detectors
//! from the Azambuja et al. SEU/SET hardening toolbox — control-flow
//! signature checking ([`SignatureSource`]) and selective variable
//! duplication ([`DupSource`]) — configured by [`DetectorConfig`], whose
//! knobs shape trial records and therefore fold into the campaign
//! digests.

use crate::symptom::{Symptom, SymptomConfig};
use core::fmt;
use restore_uarch::CycleReport;

/// The symptom class a [`SymptomSource`] reports under. One slot per
/// *observable* — the perfect-cfv, JRS-confidence and any-mispredict
/// detectors are distinct sources (a trial record keeps all three, so
/// detection models can be swept post-hoc).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymptomKind {
    /// Retirement watchdog saturation.
    Deadlock,
    /// An ISA-defined exception.
    Exception,
    /// Sustained control-flow divergence (perfect cfv identification).
    Cfv,
    /// A fault-novel high-confidence (JRS) misprediction.
    HcMispredict,
    /// A fault-novel misprediction of any confidence (the §5.2.1
    /// perfect-confidence-predictor ablation).
    AnyMispredict,
    /// Any dataflow divergence from golden (ground-truth observable,
    /// not a deployable detector).
    ValueDivergence,
    /// Control-flow signature block mismatch (software-only).
    Signature,
    /// Selective variable-duplication compare mismatch (software-only).
    Dup,
    /// A memory access with a corrupted address (architectural level).
    MemAddr,
    /// A store of corrupted data to a correct address.
    MemData,
    /// Data-cache miss (§3.3's cautionary generalised symptom).
    CacheMiss,
}

impl SymptomKind {
    /// Stable short name for reports and sweep labels.
    pub fn name(self) -> &'static str {
        match self {
            SymptomKind::Deadlock => "watchdog",
            SymptomKind::Exception => "exception",
            SymptomKind::Cfv => "cfv",
            SymptomKind::HcMispredict => "hc-mispredict",
            SymptomKind::AnyMispredict => "any-mispredict",
            SymptomKind::ValueDivergence => "value",
            SymptomKind::Signature => "signature",
            SymptomKind::Dup => "dup",
            SymptomKind::MemAddr => "mem-addr",
            SymptomKind::MemData => "mem-data",
            SymptomKind::CacheMiss => "cache-miss",
        }
    }
}

/// One retired instruction compared against the golden stream, as seen
/// by a trial monitor. All mismatch flags are relative to the golden
/// run; `value_mismatch` and the register fields are only meaningful on
/// an aligned stream (`pc_mismatch == false`), mirroring what a
/// software check embedded in the instruction stream could compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredCompare {
    /// Retired instructions since injection (1-based).
    pub latency: u64,
    /// The retired PC differs from the golden stream.
    pub pc_mismatch: bool,
    /// Any dataflow difference: register write, memory effect or halt
    /// status (aligned streams only).
    pub value_mismatch: bool,
    /// The register-write component of `value_mismatch` alone.
    pub reg_write_mismatch: bool,
    /// Destination register written by the trial's instruction, if any.
    pub trial_reg: Option<u8>,
    /// Destination register written by the golden instruction, if any.
    pub golden_reg: Option<u8>,
}

/// One domain-neutral event fed to every source of a [`DetectorSet`].
/// The architectural and microarchitectural monitors emit the subset
/// their fault model can observe; sources simply never fire on events
/// that never arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// A retired instruction compared against golden.
    Retired(RetiredCompare),
    /// A conditional misprediction not present in the golden run.
    /// `any` / `high_confidence` flag which event sets it was novel
    /// against (a key can be novel to the high-confidence set while a
    /// low-confidence golden mispredict shares it).
    NovelMispredict {
        /// Retired instructions since injection (1-based).
        latency: u64,
        /// Novel against *all* golden conditional mispredicts.
        any: bool,
        /// Novel against the golden high-confidence set.
        high_confidence: bool,
    },
    /// A spurious exception terminated the trial.
    Exception {
        /// Retired instructions since injection.
        latency: u64,
    },
    /// The retirement watchdog saturated.
    Deadlock {
        /// Retired instructions since injection.
        latency: u64,
    },
    /// A memory access used a corrupted address.
    MemAddrMismatch {
        /// Retired instructions since injection.
        latency: u64,
    },
    /// A store wrote corrupted data to a correct address.
    MemDataMismatch {
        /// Retired instructions since injection.
        latency: u64,
    },
    /// The fault was injected directly into an architectural register's
    /// write result (architectural campaigns only) — the one event a
    /// software duplicate-and-compare sees at the injection site itself.
    InjectedRegFlip {
        /// Destination register of the corrupted result.
        reg: u8,
        /// Latency at which the duplicate compare runs.
        latency: u64,
    },
}

/// Static overhead of keeping a detector armed: the axis the sweep
/// trades against coverage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Overhead {
    /// Extra dynamic instructions per original instruction (software
    /// detectors: signature updates, duplicated computation, compares).
    pub extra_instr_frac: f64,
    /// Dedicated detector storage in bits (confidence tables, signature
    /// registers).
    pub table_bits: u64,
    /// Extra state bits every checkpoint must additionally carry
    /// (shadow copies, signature registers live across a rollback).
    pub checkpoint_bits: u64,
}

impl Overhead {
    /// A free detector.
    pub const NONE: Overhead =
        Overhead { extra_instr_frac: 0.0, table_bits: 0, checkpoint_bits: 0 };

    /// Component-wise sum.
    #[allow(
        clippy::should_implement_trait,
        reason = "a named component-wise sum for folds; an `Add` impl would suggest arithmetic on a cost report"
    )]
    pub fn add(self, other: Overhead) -> Overhead {
        Overhead {
            extra_instr_frac: self.extra_instr_frac + other.extra_instr_frac,
            table_bits: self.table_bits + other.table_bits,
            checkpoint_bits: self.checkpoint_bits + other.checkpoint_bits,
        }
    }
}

/// How the cfv symptom is identified when classifying a trial record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfvMode {
    /// Perfect identification of incorrect control flow (Figure 4): any
    /// sustained divergence of retired control flow counts.
    Perfect,
    /// Realistic detection via JRS high-confidence mispredictions
    /// (Figure 5).
    HighConfidence,
    /// The §5.2.1 ablation: a perfect confidence predictor — every
    /// fault-induced misprediction counts ("a perfect confidence
    /// predictor would yield nearly twice the error coverage").
    AnyMispredict,
}

impl CfvMode {
    /// Resolves the effective cfv detection latency for this mode from
    /// a trial record's three cfv observables. This is the cfv
    /// detector's own model selection — classification then reads only
    /// `SymptomLatencies::first_within`, with no per-mode special case.
    pub fn resolve(self, perfect: Option<u64>, hc: Option<u64>, any: Option<u64>) -> Option<u64> {
        match self {
            CfvMode::Perfect => perfect,
            CfvMode::HighConfidence => hc,
            CfvMode::AnyMispredict => any,
        }
    }
}

/// Observation-time detector configuration. These knobs shape what a
/// trial *record* contains (the latencies the software-only sources
/// fire at), so both campaign digests fold them in — cached trials
/// never cross detector configurations. Post-hoc knobs (which sources
/// are *enabled* when classifying, the checkpoint interval, the
/// [`CfvMode`]) are deliberately absent: they are resolved from the
/// recorded observables for free and must not rekey stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Retired instructions per control-flow signature block: the
    /// embedded checker compares the running signature against the
    /// compile-time value at each block boundary, so a corrupted PC
    /// stream is caught at the end of the block containing it. `0`
    /// disables signature observation entirely.
    pub sig_chunk: u64,
    /// Architectural registers covered by selective variable
    /// duplication (bit *r* set ⇒ writes to register *r* are duplicated
    /// and compared). `0` disables duplication observation.
    pub dup_mask: u32,
}

/// The "low-hanging-fruit" duplication subset: the return-value and
/// caller-saved temporary registers `r0..r8`, which carry the
/// hand-written kernels' hot scalar state.
pub const LHF_DUP_MASK: u32 = 0x0000_01FF;

impl DetectorConfig {
    /// The paper's configuration: no software-only detectors armed
    /// (signature observation on at the default block size — it only
    /// adds a recorded observable — but no duplicated variables).
    pub fn paper() -> DetectorConfig {
        DetectorConfig { sig_chunk: 64, dup_mask: 0 }
    }

    /// Signature checking plus duplication on the lhf registers.
    pub fn lhf() -> DetectorConfig {
        DetectorConfig { sig_chunk: 64, dup_mask: LHF_DUP_MASK }
    }

    /// `true` if duplication covers architectural register `reg`.
    pub fn dup_covers(&self, reg: u8) -> bool {
        reg < 32 && self.dup_mask & (1 << reg) != 0
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig::paper()
    }
}

/// A pluggable symptom detector.
///
/// A source is driven two ways: trial monitors feed golden-relative
/// [`Observation`] events through [`SymptomSource::observe`] and read
/// the first-firing latency; the live rollback controller scans raw
/// [`CycleReport`]s through [`SymptomSource::live`] (no golden run
/// exists on-line, so only the hardware-visible sources fire there).
pub trait SymptomSource: fmt::Debug {
    /// Stable name for reports.
    fn name(&self) -> &'static str;

    /// The symptom class this source reports under.
    fn kind(&self) -> SymptomKind;

    /// Consumes one observation; returns `Some(latency)` at the moment
    /// of the source's first firing. The surrounding [`DetectorSet`]
    /// latches the first value, so later returns are ignored.
    fn observe(&mut self, obs: &Observation) -> Option<u64>;

    /// Scans one live cycle report, appending each symptom occurrence.
    /// Default: the source has no on-line face (golden-relative sources
    /// cannot run without a reference stream).
    fn live(&self, report: &CycleReport, out: &mut Vec<Symptom>) {
        let _ = (report, out);
    }

    /// Static overhead of keeping this source armed.
    fn overhead(&self) -> Overhead {
        Overhead::NONE
    }
}

/// ISA exceptions as symptoms (§3.2.1). Free: the exception path
/// already exists; ReStore merely redirects delivery through a
/// rollback first.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExceptionSource;

impl SymptomSource for ExceptionSource {
    fn name(&self) -> &'static str {
        "exception"
    }
    fn kind(&self) -> SymptomKind {
        SymptomKind::Exception
    }
    fn observe(&mut self, obs: &Observation) -> Option<u64> {
        match obs {
            Observation::Exception { latency } => Some(*latency),
            _ => None,
        }
    }
    fn live(&self, report: &CycleReport, out: &mut Vec<Symptom>) {
        if let Some(e) = report.exception {
            out.push(Symptom::Exception(e));
        }
    }
}

/// Retirement watchdog saturation (§5.1.1). One saturating counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct WatchdogSource;

impl SymptomSource for WatchdogSource {
    fn name(&self) -> &'static str {
        "watchdog"
    }
    fn kind(&self) -> SymptomKind {
        SymptomKind::Deadlock
    }
    fn observe(&mut self, obs: &Observation) -> Option<u64> {
        match obs {
            Observation::Deadlock { latency } => Some(*latency),
            _ => None,
        }
    }
    fn live(&self, report: &CycleReport, out: &mut Vec<Symptom>) {
        if report.deadlock {
            out.push(Symptom::Watchdog);
        }
    }
    fn overhead(&self) -> Overhead {
        // The watchdog is one 64-bit saturating counter.
        Overhead { table_bits: 64, ..Overhead::NONE }
    }
}

/// Fault-novel branch mispredictions as symptoms (§3.2.2). With
/// `high_confidence_only`, only mispredictions the JRS confidence
/// estimator vouched for fire — the paper's realistic detector; without
/// it, every fault-novel misprediction fires (the §5.2.1 ablation).
#[derive(Debug, Clone, Copy)]
pub struct MispredictSource {
    /// Fire only on high-confidence (JRS) mispredictions.
    pub high_confidence_only: bool,
    /// JRS table entries (rounded up to a power of two by the
    /// estimator) — the overhead model's table geometry.
    pub jrs_entries: usize,
    /// Saturating-counter ceiling; the counter width is
    /// `bits(jrs_max)`.
    pub jrs_max: u8,
}

impl SymptomSource for MispredictSource {
    fn name(&self) -> &'static str {
        if self.high_confidence_only {
            "hc-mispredict"
        } else {
            "any-mispredict"
        }
    }
    fn kind(&self) -> SymptomKind {
        if self.high_confidence_only {
            SymptomKind::HcMispredict
        } else {
            SymptomKind::AnyMispredict
        }
    }
    fn observe(&mut self, obs: &Observation) -> Option<u64> {
        match obs {
            Observation::NovelMispredict { latency, any, high_confidence } => {
                let fire = if self.high_confidence_only { *high_confidence } else { *any };
                fire.then_some(*latency)
            }
            _ => None,
        }
    }
    fn live(&self, report: &CycleReport, out: &mut Vec<Symptom>) {
        for m in &report.mispredicts {
            let fire = !self.high_confidence_only || m.high_confidence;
            if fire && m.conditional {
                out.push(Symptom::HighConfidenceMispredict { pc: m.pc });
            }
        }
    }
    fn overhead(&self) -> Overhead {
        if !self.high_confidence_only {
            // The perfect-confidence ablation is an oracle, not a
            // buildable table.
            return Overhead::NONE;
        }
        let entries = self.jrs_entries.next_power_of_two() as u64;
        let counter_bits = u64::from(u8::BITS - self.jrs_max.leading_zeros());
        Overhead { table_bits: entries * counter_bits, ..Overhead::NONE }
    }
}

/// Control-flow violation via retired-stream divergence. `sustained`
/// (the microarchitectural monitor) requires two consecutive PC
/// mismatches — a single-event label mismatch that immediately
/// re-aligns is a corrupted reporting field, i.e. data corruption, not
/// cfv; the architectural monitor compares whole-machine control flow
/// directly and fires on the first mismatch.
#[derive(Debug, Clone, Copy)]
pub struct CfvSource {
    /// Require a second consecutive mismatch before firing.
    pub sustained: bool,
    pending: Option<u64>,
}

impl CfvSource {
    /// A cfv observer; `sustained` per the monitor's alignment model.
    pub fn new(sustained: bool) -> CfvSource {
        CfvSource { sustained, pending: None }
    }
}

impl SymptomSource for CfvSource {
    fn name(&self) -> &'static str {
        "cfv"
    }
    fn kind(&self) -> SymptomKind {
        SymptomKind::Cfv
    }
    fn observe(&mut self, obs: &Observation) -> Option<u64> {
        let Observation::Retired(r) = obs else { return None };
        if r.pc_mismatch {
            if !self.sustained {
                return Some(r.latency);
            }
            match self.pending {
                Some(at) => Some(at),
                None => {
                    self.pending = Some(r.latency);
                    None
                }
            }
        } else {
            self.pending = None;
            None
        }
    }
}

/// Ground-truth value divergence: any dataflow difference from golden
/// on an aligned stream. Not a deployable detector — it exists so the
/// failure judgement and the software sources read the same events.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueSource;

impl SymptomSource for ValueSource {
    fn name(&self) -> &'static str {
        "value"
    }
    fn kind(&self) -> SymptomKind {
        SymptomKind::ValueDivergence
    }
    fn observe(&mut self, obs: &Observation) -> Option<u64> {
        match obs {
            Observation::Retired(r) if r.value_mismatch => Some(r.latency),
            _ => None,
        }
    }
}

/// Software control-flow signature checking (Azambuja et al.): the
/// compiler embeds a running signature update per block of
/// `chunk` retired instructions and compares it against the
/// compile-time value at each block boundary. A corrupted retired-PC
/// stream is therefore caught at the end of the block containing the
/// first mismatch — the firing latency rounds the mismatch latency up
/// to its block boundary. Unlike the sustained-divergence cfv model,
/// the signature also catches one-off PC label corruptions.
#[derive(Debug, Clone, Copy)]
pub struct SignatureSource {
    /// Retired instructions per signature block (`0` disables).
    pub chunk: u64,
}

impl SymptomSource for SignatureSource {
    fn name(&self) -> &'static str {
        "signature"
    }
    fn kind(&self) -> SymptomKind {
        SymptomKind::Signature
    }
    fn observe(&mut self, obs: &Observation) -> Option<u64> {
        if self.chunk == 0 {
            return None;
        }
        match obs {
            Observation::Retired(r) if r.pc_mismatch => {
                // The block-boundary check that covers retirement
                // `latency` runs at the next multiple of `chunk`.
                Some(r.latency.div_ceil(self.chunk) * self.chunk)
            }
            _ => None,
        }
    }
    fn overhead(&self) -> Overhead {
        if self.chunk == 0 {
            return Overhead::NONE;
        }
        Overhead {
            // One signature update plus one compare-and-branch per
            // block of `chunk` instructions.
            extra_instr_frac: 2.0 / self.chunk as f64,
            // The running signature register.
            table_bits: 64,
            // The signature is live across a rollback, so checkpoints
            // must carry it.
            checkpoint_bits: 64,
        }
    }
}

/// Selective variable duplication (Azambuja et al.): writes to a
/// protected subset of architectural registers are recomputed through a
/// shadow copy and compared at the write. Fires when an aligned retired
/// instruction's register write differs from golden and either side's
/// destination is protected — or, at the architectural level, when the
/// fault is injected straight into a protected register's write result
/// (the duplicate compare at the injection site itself).
#[derive(Debug, Clone, Copy)]
pub struct DupSource {
    /// Protected architectural registers (bit *r* ⇒ register *r*).
    pub mask: u32,
}

impl DupSource {
    fn covers(&self, reg: Option<u8>) -> bool {
        reg.is_some_and(|r| r < 32 && self.mask & (1 << r) != 0)
    }
}

impl SymptomSource for DupSource {
    fn name(&self) -> &'static str {
        "dup"
    }
    fn kind(&self) -> SymptomKind {
        SymptomKind::Dup
    }
    fn observe(&mut self, obs: &Observation) -> Option<u64> {
        if self.mask == 0 {
            return None;
        }
        match obs {
            Observation::Retired(r)
                if r.reg_write_mismatch
                    && (self.covers(r.trial_reg) || self.covers(r.golden_reg)) =>
            {
                Some(r.latency)
            }
            Observation::InjectedRegFlip { reg, latency } if self.covers(Some(*reg)) => {
                Some(*latency)
            }
            _ => None,
        }
    }
    fn overhead(&self) -> Overhead {
        let protected = u64::from(self.mask.count_ones());
        if protected == 0 {
            return Overhead::NONE;
        }
        Overhead {
            // Duplicate-and-compare roughly re-executes the producer and
            // adds a compare: ~1.5 extra instructions per protected
            // write, scaled by the protected fraction of the register
            // file.
            extra_instr_frac: 1.5 * protected as f64 / 32.0,
            table_bits: 0,
            // Shadow copies are architectural state a rollback must
            // restore.
            checkpoint_bits: protected * 64,
        }
    }
}

/// A memory access whose address was corrupted (architectural level).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemAddrSource;

impl SymptomSource for MemAddrSource {
    fn name(&self) -> &'static str {
        "mem-addr"
    }
    fn kind(&self) -> SymptomKind {
        SymptomKind::MemAddr
    }
    fn observe(&mut self, obs: &Observation) -> Option<u64> {
        match obs {
            Observation::MemAddrMismatch { latency } => Some(*latency),
            _ => None,
        }
    }
}

/// A store of corrupted data to a correct address (architectural
/// level).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemDataSource;

impl SymptomSource for MemDataSource {
    fn name(&self) -> &'static str {
        "mem-data"
    }
    fn kind(&self) -> SymptomKind {
        SymptomKind::MemData
    }
    fn observe(&mut self, obs: &Observation) -> Option<u64> {
        match obs {
            Observation::MemDataMismatch { latency } => Some(*latency),
            _ => None,
        }
    }
}

/// Data-cache misses as symptoms — §3.3's generalised-symptom example
/// with poor false-positive behaviour; live-scan only.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheMissSource;

impl SymptomSource for CacheMissSource {
    fn name(&self) -> &'static str {
        "cache-miss"
    }
    fn kind(&self) -> SymptomKind {
        SymptomKind::CacheMiss
    }
    fn observe(&mut self, _obs: &Observation) -> Option<u64> {
        None
    }
    fn live(&self, report: &CycleReport, out: &mut Vec<Symptom>) {
        if report.dcache_misses > 0 {
            out.push(Symptom::CacheMiss);
        }
    }
}

/// A registry of [`SymptomSource`] instances plus their first-firing
/// latencies — the one observation loop both trial monitors drive.
pub struct DetectorSet {
    sources: Vec<Box<dyn SymptomSource + Send>>,
    fired: Vec<Option<u64>>,
}

impl fmt::Debug for DetectorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectorSet")
            .field("sources", &self.sources.iter().map(|s| s.name()).collect::<Vec<_>>())
            .field("fired", &self.fired)
            .finish()
    }
}

impl DetectorSet {
    /// An empty registry.
    pub fn new() -> DetectorSet {
        DetectorSet { sources: Vec::new(), fired: Vec::new() }
    }

    /// Registers a source.
    pub fn register(&mut self, source: Box<dyn SymptomSource + Send>) {
        self.sources.push(source);
        self.fired.push(None);
    }

    /// The microarchitectural trial monitor's detector bank: watchdog,
    /// exception, sustained-divergence cfv, ground-truth value
    /// divergence, both mispredict observables (JRS geometry from
    /// `uarch`), and the software-only sources from `det`.
    pub fn uarch_trial(det: &DetectorConfig, uarch: &restore_uarch::UarchConfig) -> DetectorSet {
        let mut set = DetectorSet::new();
        set.register(Box::new(WatchdogSource));
        set.register(Box::new(ExceptionSource));
        set.register(Box::new(CfvSource::new(true)));
        set.register(Box::new(ValueSource));
        set.register(Box::new(MispredictSource {
            high_confidence_only: true,
            jrs_entries: uarch.jrs_entries,
            jrs_max: uarch.jrs_max,
        }));
        set.register(Box::new(MispredictSource {
            high_confidence_only: false,
            jrs_entries: uarch.jrs_entries,
            jrs_max: uarch.jrs_max,
        }));
        set.register(Box::new(SignatureSource { chunk: det.sig_chunk }));
        set.register(Box::new(DupSource { mask: det.dup_mask }));
        set
    }

    /// The architectural trial monitor's detector bank: exception,
    /// immediate cfv, the two memory symptom classes, and the
    /// software-only sources from `det`.
    ///
    /// No source of this bank reacts to a fully matching
    /// [`Observation::Retired`] (no PC, value or register-write
    /// mismatch): inserting any number of them anywhere into an
    /// observation sequence changes no firing latency. The architectural
    /// campaign relies on this to skip the observation for every
    /// instruction golden provably retires identically. The µarch bank
    /// ([`DetectorSet::uarch_trial`]) has no such property: its
    /// sustained cfv source reads matching events to clear a pending
    /// mismatch.
    pub fn arch_trial(det: &DetectorConfig) -> DetectorSet {
        let mut set = DetectorSet::new();
        set.register(Box::new(ExceptionSource));
        set.register(Box::new(CfvSource::new(false)));
        set.register(Box::new(MemAddrSource));
        set.register(Box::new(MemDataSource));
        set.register(Box::new(SignatureSource { chunk: det.sig_chunk }));
        set.register(Box::new(DupSource { mask: det.dup_mask }));
        set
    }

    /// The live rollback controller's bank: exactly the detectors
    /// `cfg` arms, in the historical scan order (watchdog, exception,
    /// mispredicts, cache misses). `all_mispredicts` subsumes
    /// `high_conf_mispredicts` — one source fires per mispredict event
    /// either way, matching the original single-pass scan.
    pub fn live(cfg: &SymptomConfig) -> DetectorSet {
        let mut set = DetectorSet::new();
        if cfg.watchdog {
            set.register(Box::new(WatchdogSource));
        }
        if cfg.exceptions {
            set.register(Box::new(ExceptionSource));
        }
        if cfg.all_mispredicts || cfg.high_conf_mispredicts {
            set.register(Box::new(MispredictSource {
                high_confidence_only: !cfg.all_mispredicts,
                jrs_entries: 1024,
                jrs_max: 15,
            }));
        }
        if cfg.cache_misses {
            set.register(Box::new(CacheMissSource));
        }
        set
    }

    /// Broadcasts one observation to every source, latching each
    /// source's first firing.
    pub fn observe(&mut self, obs: &Observation) {
        for (i, src) in self.sources.iter_mut().enumerate() {
            if self.fired[i].is_none() {
                self.fired[i] = src.observe(obs);
            }
        }
    }

    /// The earliest firing latency among sources of `kind`, if any
    /// fired.
    pub fn first(&self, kind: SymptomKind) -> Option<u64> {
        self.sources
            .iter()
            .zip(&self.fired)
            .filter(|(s, _)| s.kind() == kind)
            .filter_map(|(_, f)| *f)
            .min()
    }

    /// Scans one live cycle report through every registered source, in
    /// registration order.
    pub fn scan_cycle(&self, report: &CycleReport) -> Vec<Symptom> {
        let mut out = Vec::new();
        for src in &self.sources {
            src.live(report, &mut out);
        }
        out
    }

    /// Combined static overhead of every registered source.
    pub fn overhead(&self) -> Overhead {
        self.sources.iter().fold(Overhead::NONE, |acc, s| acc.add(s.overhead()))
    }

    /// Registered source names, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.sources.iter().map(|s| s.name()).collect()
    }
}

impl Default for DetectorSet {
    fn default() -> Self {
        DetectorSet::new()
    }
}

/// A post-hoc *enabled subset* of detectors evaluated against recorded
/// trial observables — the sweep's per-configuration classification
/// knob. Result-neutral by construction: selections read recorded
/// latencies, they never shape them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceSet {
    /// ISA exceptions armed.
    pub exceptions: bool,
    /// Retirement watchdog armed.
    pub watchdog: bool,
    /// Cfv detection model, if armed.
    pub cfv: Option<CfvMode>,
    /// Control-flow signature checking armed.
    pub signature: bool,
    /// Selective variable duplication armed.
    pub dup: bool,
}

impl SourceSet {
    /// The paper's evaluated configuration: exceptions + watchdog +
    /// JRS-confidence cfv.
    pub fn paper() -> SourceSet {
        SourceSet {
            exceptions: true,
            watchdog: true,
            cfv: Some(CfvMode::HighConfidence),
            signature: false,
            dup: false,
        }
    }

    /// Exceptions + watchdog only — the zero-hardware-cost baseline.
    pub fn baseline() -> SourceSet {
        SourceSet { cfv: None, ..SourceSet::paper() }
    }

    /// Stable label for sweep tables, e.g. `exc+wd+cfv(hc)+sig`.
    pub fn label(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.exceptions {
            parts.push("exc");
        }
        if self.watchdog {
            parts.push("wd");
        }
        match self.cfv {
            Some(CfvMode::Perfect) => parts.push("cfv(perfect)"),
            Some(CfvMode::HighConfidence) => parts.push("cfv(hc)"),
            Some(CfvMode::AnyMispredict) => parts.push("cfv(any)"),
            None => {}
        }
        if self.signature {
            parts.push("sig");
        }
        if self.dup {
            parts.push("dup");
        }
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join("+")
        }
    }

    /// Static overhead of the selection, given the observation config
    /// and JRS geometry the records were taken under.
    pub fn overhead(&self, det: &DetectorConfig, jrs_entries: usize, jrs_max: u8) -> Overhead {
        let mut total = Overhead::NONE;
        if self.watchdog {
            total = total.add(WatchdogSource.overhead());
        }
        if self.cfv == Some(CfvMode::HighConfidence) {
            total = total.add(
                MispredictSource { high_confidence_only: true, jrs_entries, jrs_max }.overhead(),
            );
        }
        if self.signature {
            total = total.add(SignatureSource { chunk: det.sig_chunk }.overhead());
        }
        if self.dup {
            total = total.add(DupSource { mask: det.dup_mask }.overhead());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn retired(latency: u64, pc_mismatch: bool) -> Observation {
        Observation::Retired(RetiredCompare {
            latency,
            pc_mismatch,
            value_mismatch: false,
            reg_write_mismatch: false,
            trial_reg: None,
            golden_reg: None,
        })
    }

    #[test]
    fn sustained_cfv_requires_two_consecutive_mismatches() {
        let mut cfv = CfvSource::new(true);
        assert_eq!(cfv.observe(&retired(5, true)), None, "first mismatch only pends");
        assert_eq!(cfv.observe(&retired(6, false)), None, "re-alignment clears the pending");
        assert_eq!(cfv.observe(&retired(7, true)), None);
        assert_eq!(cfv.observe(&retired(8, true)), Some(7), "fires at the pending latency");
    }

    #[test]
    fn immediate_cfv_fires_on_first_mismatch() {
        let mut cfv = CfvSource::new(false);
        assert_eq!(cfv.observe(&retired(3, false)), None);
        assert_eq!(cfv.observe(&retired(4, true)), Some(4));
    }

    #[test]
    fn signature_rounds_up_to_its_block_boundary() {
        let mut sig = SignatureSource { chunk: 64 };
        assert_eq!(sig.observe(&retired(1, true)), Some(64));
        let mut sig = SignatureSource { chunk: 64 };
        assert_eq!(sig.observe(&retired(64, true)), Some(64));
        let mut sig = SignatureSource { chunk: 64 };
        assert_eq!(sig.observe(&retired(65, true)), Some(128));
        let mut off = SignatureSource { chunk: 0 };
        assert_eq!(off.observe(&retired(65, true)), None, "chunk 0 disables the source");
    }

    #[test]
    fn signature_catches_one_off_label_flips_cfv_ignores() {
        // A single-event PC mismatch that immediately re-aligns: the
        // sustained cfv model calls it data corruption, the signature
        // checker still fires at the block boundary.
        let mut cfv = CfvSource::new(true);
        let mut sig = SignatureSource { chunk: 32 };
        assert_eq!(cfv.observe(&retired(10, true)), None);
        assert_eq!(sig.observe(&retired(10, true)), Some(32));
        assert_eq!(cfv.observe(&retired(11, false)), None);
    }

    #[test]
    fn dup_fires_only_on_protected_register_mismatches() {
        let mut dup = DupSource { mask: 0b0000_0110 }; // r1, r2
        let hit = Observation::Retired(RetiredCompare {
            latency: 9,
            pc_mismatch: false,
            value_mismatch: true,
            reg_write_mismatch: true,
            trial_reg: Some(2),
            golden_reg: Some(2),
        });
        let miss = Observation::Retired(RetiredCompare {
            latency: 4,
            pc_mismatch: false,
            value_mismatch: true,
            reg_write_mismatch: true,
            trial_reg: Some(5),
            golden_reg: Some(5),
        });
        assert_eq!(dup.observe(&miss), None, "unprotected register");
        assert_eq!(dup.observe(&hit), Some(9));
        assert_eq!(
            dup.observe(&Observation::InjectedRegFlip { reg: 1, latency: 1 }),
            Some(1),
            "the injection-site compare fires for a protected victim"
        );
        assert_eq!(dup.observe(&Observation::InjectedRegFlip { reg: 7, latency: 1 }), None);
        let mut off = DupSource { mask: 0 };
        assert_eq!(off.observe(&hit), None, "mask 0 disables the source");
    }

    #[test]
    fn detector_set_latches_first_firing_per_source() {
        let mut set = DetectorSet::new();
        set.register(Box::new(CfvSource::new(false)));
        set.register(Box::new(SignatureSource { chunk: 16 }));
        set.observe(&retired(3, true));
        set.observe(&retired(4, true));
        assert_eq!(set.first(SymptomKind::Cfv), Some(3), "first firing is latched");
        assert_eq!(set.first(SymptomKind::Signature), Some(16));
        assert_eq!(set.first(SymptomKind::Dup), None, "unregistered kinds report None");
    }

    /// Every kind a bank can report, for whole-bank comparisons.
    const KINDS: [SymptomKind; 11] = [
        SymptomKind::Deadlock,
        SymptomKind::Exception,
        SymptomKind::Cfv,
        SymptomKind::HcMispredict,
        SymptomKind::AnyMispredict,
        SymptomKind::ValueDivergence,
        SymptomKind::Signature,
        SymptomKind::Dup,
        SymptomKind::MemAddr,
        SymptomKind::MemData,
        SymptomKind::CacheMiss,
    ];

    fn reg_field() -> impl Strategy<Value = Option<u8>> {
        (0u8..40).prop_map(|r| (r < 32).then_some(r))
    }

    /// Any observation an architectural or µarch monitor can emit.
    fn observation() -> impl Strategy<Value = Observation> {
        prop_oneof![
            4 => (1u64..300, any::<bool>(), any::<bool>(), reg_field(), reg_field()).prop_map(
                |(latency, pc_mismatch, reg_write_mismatch, trial_reg, golden_reg)| {
                    Observation::Retired(RetiredCompare {
                        latency,
                        pc_mismatch,
                        value_mismatch: reg_write_mismatch,
                        reg_write_mismatch,
                        trial_reg,
                        golden_reg,
                    })
                }
            ),
            1 => (1u64..300).prop_map(|latency| Observation::Exception { latency }),
            1 => (1u64..300).prop_map(|latency| Observation::MemAddrMismatch { latency }),
            1 => (1u64..300).prop_map(|latency| Observation::MemDataMismatch { latency }),
            1 => (0u8..32, 1u64..3).prop_map(|(reg, latency)| {
                Observation::InjectedRegFlip { reg, latency }
            }),
            1 => (1u64..300, any::<bool>(), any::<bool>()).prop_map(
                |(latency, any, high_confidence)| {
                    Observation::NovelMispredict { latency, any, high_confidence }
                }
            ),
            1 => (1u64..300).prop_map(|latency| Observation::Deadlock { latency }),
        ]
    }

    /// A fully matching retirement: no mismatch, the same destination.
    fn matching() -> impl Strategy<Value = Observation> {
        (1u64..300, reg_field()).prop_map(|(latency, reg)| {
            Observation::Retired(RetiredCompare {
                latency,
                pc_mismatch: false,
                value_mismatch: false,
                reg_write_mismatch: false,
                trial_reg: reg,
                golden_reg: reg,
            })
        })
    }

    fn firings(set: &DetectorSet) -> Vec<Option<u64>> {
        KINDS.iter().map(|&k| set.first(k)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn matching_retirements_never_move_an_arch_firing(
            seq in proptest::collection::vec(observation(), 0..40),
            inserts in proptest::collection::vec((0usize..41, matching()), 0..40),
            sig_chunk in 0u64..100,
            dup_mask in any::<u32>(),
        ) {
            let det = DetectorConfig { sig_chunk, dup_mask };
            let mut plain = DetectorSet::arch_trial(&det);
            for o in &seq {
                plain.observe(o);
            }
            let mut padded = DetectorSet::arch_trial(&det);
            for at in 0..=seq.len() {
                for (_, m) in inserts.iter().filter(|(pos, _)| *pos == at) {
                    padded.observe(m);
                }
                if let Some(o) = seq.get(at) {
                    padded.observe(o);
                }
            }
            prop_assert_eq!(firings(&plain), firings(&padded));
        }
    }

    #[test]
    fn a_matching_retirement_clears_the_uarch_banks_pending_cfv() {
        let uarch = restore_uarch::UarchConfig::default();
        let run = |obs: &[Observation]| {
            let mut set = DetectorSet::uarch_trial(&DetectorConfig::paper(), &uarch);
            for o in obs {
                set.observe(o);
            }
            set.first(SymptomKind::Cfv)
        };
        assert_eq!(run(&[retired(5, true), retired(6, true)]), Some(5));
        assert_eq!(run(&[retired(5, true), retired(6, false), retired(7, true)]), None);
    }

    #[test]
    fn cfv_mode_resolution_selects_the_right_observable() {
        let (p, hc, any) = (Some(20), Some(80), Some(30));
        assert_eq!(CfvMode::Perfect.resolve(p, hc, any), Some(20));
        assert_eq!(CfvMode::HighConfidence.resolve(p, hc, any), Some(80));
        assert_eq!(CfvMode::AnyMispredict.resolve(p, hc, any), Some(30));
    }

    #[test]
    fn overhead_model_tracks_geometry() {
        let jrs = MispredictSource { high_confidence_only: true, jrs_entries: 1024, jrs_max: 15 };
        assert_eq!(jrs.overhead().table_bits, 1024 * 4, "1024 4-bit counters");
        let small = MispredictSource { high_confidence_only: true, jrs_entries: 256, jrs_max: 3 };
        assert_eq!(small.overhead().table_bits, 256 * 2);
        let oracle =
            MispredictSource { high_confidence_only: false, jrs_entries: 1024, jrs_max: 15 };
        assert_eq!(oracle.overhead(), Overhead::NONE, "the ablation is an oracle, not a table");
        let sig = SignatureSource { chunk: 64 };
        assert!((sig.overhead().extra_instr_frac - 2.0 / 64.0).abs() < 1e-12);
        let dup = DupSource { mask: LHF_DUP_MASK };
        assert_eq!(dup.overhead().checkpoint_bits, 9 * 64);
        let sum = sig.overhead().add(dup.overhead());
        assert_eq!(sum.table_bits, 64);
        assert_eq!(sum.checkpoint_bits, 64 + 9 * 64);
    }

    #[test]
    fn live_bank_matches_symptom_config_arming() {
        let set = DetectorSet::live(&SymptomConfig::paper());
        assert_eq!(set.names(), vec!["watchdog", "exception", "hc-mispredict"]);
        let set = DetectorSet::live(&SymptomConfig::perfect_cfv());
        assert_eq!(set.names(), vec!["watchdog", "exception", "any-mispredict"]);
        let set = DetectorSet::live(&SymptomConfig::none());
        assert!(set.names().is_empty());
    }

    #[test]
    fn source_set_labels_and_presets() {
        assert_eq!(SourceSet::paper().label(), "exc+wd+cfv(hc)");
        assert_eq!(SourceSet::baseline().label(), "exc+wd");
        let all = SourceSet {
            exceptions: true,
            watchdog: true,
            cfv: Some(CfvMode::Perfect),
            signature: true,
            dup: true,
        };
        assert_eq!(all.label(), "exc+wd+cfv(perfect)+sig+dup");
        let none = SourceSet {
            exceptions: false,
            watchdog: false,
            cfv: None,
            signature: false,
            dup: false,
        };
        assert_eq!(none.label(), "none");
        let oh = SourceSet::paper().overhead(&DetectorConfig::paper(), 1024, 15);
        assert_eq!(oh.table_bits, 64 + 4096, "watchdog counter + JRS table");
        assert!(oh.extra_instr_frac.abs() < 1e-12, "paper set adds no instructions");
    }

    #[test]
    fn detector_config_presets_and_coverage() {
        let paper = DetectorConfig::paper();
        assert_eq!(paper, DetectorConfig::default());
        assert_eq!(paper.dup_mask, 0, "the paper runs no duplication");
        assert!(!paper.dup_covers(0));
        let lhf = DetectorConfig::lhf();
        assert!(lhf.dup_covers(0) && lhf.dup_covers(8) && !lhf.dup_covers(9));
        assert!(!lhf.dup_covers(40), "out-of-range registers are never covered");
    }
}
