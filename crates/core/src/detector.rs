//! The trial detectors: one concrete [`DetectorSet`] that latches the
//! first firing of every observable a trial records.
//!
//! The paper's detectors are a fixed set: ISA exceptions, JRS
//! high-confidence mispredictions and the retirement watchdog (§3). Two
//! software-only detectors from the Azambuja et al. SEU/SET hardening
//! toolbox join them: control-flow signature checking and selective
//! variable duplication, configured by [`DetectorConfig`], whose knobs
//! shape trial records and therefore fold into the campaign digests.
//! A trial keeps every detector's first-firing latency, plus the
//! ground-truth observables (perfect cfv, any-confidence mispredicts,
//! value divergence, the memory classes), in one [`Firings`] record;
//! which detectors are *enabled* is chosen afterwards from those
//! latencies ([`SourceSet`], [`CfvMode`]), so no detector needs to be
//! an object. Three plain paths cover them:
//!
//! * both trial monitors feed domain-neutral [`Observation`] events (a
//!   retired-stream comparison against golden, a fault-novel
//!   misprediction, an exception, watchdog saturation, a memory-effect
//!   mismatch) to [`DetectorSet::observe`], whose one `match` latches
//!   each first firing; the µarch and arch sets differ only in the cfv
//!   rule;
//! * the live rollback controller has no golden run: it scans each
//!   cycle's report with [`crate::SymptomConfig::detect`];
//! * [`SourceSet::overhead`] is the static cost model ([`Overhead`])
//!   the sweep trades against coverage.

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

/// One domain-neutral event fed to a [`DetectorSet`]. The
/// architectural and microarchitectural monitors emit the subset their
/// fault model can observe; an observable simply never fires on events
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
/// trades against coverage ([`SourceSet::overhead`]).
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
/// trial *record* contains (the latencies the software-only detectors
/// fire at), so both campaign digests fold them in — cached trials
/// never cross detector configurations. Post-hoc knobs (which
/// detectors are *enabled* when classifying, the checkpoint interval,
/// the [`CfvMode`]) are deliberately absent: they are resolved from the
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

/// The first-firing latency of every observable a trial records, `None`
/// until it fires. Each monitor emits only what its fault model can
/// observe: the memory classes stay `None` at the µarch level, and the
/// watchdog, mispredict and value observables at the architectural one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Firings {
    /// Retirement watchdog saturation (§5.1.1).
    pub deadlock: Option<u64>,
    /// An ISA-defined exception (§3.2.1).
    pub exception: Option<u64>,
    /// A control-flow violation: retired-stream divergence from golden
    /// (perfect cfv identification), under the set's cfv rule.
    pub cfv: Option<u64>,
    /// A fault-novel high-confidence (JRS) misprediction (§3.2.2).
    pub hc_mispredict: Option<u64>,
    /// A fault-novel misprediction of any confidence (the §5.2.1
    /// perfect-confidence-predictor ablation).
    pub any_mispredict: Option<u64>,
    /// Any dataflow divergence from golden on an aligned stream. Not a
    /// deployable detector: it is the failure judgement's ground truth.
    pub value: Option<u64>,
    /// Control-flow signature checking: the first retired-PC mismatch,
    /// rounded up to its signature block boundary (software-only).
    pub signature: Option<u64>,
    /// Selective variable duplication: a mismatching write to a
    /// protected register, or an arch trial's flip of one at the
    /// injection site (software-only).
    pub dup: Option<u64>,
    /// A memory access with a corrupted address (architectural level).
    pub mem_addr: Option<u64>,
    /// A store of corrupted data to a correct address (architectural
    /// level).
    pub mem_data: Option<u64>,
}

/// A trial monitor's detectors: the observation-time
/// [`DetectorConfig`], the cfv rule with its pending mismatch, and the
/// [`Firings`] latched so far. Every observable latches its first
/// firing; no later observation moves it.
#[derive(Debug)]
pub struct DetectorSet {
    det: DetectorConfig,
    /// Cfv waits for a second consecutive PC mismatch (µarch monitor)
    /// instead of firing on the first (arch monitor).
    sustained_cfv: bool,
    /// Latency of the PC mismatch a sustained cfv is waiting to confirm.
    pending_cfv: Option<u64>,
    firings: Firings,
}

impl DetectorSet {
    /// The microarchitectural trial monitor's detectors, with
    /// *sustained* cfv: a retired-PC mismatch fires only when the next
    /// compared retirement mismatches too, at the first one's latency.
    /// A single-event label mismatch that immediately re-aligns is a
    /// corrupted reporting field, i.e. data corruption, not cfv.
    ///
    /// `_uarch` is unused: the JRS geometry matters only to
    /// [`SourceSet::overhead`]. The parameter stays because the traced
    /// benchmark run (`ledger/trace`) calls this signature, just as it
    /// reads `CampaignStats::shadow_runs`, which stays for it too.
    pub fn uarch_trial(det: &DetectorConfig, _uarch: &restore_uarch::UarchConfig) -> DetectorSet {
        DetectorSet { sustained_cfv: true, ..DetectorSet::arch_trial(det) }
    }

    /// The architectural trial monitor's detectors: whole-machine
    /// control flow is directly comparable at this level, so cfv fires
    /// on the first retired-PC mismatch.
    ///
    /// No observable of this set reacts to a fully matching
    /// [`Observation::Retired`] (no PC, value or register-write
    /// mismatch): inserting any number of them anywhere into an
    /// observation sequence changes no firing latency. The architectural
    /// campaign relies on this to skip the observation for every
    /// instruction golden provably retires identically. The µarch set
    /// ([`DetectorSet::uarch_trial`]) has no such property: a matching
    /// retirement clears its pending cfv mismatch.
    pub fn arch_trial(det: &DetectorConfig) -> DetectorSet {
        DetectorSet {
            det: *det,
            sustained_cfv: false,
            pending_cfv: None,
            firings: Firings::default(),
        }
    }

    /// The first firings latched so far.
    pub fn firings(&self) -> &Firings {
        &self.firings
    }

    /// Consumes one observation, latching the first firing of every
    /// observable it fires.
    pub fn observe(&mut self, obs: &Observation) {
        let f = &mut self.firings;
        match *obs {
            Observation::Retired(r) => {
                if r.pc_mismatch {
                    match self.pending_cfv {
                        Some(at) => latch(&mut f.cfv, at),
                        None if self.sustained_cfv => self.pending_cfv = Some(r.latency),
                        None => latch(&mut f.cfv, r.latency),
                    }
                    let chunk = self.det.sig_chunk;
                    if chunk > 0 {
                        // The block-boundary check that covers
                        // retirement `latency` runs at the next multiple
                        // of `chunk`.
                        latch(&mut f.signature, r.latency.div_ceil(chunk) * chunk);
                    }
                } else {
                    self.pending_cfv = None;
                }
                if r.value_mismatch {
                    latch(&mut f.value, r.latency);
                }
                let covered = |reg: Option<u8>| reg.is_some_and(|r| self.det.dup_covers(r));
                if r.reg_write_mismatch && (covered(r.trial_reg) || covered(r.golden_reg)) {
                    latch(&mut f.dup, r.latency);
                }
            }
            Observation::NovelMispredict { latency, any, high_confidence } => {
                if high_confidence {
                    latch(&mut f.hc_mispredict, latency);
                }
                if any {
                    latch(&mut f.any_mispredict, latency);
                }
            }
            Observation::Exception { latency } => latch(&mut f.exception, latency),
            Observation::Deadlock { latency } => latch(&mut f.deadlock, latency),
            Observation::MemAddrMismatch { latency } => latch(&mut f.mem_addr, latency),
            Observation::MemDataMismatch { latency } => latch(&mut f.mem_data, latency),
            Observation::InjectedRegFlip { reg, latency } => {
                if self.det.dup_covers(reg) {
                    latch(&mut f.dup, latency);
                }
            }
        }
    }
}

/// Records `at` as an observable's firing unless it already fired.
fn latch(slot: &mut Option<u64>, at: u64) {
    slot.get_or_insert(at);
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
    /// and JRS geometry the records were taken under. Cfv costs only in
    /// the JRS mode: perfect identification and the perfect-confidence
    /// ablation are oracles, not buildable tables.
    pub fn overhead(&self, det: &DetectorConfig, jrs_entries: usize, jrs_max: u8) -> Overhead {
        let mut total = Overhead::default();
        if self.watchdog {
            // One 64-bit saturating counter.
            total.table_bits += 64;
        }
        if self.cfv == Some(CfvMode::HighConfidence) {
            // The estimator rounds its table up to a power of two; each
            // counter is `bits(jrs_max)` wide.
            let entries = jrs_entries.next_power_of_two() as u64;
            total.table_bits += entries * u64::from(u8::BITS - jrs_max.leading_zeros());
        }
        if self.signature && det.sig_chunk > 0 {
            // One signature update plus one compare-and-branch per block
            // of `sig_chunk` instructions, and a running signature
            // register that is live across a rollback, so checkpoints
            // carry it too.
            total.extra_instr_frac += 2.0 / det.sig_chunk as f64;
            total.table_bits += 64;
            total.checkpoint_bits += 64;
        }
        let protected = u64::from(det.dup_mask.count_ones());
        if self.dup && protected > 0 {
            // Duplicate-and-compare roughly re-executes the producer and
            // adds a compare: ~1.5 extra instructions per protected
            // write, scaled by the protected fraction of the register
            // file. Shadow copies are architectural state a rollback
            // must restore.
            total.extra_instr_frac += 1.5 * protected as f64 / 32.0;
            total.checkpoint_bits += protected * 64;
        }
        total
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::symptom::{Symptom, SymptomConfig};
    use proptest::prelude::*;
    use restore_uarch::{CycleReport, MispredictEvent, UarchConfig};

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

    /// The µarch trial set, `det` armed.
    fn uarch(det: DetectorConfig) -> DetectorSet {
        DetectorSet::uarch_trial(&det, &UarchConfig::default())
    }

    /// The firings of `set` after it observes `obs`.
    fn fire(mut set: DetectorSet, obs: &[Observation]) -> Firings {
        for o in obs {
            set.observe(o);
        }
        *set.firings()
    }

    #[test]
    fn sustained_cfv_requires_two_consecutive_mismatches() {
        // The first mismatch only pends, re-alignment clears it, and a
        // second consecutive mismatch fires at the pending latency.
        let obs = [retired(5, true), retired(6, false), retired(7, true), retired(8, true)];
        let cfv = |n| fire(uarch(DetectorConfig::paper()), &obs[..n]).cfv;
        assert_eq!([cfv(1), cfv(2), cfv(3), cfv(4)], [None, None, None, Some(7)]);
    }

    #[test]
    fn immediate_cfv_fires_on_first_mismatch() {
        let obs = [retired(3, false), retired(4, true)];
        let cfv = |n| fire(DetectorSet::arch_trial(&DetectorConfig::paper()), &obs[..n]).cfv;
        assert_eq!([cfv(1), cfv(2)], [None, Some(4)]);
    }

    #[test]
    fn signature_rounds_up_to_its_block_boundary() {
        let sig = |sig_chunk, latency| {
            let det = DetectorConfig { sig_chunk, dup_mask: 0 };
            fire(DetectorSet::arch_trial(&det), &[retired(latency, true)]).signature
        };
        assert_eq!(sig(64, 1), Some(64));
        assert_eq!(sig(64, 64), Some(64));
        assert_eq!(sig(64, 65), Some(128));
        assert_eq!(sig(0, 65), None, "chunk 0 disables the detector");
    }

    #[test]
    fn signature_catches_one_off_label_flips_cfv_ignores() {
        // A single-event PC mismatch that immediately re-aligns: the
        // sustained cfv model calls it data corruption, the signature
        // checker still fires at the block boundary.
        let det = DetectorConfig { sig_chunk: 32, dup_mask: 0 };
        let f = fire(uarch(det), &[retired(10, true), retired(11, false)]);
        assert_eq!((f.cfv, f.signature), (None, Some(32)));
    }

    #[test]
    fn dup_fires_only_on_protected_register_mismatches() {
        let r1_r2 = DetectorConfig { sig_chunk: 0, dup_mask: 0b0000_0110 };
        let dup =
            |det: DetectorConfig, obs: Observation| fire(DetectorSet::arch_trial(&det), &[obs]).dup;
        let write = |latency, reg| {
            Observation::Retired(RetiredCompare {
                latency,
                pc_mismatch: false,
                value_mismatch: true,
                reg_write_mismatch: true,
                trial_reg: Some(reg),
                golden_reg: Some(reg),
            })
        };
        assert_eq!(dup(r1_r2, write(4, 5)), None, "unprotected register");
        assert_eq!(dup(r1_r2, write(9, 2)), Some(9));
        assert_eq!(
            dup(r1_r2, Observation::InjectedRegFlip { reg: 1, latency: 1 }),
            Some(1),
            "the injection-site compare fires for a protected victim"
        );
        assert_eq!(dup(r1_r2, Observation::InjectedRegFlip { reg: 7, latency: 1 }), None);
        let off = DetectorConfig { dup_mask: 0, ..r1_r2 };
        assert_eq!(dup(off, write(9, 2)), None, "mask 0 disables the detector");
    }

    #[test]
    fn detector_set_latches_first_firing_per_source() {
        let det = DetectorConfig { sig_chunk: 16, dup_mask: 0 };
        let f = fire(DetectorSet::arch_trial(&det), &[retired(3, true), retired(4, true)]);
        assert_eq!(f.cfv, Some(3), "first firing is latched");
        assert_eq!(f.signature, Some(16));
        assert_eq!(f.dup, None, "observables that never fired report None");
    }

    /// Every observable of a [`Firings`] record, for field-wise
    /// comparisons; the exhaustive pattern fails to compile when a field
    /// is added.
    fn fields(f: &Firings) -> [Option<u64>; 10] {
        let Firings {
            deadlock,
            exception,
            cfv,
            hc_mispredict,
            any_mispredict,
            value,
            signature,
            dup,
            mem_addr,
            mem_data,
        } = *f;
        [
            deadlock,
            exception,
            cfv,
            hc_mispredict,
            any_mispredict,
            value,
            signature,
            dup,
            mem_addr,
            mem_data,
        ]
    }

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
            let plain = fire(DetectorSet::arch_trial(&det), &seq);
            let mut padded = Vec::new();
            for at in 0..=seq.len() {
                padded.extend(inserts.iter().filter(|(pos, _)| *pos == at).map(|(_, m)| *m));
                padded.extend(seq.get(at).copied());
            }
            prop_assert_eq!(plain, fire(DetectorSet::arch_trial(&det), &padded));
        }

        /// Latching is spread over one `match` arm per observable, so
        /// each field is checked on its own: in either set, under any
        /// config, whatever has fired by any point of any sequence stays
        /// put through the rest of it.
        #[test]
        fn a_latched_firing_never_moves_in_either_bank(
            seq in proptest::collection::vec(observation(), 0..60),
            split in 0usize..61,
            sig_chunk in 0u64..100,
            dup_mask in any::<u32>(),
            sustained in any::<bool>(),
        ) {
            let det = DetectorConfig { sig_chunk, dup_mask };
            let mut set = if sustained { uarch(det) } else { DetectorSet::arch_trial(&det) };
            let (prefix, suffix) = seq.split_at(split.min(seq.len()));
            for o in prefix {
                set.observe(o);
            }
            let before = fields(set.firings());
            for o in suffix {
                set.observe(o);
            }
            for (was, now) in before.iter().zip(fields(set.firings())) {
                if was.is_some() {
                    prop_assert_eq!(*was, now);
                }
            }
        }
    }

    #[test]
    fn a_matching_retirement_clears_the_uarch_banks_pending_cfv() {
        let cfv = |obs: &[Observation]| fire(uarch(DetectorConfig::paper()), obs).cfv;
        assert_eq!(cfv(&[retired(5, true), retired(6, true)]), Some(5));
        assert_eq!(cfv(&[retired(5, true), retired(6, false), retired(7, true)]), None);
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
        let none = SourceSet { exceptions: false, watchdog: false, ..SourceSet::baseline() };
        let cost = |set: SourceSet, jrs_entries, jrs_max| {
            set.overhead(&DetectorConfig::lhf(), jrs_entries, jrs_max)
        };
        let jrs = SourceSet { cfv: Some(CfvMode::HighConfidence), ..none };
        assert_eq!(cost(jrs, 1024, 15).table_bits, 1024 * 4, "1024 4-bit counters");
        assert_eq!(cost(jrs, 256, 3).table_bits, 256 * 2);
        let oracle = SourceSet { cfv: Some(CfvMode::AnyMispredict), ..none };
        assert_eq!(cost(oracle, 1024, 15), Overhead::default(), "an oracle, not a table");
        let sig = cost(SourceSet { signature: true, ..none }, 1024, 15);
        assert!((sig.extra_instr_frac - 2.0 / 64.0).abs() < 1e-12);
        let dup = cost(SourceSet { dup: true, ..none }, 1024, 15);
        assert_eq!(dup.checkpoint_bits, 9 * 64);
        let both = SourceSet { signature: true, dup: true, ..none };
        let sum = cost(both, 1024, 15);
        assert_eq!((sum.table_bits, sum.checkpoint_bits), (64, 64 + 9 * 64));
        let off = DetectorConfig { sig_chunk: 0, dup_mask: 0 };
        assert_eq!(both.overhead(&off, 1024, 15), Overhead::default(), "disabled knobs are free");
    }

    #[test]
    fn live_bank_matches_symptom_config_arming() {
        // One cycle in which every live detector has something to see,
        // scanned in order: watchdog, exception, mispredicts, cache miss.
        let exc = restore_arch::Exception::ArithmeticTrap { pc: 4 };
        let m = |pc, hc| MispredictEvent {
            pc,
            high_confidence: hc,
            conditional: true,
            retired_before: 0,
        };
        let report = CycleReport {
            deadlock: true,
            exception: Some(exc),
            mispredicts: vec![m(0x10, true), m(0x20, false)],
            dcache_misses: 1,
            ..CycleReport::default()
        };
        let (wd, ex) = (Symptom::Watchdog, Symptom::Exception(exc));
        let cfv = |pc| Symptom::HighConfidenceMispredict { pc };
        assert_eq!(SymptomConfig::paper().detect(&report), [wd, ex, cfv(0x10)]);
        let any = SymptomConfig::perfect_cfv().detect(&report);
        assert_eq!(any, [wd, ex, cfv(0x10), cfv(0x20)], "all_mispredicts subsumes hc");
        let cache = SymptomConfig { cache_misses: true, ..SymptomConfig::paper() };
        assert_eq!(cache.detect(&report), [wd, ex, cfv(0x10), Symptom::CacheMiss]);
        assert!(SymptomConfig::none().detect(&report).is_empty());
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
