//! The microarchitectural trial monitor: the per-point golden
//! observation ([`GoldenRun`]), the injected lockstep trial
//! ([`run_trial`]), and the trial record ([`UarchTrial`]) it produces.
//!
//! Each trial clones a warmed-up pipeline at a pre-selected random cycle,
//! flips one uniformly chosen state bit, and monitors up to 10,000 cycles
//! against a cached golden run from the same point (§4.2): watchdog
//! deadlock, spurious exceptions, divergence of the retired stream
//! (control flow vs. value corruption), fault-induced high-confidence
//! branch mispredictions, and end-of-trial state comparison for the
//! masked/latent/other split. Campaign orchestration — planning, seeding,
//! parallelism — lives in [`crate::campaign`]; this module only ever sees
//! one fork, one golden run, and one bit.

use crate::campaign::CUTOFF_STRIDE;
use crate::classify::{Symptom, UarchCategory};
use crate::uarch_campaign::{InjectionTarget, UarchCampaignConfig};
use rand::rngs::StdRng;
use rand::Rng;
use restore_arch::Retired;
use restore_core::{CfvMode, DetectorSet, Firings, Observation, RetiredCompare};
use restore_store::TrialCost;
use restore_uarch::{Pipeline, StateCatalog, Stop};
use restore_workloads::WorkloadId;
use std::collections::BTreeSet;

/// How a trial's observation window ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndState {
    /// Ran the full window; microarchitectural state identical to golden.
    MaskedClean,
    /// Ran the full window with matching architectural state, but residue
    /// remains in (dead) microarchitectural state.
    DeadResidue,
    /// Ran the full window; architectural registers/memory differ from
    /// golden while the retired streams matched — the fault is latent in
    /// software-visible state.
    Latent,
    /// The window was cut short by an exception or deadlock.
    Terminated,
    /// Both runs halted (program completed) with identical final state.
    Completed,
}

/// One microarchitectural injection trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UarchTrial {
    /// Workload injected into.
    pub workload: WorkloadId,
    /// Global bit index injected.
    pub bit: u64,
    /// Region (component) name of the bit.
    pub region: &'static str,
    /// `true` if the hardened pipeline's parity/ECC covers this bit.
    pub lhf_protected: bool,
    /// The first firing of every observable, as the trial's
    /// [`DetectorSet`] latched it, plus the deadlock or exception the
    /// cut or drain endings back-fill. This fault model observes
    /// deadlock, exception, sustained cfv, both novel-mispredict
    /// classes, value divergence (register write, store data/address or
    /// halt status) and the software detectors; the memory-symptom
    /// classes are architectural-level observables and stay `None`.
    pub firings: Firings,
    /// Data-cache misses beyond the golden run's count (§3.3 candidate
    /// symptom; can be negative when the fault shortens execution).
    pub extra_dcache_misses: i64,
    /// Data-TLB misses beyond the golden run's count.
    pub extra_dtlb_misses: i64,
    /// How the window ended.
    pub end: EndState,
}

impl UarchTrial {
    /// Ground truth: did this fault cause (or remain able to cause) a
    /// failure?
    pub fn is_failure(&self) -> bool {
        Symptom::first_within(&self.firings, u64::MAX).is_some()
            || self.firings.value.is_some()
            || self.end == EndState::Latent
    }

    /// Classifies the trial for a checkpoint interval (detection-latency
    /// bound), a cfv detection mode, and optionally the hardened
    /// (parity/ECC) pipeline of §5.2.2.
    pub fn classify(&self, interval: u64, cfv: CfvMode, hardened: bool) -> UarchCategory {
        if hardened && self.lhf_protected {
            // Parity/ECC detects and recovers the flip before it can
            // propagate; like the paper we report these under `other`
            // ("covered by ECC and will not cause data corruption").
            return UarchCategory::Other;
        }
        if !self.is_failure() {
            return match self.end {
                EndState::DeadResidue => UarchCategory::Other,
                _ => UarchCategory::Masked,
            };
        }
        // The cfv detector resolves its own model ([`CfvMode::resolve`]);
        // classification then reads only the shared precedence
        // ([`Symptom::first_within`]), with no per-mode special case
        // here.
        let detected = Firings { cfv: cfv.resolve(&self.firings), ..self.firings };
        match Symptom::first_within(&detected, interval) {
            Some(Symptom::Deadlock) => UarchCategory::Deadlock,
            Some(Symptom::Exception) => UarchCategory::Exception,
            Some(Symptom::Cfv) => UarchCategory::Cfv,
            // The memory-symptom classes stay `None` at this level, so
            // only the undetected-failure split remains.
            _ => {
                if self.firings.cfv.is_some() || self.firings.value.is_some() {
                    UarchCategory::Sdc
                } else {
                    UarchCategory::Latent
                }
            }
        }
    }
}

/// Cached golden observation from one injection point.
#[derive(Debug)]
pub(crate) struct GoldenRun {
    trace: Vec<Retired>,
    /// `(retired_before, pc)` of golden high-confidence mispredicts.
    hc_events: BTreeSet<(u64, u64)>,
    /// `(retired_before, pc)` of all golden conditional mispredicts.
    all_events: BTreeSet<(u64, u64)>,
    end_state_hash: u64,
    end_regs: [u64; 32],
    /// Digest of the end memory image ([`restore_arch::Memory::fingerprint`],
    /// whose per-page cache the stride fingerprints keep warm, so it
    /// costs O(pages dirtied since the last one)); keeping the full
    /// golden `Memory` alive per point was the campaign's largest
    /// resident allocation.
    end_mem_hash: u64,
    /// Status after the end-of-window drain (a trial cut at reconvergence,
    /// or predicted from the masking map, back-fills its ending from this).
    end_status: Stop,
    retired: u64,
    dcache_misses: u64,
    dtlb_misses: u64,
    /// Full-machine fingerprint at each [`CUTOFF_STRIDE`] boundary of the
    /// window (boundary `b` — i.e. after `b * CUTOFF_STRIDE` cycles — at
    /// index `b - 1`). Recording stops when the golden run halts.
    fingerprints: Vec<u64>,
    /// Window cycles the golden run actually executed (less than
    /// `window_cycles` when the workload halts inside the window). A cut
    /// trial's remaining cycles are counted against this, not the full
    /// window — post-match the trial mirrors the golden run, halts
    /// included, so this is exactly what the exhaustive trial would have
    /// simulated.
    pub(crate) window_executed: u64,
}

/// Stops fetch and runs until the machine is empty (or `max` cycles).
/// An empty machine must stop cycling before the retirement watchdog
/// misreads the idle period as a deadlock.
fn drain(pipe: &mut Pipeline, max: u64) {
    pipe.set_fetch_enabled(false);
    for _ in 0..max {
        if pipe.status() != Stop::Running || pipe.in_flight() == 0 {
            break;
        }
        pipe.cycle();
    }
    pipe.set_fetch_enabled(true);
}

/// `(retired-since-fork, pc)` identity of a mispredict event.
/// `retired_before` is sampled from the (possibly fault-corrupted)
/// machine and can sit below the fork's baseline when the fault hits the
/// retirement counter itself — saturate rather than underflow; such an
/// event can never match a golden key, which is exactly right.
#[inline]
fn event_key(retired_before: u64, base_retired: u64, pc: u64) -> (u64, u64) {
    (retired_before.saturating_sub(base_retired), pc)
}

pub(crate) fn golden_run(at: &Pipeline, cfg: &UarchCampaignConfig) -> GoldenRun {
    let mut g = at.clone();
    let base_retired = g.retired();
    let mut trace = Vec::new();
    let mut hc = BTreeSet::new();
    let mut all = BTreeSet::new();
    let mut fingerprints = Vec::with_capacity((cfg.window_cycles / CUTOFF_STRIDE) as usize);
    let mut window_executed = 0u64;
    for i in 0..cfg.window_cycles {
        if g.status() != Stop::Running {
            break;
        }
        window_executed += 1;
        let r = g.cycle();
        assert!(r.exception.is_none(), "golden run raised an exception");
        assert!(!r.deadlock, "golden run deadlocked");
        for m in &r.mispredicts {
            if m.conditional {
                all.insert(event_key(m.retired_before, base_retired, m.pc));
                if m.high_confidence {
                    hc.insert(event_key(m.retired_before, base_retired, m.pc));
                }
            }
        }
        trace.extend(r.retired);
        if (i + 1) % CUTOFF_STRIDE == 0 && g.status() == Stop::Running {
            fingerprints.push(g.fingerprint());
        }
    }
    drain(&mut g, cfg.drain_cycles);
    GoldenRun {
        trace,
        hc_events: hc,
        all_events: all,
        end_state_hash: g.state_hash(),
        end_regs: g.arch_regs(),
        end_mem_hash: g.memory_mut().fingerprint(),
        end_status: g.status(),
        retired: g.retired(),
        dcache_misses: g.miss_counters().1,
        dtlb_misses: g.miss_counters().3,
        fingerprints,
        window_executed,
    }
}

/// Draws a global bit index for the configured target.
pub(crate) fn draw_bit(rng: &mut StdRng, catalog: &StateCatalog, target: InjectionTarget) -> u64 {
    match target {
        InjectionTarget::AllState => rng.gen_range(0..catalog.total_bits),
        InjectionTarget::LatchesOnly => catalog.latch_bit(rng.gen_range(0..catalog.latch_bits())),
    }
}

/// Predicts the exact trial record for an injection the masking map
/// proves ([`restore_maskmap::UarchMaskMap::proves`]) without simulating
/// it.
///
/// A proved flip is never read before it is destroyed or the trial ends,
/// so it produces no symptom of its own: the live trajectory, retired
/// stream, mispredictions and miss counters are the golden run's. Every
/// latency stays `None`, the counter deltas are zero, and the ending
/// depends only on how the golden run ended and whether the flip is
/// overwritten before the end-of-trial hash (mirroring the
/// reconvergence cutoff's back-fill for the terminated cases).
pub(crate) fn predict_dead_trial(
    golden: &GoldenRun,
    catalog: &StateCatalog,
    id: WorkloadId,
    bit: u64,
    base_retired: u64,
    written: bool,
) -> UarchTrial {
    let mut trial = UarchTrial {
        workload: id,
        bit,
        region: catalog.region_of(bit).map(|r| r.name).unwrap_or("?"),
        lhf_protected: catalog.lhf_protected(bit),
        // A proved flip never perturbs the retired stream, so every
        // detector, the software ones included, stays silent.
        firings: Firings::default(),
        extra_dcache_misses: 0,
        extra_dtlb_misses: 0,
        end: EndState::MaskedClean,
    };
    trial.end = match (golden.end_status, written) {
        (Stop::Halted, true) => EndState::Completed,
        (Stop::Running, true) => EndState::MaskedClean,
        (Stop::Halted | Stop::Running, false) => EndState::DeadResidue,
        (Stop::Deadlock, _) => {
            trial.firings.deadlock = Some(golden.retired - base_retired);
            EndState::Terminated
        }
        (Stop::Exception(_), _) => {
            trial.firings.exception = Some(golden.retired - base_retired);
            EndState::Terminated
        }
    };
    trial
}

/// Runs one injected trial: flips `bit` in a clone of `at` and monitors
/// it in lockstep with `golden` for the observation window. With
/// `cutoff`, a trial whose fingerprint matches golden's at a
/// [`CUTOFF_STRIDE`] boundary is cut; without it, the trial is the
/// exhaustive reference, which must return the same record.
pub(crate) fn run_trial(
    at: &Pipeline,
    golden: &GoldenRun,
    catalog: &StateCatalog,
    id: WorkloadId,
    bit: u64,
    cfg: &UarchCampaignConfig,
    cutoff: bool,
) -> (UarchTrial, TrialCost) {
    let mut pipe = at.clone();
    let base_retired = pipe.retired();
    pipe.flip_bit(bit);

    // The detectors: every symptom latency this monitor records is a
    // first firing latched by the set. The sustained cfv model (a
    // control-flow violation means the *wrong instruction executed* — a
    // single-event PC label mismatch that immediately re-aligns is a
    // corrupted reporting field, i.e. data corruption, not cfv) lives
    // inside the set.
    let mut set = DetectorSet::uarch_trial(&cfg.detectors, &cfg.uarch);
    let mut idx = 0usize; // next golden trace index to compare
    let mut terminated = false;
    let mut executed = 0u64;
    let mut cut = false;
    for i in 0..cfg.window_cycles {
        if pipe.status() != Stop::Running {
            break;
        }
        executed += 1;
        let lat_now = |p: &Pipeline| p.retired() - base_retired;
        let r = pipe.cycle();
        for m in &r.mispredicts {
            if !m.conditional {
                continue;
            }
            let key = event_key(m.retired_before, base_retired, m.pc);
            let any = !golden.all_events.contains(&key);
            let high_confidence = m.high_confidence && !golden.hc_events.contains(&key);
            if any || high_confidence {
                set.observe(&Observation::NovelMispredict {
                    latency: key.0 + 1,
                    any,
                    high_confidence,
                });
            }
        }
        for ret in &r.retired {
            if set.firings().cfv.is_some() {
                break; // streams no longer aligned; nothing to compare
            }
            let Some(g) = golden.trace.get(idx) else { break };
            let lat = idx as u64 + 1;
            let pc_mismatch = ret.pc != g.pc;
            // Dataflow is only comparable on an aligned stream — exactly
            // what an embedded software check could compare.
            let value_mismatch = !pc_mismatch
                && (ret.reg_write != g.reg_write || ret.mem != g.mem || ret.halted != g.halted);
            let reg_write_mismatch = !pc_mismatch && ret.reg_write != g.reg_write;
            set.observe(&Observation::Retired(RetiredCompare {
                latency: lat,
                pc_mismatch,
                value_mismatch,
                reg_write_mismatch,
                trial_reg: ret.reg_write.map(|(reg, _)| reg.index() as u8),
                golden_reg: g.reg_write.map(|(reg, _)| reg.index() as u8),
            }));
            idx += 1;
        }
        if r.deadlock {
            set.observe(&Observation::Deadlock { latency: lat_now(&pipe) });
            terminated = true;
        }
        if r.exception.is_some() {
            set.observe(&Observation::Exception { latency: lat_now(&pipe) });
            terminated = true;
        }
        // Reconvergence check: compare the full-machine fingerprint at
        // the same boundaries the golden run recorded (`status` is
        // `Running` at every recorded boundary, so a stopped trial can
        // never alias one). On a match the two machines are
        // bit-identical, so the rest of the window replays the golden
        // run — stop simulating and back-fill below.
        if cutoff
            && (i + 1) % CUTOFF_STRIDE == 0
            && pipe.status() == Stop::Running
            && golden.fingerprints.get(((i + 1) / CUTOFF_STRIDE - 1) as usize)
                == Some(&pipe.fingerprint())
        {
            cut = true;
            break;
        }
    }
    // The record takes the latched firings. (A cfv still pending on the
    // final compared event is indistinguishable from a label flip and
    // never fires; end-of-trial state comparison adjudicates it.) The
    // cut/drain endings below back-fill via `get_or_insert`.
    let mut trial = UarchTrial {
        workload: id,
        bit,
        region: catalog.region_of(bit).map(|r| r.name).unwrap_or("?"),
        lhf_protected: catalog.lhf_protected(bit),
        firings: *set.firings(),
        extra_dcache_misses: 0,
        extra_dtlb_misses: 0,
        end: EndState::MaskedClean,
    };

    let mut cost = TrialCost { simulated: executed, cut, ..TrialCost::default() };
    if cut {
        // Not `window_cycles - executed`: the exhaustive trial would have
        // stopped when the golden run stops (identical futures), so only
        // the golden run's remaining executed cycles are real savings.
        cost.saved = golden.window_executed - executed;
        // Identical machines have identical futures: the skipped window
        // cycles and the drain would reproduce the golden run's ending
        // and its miss counters, so the counter deltas stay zero and the
        // ending maps from the golden end status. `MaskedClean` (not
        // `DeadResidue`) is exact — the fingerprint match witnessed that
        // even dead microarchitectural state is clean.
        trial.end = match golden.end_status {
            Stop::Halted => EndState::Completed,
            Stop::Running => EndState::MaskedClean,
            Stop::Deadlock => {
                trial.firings.deadlock.get_or_insert(golden.retired - base_retired);
                EndState::Terminated
            }
            Stop::Exception(_) => {
                trial.firings.exception.get_or_insert(golden.retired - base_retired);
                EndState::Terminated
            }
        };
        return (trial, cost);
    }
    trial.end = if terminated {
        EndState::Terminated
    } else {
        drain(&mut pipe, cfg.drain_cycles);
        match pipe.status() {
            Stop::Deadlock => {
                // Saturation during the drain still counts.
                trial.firings.deadlock.get_or_insert(pipe.retired() - base_retired);
                EndState::Terminated
            }
            Stop::Exception(_) => {
                trial.firings.exception.get_or_insert(pipe.retired() - base_retired);
                EndState::Terminated
            }
            _ => {
                // Cheap comparisons first; the memory digest only runs
                // when counters, halt status and registers all match.
                let arch_clean = pipe.retired() == golden.retired
                    && (pipe.status() == Stop::Halted) == (golden.end_status == Stop::Halted)
                    && pipe.arch_regs() == golden.end_regs
                    && pipe.memory_mut().fingerprint() == golden.end_mem_hash;
                if !arch_clean {
                    EndState::Latent
                } else if pipe.state_hash() == golden.end_state_hash {
                    if golden.end_status == Stop::Halted {
                        EndState::Completed
                    } else {
                        EndState::MaskedClean
                    }
                } else {
                    EndState::DeadResidue
                }
            }
        }
    };
    // Miss counters sample here — after the end-of-trial drain, the same
    // point where the golden run samples its own. (They were previously
    // read before the drain, silently excluding drain-window misses.)
    let (_, dc, _, dt) = pipe.miss_counters();
    trial.extra_dcache_misses = dc as i64 - golden.dcache_misses as i64;
    trial.extra_dtlb_misses = dt as i64 - golden.dtlb_misses as i64;
    (trial, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uarch_campaign::maskmap_horizon;
    use proptest::prelude::*;
    use restore_core::SourceSet;
    use restore_maskmap::UarchMaskMap;
    use restore_workloads::Scale;
    use std::sync::OnceLock;

    /// Long-running workload so sampled cycles stay inside the live
    /// region, with the small cycle geometry of the equivalence suites.
    fn map_cfg() -> UarchCampaignConfig {
        UarchCampaignConfig {
            scale: Scale::smoke(),
            warmup_cycles: 500,
            window_cycles: 1_500,
            drain_cycles: 1_000,
            ..UarchCampaignConfig::default()
        }
    }

    /// One shared map (a full horizon replay) for all proptest cases.
    fn shared_map() -> &'static UarchMaskMap {
        static MAP: OnceLock<UarchMaskMap> = OnceLock::new();
        MAP.get_or_init(|| {
            let c = map_cfg();
            let program = WorkloadId::Parserx.build(c.scale);
            UarchMaskMap::build(&c.uarch, &program, maskmap_horizon(&c), 0)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A map-proved injection's predicted record is exactly the
        /// record simulation produces. Each case scans forward from a
        /// random bit at a random plan cycle to the first bit the map
        /// proves, so every case checks a real prune. (The occupancy
        /// half of the map's argument — dead-at-injection verdicts land
        /// on occupancy-dead fields — is pinned in `restore-maskmap`.)
        #[test]
        fn map_predictions_equal_simulated_trials(
            cycle_frac in 0.0f64..1.0,
            bit_frac in 0.0f64..1.0,
        ) {
            let c = map_cfg();
            let id = WorkloadId::Parserx;
            let program = id.build(c.scale);
            let mut pipe = Pipeline::new(c.uarch.clone(), &program);
            let catalog = pipe.catalog();
            let cycle = c.warmup_cycles + ((4 * c.window_cycles) as f64 * cycle_frac) as u64;
            while pipe.cycles() < cycle {
                assert_eq!(pipe.status(), Stop::Running, "workload died inside the plan span");
                pipe.cycle();
            }
            let run = golden_run(&pipe, &c);
            let total = catalog.total_bits;
            let start = ((total as f64 - 1.0) * bit_frac) as u64;
            let Some((bit, proof)) = (0..total).map(|o| (start + o) % total).find_map(|b| {
                shared_map().proves(b, cycle, cycle + run.window_executed).map(|p| (b, p))
            }) else {
                // No provable bit at this cycle at all — nothing to check.
                return;
            };
            let predicted =
                predict_dead_trial(&run, &catalog, id, bit, pipe.retired(), proof.written);
            let (simulated, _) = run_trial(&pipe, &run, &catalog, id, bit, &c, false);
            prop_assert_eq!(
                predicted, simulated,
                "map prediction disagrees with simulation at bit {} cycle {}", bit, cycle
            );
        }
    }

    #[test]
    fn event_key_saturates_below_baseline() {
        // A flipped retirement counter can report `retired_before` below
        // the fork's baseline; the key must clamp, not underflow.
        assert_eq!(event_key(5, 10, 0x40), (0, 0x40));
        assert_eq!(event_key(10, 10, 0x40), (0, 0x40));
        assert_eq!(event_key(17, 10, 0x44), (7, 0x44));
    }

    #[test]
    fn hardened_classification_moves_protected_bits_to_other() {
        let t = UarchTrial {
            workload: WorkloadId::Mcfx,
            bit: 0,
            region: "phys-regfile",
            lhf_protected: true,
            firings: Firings { exception: Some(10), ..Firings::default() },
            extra_dcache_misses: 0,
            extra_dtlb_misses: 0,
            end: EndState::Terminated,
        };
        assert_eq!(t.classify(100, CfvMode::Perfect, false), UarchCategory::Exception);
        assert_eq!(t.classify(100, CfvMode::Perfect, true), UarchCategory::Other);
    }

    #[test]
    fn classification_precedence_and_latency() {
        let t = UarchTrial {
            workload: WorkloadId::Mcfx,
            bit: 0,
            region: "scheduler",
            lhf_protected: false,
            firings: Firings {
                deadlock: Some(500),
                exception: Some(50),
                cfv: Some(20),
                value: Some(5),
                hc_mispredict: Some(80),
                any_mispredict: Some(30),
                signature: Some(64),
                ..Firings::default()
            },
            extra_dcache_misses: 0,
            extra_dtlb_misses: 0,
            end: EndState::Terminated,
        };
        use CfvMode::*;
        assert_eq!(t.classify(10, Perfect, false), UarchCategory::Sdc);
        assert_eq!(t.classify(20, Perfect, false), UarchCategory::Cfv);
        assert_eq!(t.classify(50, Perfect, false), UarchCategory::Exception);
        assert_eq!(t.classify(500, Perfect, false), UarchCategory::Deadlock);
        // Realistic cfv detection fires later than perfect.
        assert_eq!(t.classify(20, HighConfidence, false), UarchCategory::Sdc);
        assert_eq!(t.classify(80, HighConfidence, false), UarchCategory::Exception);
        // The perfect-confidence ablation sits between the two.
        assert_eq!(t.classify(30, AnyMispredict, false), UarchCategory::Cfv);

        // The post-hoc detector selection reads the same observables.
        let paper = SourceSet::paper();
        assert!(!paper.detects(&t.firings, 20), "hc cfv fires at 80, not 20");
        assert!(paper.detects(&t.firings, 50), "the exception at 50 covers it");
        let sig_only = SourceSet {
            exceptions: false,
            watchdog: false,
            cfv: None,
            signature: true,
            dup: false,
        };
        assert!(sig_only.detects(&t.firings, 64), "signature fires at its block boundary");
        assert!(!sig_only.detects(&t.firings, 63));
        let dup_only = SourceSet { signature: false, dup: true, ..sig_only };
        assert!(!dup_only.detects(&t.firings, 10_000), "no protected write diverged");
    }
}
