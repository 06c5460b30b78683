//! Branch prediction: McFarling combining predictor, BTB, return address
//! stack, and the JRS confidence estimator.
//!
//! The JRS confidence predictor (Jacobsen, Rotenberg & Smith, MICRO-29) is
//! the load-bearing component for ReStore: a *high-confidence* branch
//! misprediction is treated as a soft-error symptom (§3.2.2). The paper
//! selected JRS "prioritizing performance over coverage" — its resetting
//! counters mark a branch high-confidence only after a long run of correct
//! predictions, keeping false-positive rollbacks rare.
//!
//! Predictor tables are excluded from fault injection (corrupt entries
//! only cause mispredictions, which the machine recovers from by design),
//! so none of these structures implement
//! [`FaultState`](crate::state::FaultState). They are still part of the
//! full-machine reconvergence fingerprint — a diverged table entry can
//! steer a later prediction, so each structure derives `Hash` over its
//! complete state, and every table is a slice of integers the
//! fingerprint folds in as one byte run.

use crate::UarchConfig;

#[inline]
fn ctr_update(ctr: &mut u8, taken: bool) {
    if taken {
        *ctr = (*ctr + 1).min(3);
    } else {
        *ctr = ctr.saturating_sub(1);
    }
}

/// McFarling combining predictor: bimodal + gshare + chooser.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BranchPredictor {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>, // 0..=1 prefer bimodal, 2..=3 prefer gshare
    mask: u64,
    history_mask: u64,
    /// Speculative global history (shifted at prediction time, repaired on
    /// mispredict from the BOB snapshot).
    pub ghr: u64,
}

impl BranchPredictor {
    /// Builds predictor tables sized by `config`, weakly-taken initial
    /// state.
    pub fn new(config: &UarchConfig) -> BranchPredictor {
        let n = config.bpred_entries.next_power_of_two();
        BranchPredictor {
            bimodal: vec![2; n],
            gshare: vec![2; n],
            chooser: vec![1; n],
            mask: n as u64 - 1,
            history_mask: (1u64 << config.history_bits) - 1,
            ghr: 0,
        }
    }

    #[inline]
    fn idx(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    #[inline]
    fn gidx(&self, pc: u64, ghr: u64) -> usize {
        (((pc >> 2) ^ ghr) & self.mask) as usize
    }

    /// Predicts a conditional branch at `pc`; returns the taken guess and
    /// the history register value used (needed for the retire-time
    /// update and the JRS index).
    pub fn predict(&mut self, pc: u64) -> (bool, u64) {
        let used_ghr = self.ghr & self.history_mask;
        let b = self.bimodal[self.idx(pc)] >= 2;
        let g = self.gshare[self.gidx(pc, used_ghr)] >= 2;
        let taken = if self.chooser[self.idx(pc)] >= 2 { g } else { b };
        // Speculative history update.
        self.ghr = ((self.ghr << 1) | taken as u64) & self.history_mask;
        (taken, used_ghr)
    }

    /// Commits the outcome of a retired branch predicted with history
    /// `used_ghr`.
    pub fn update(&mut self, pc: u64, used_ghr: u64, taken: bool, predicted: bool) {
        let bi = self.idx(pc);
        let gi = self.gidx(pc, used_ghr);
        let b_correct = (self.bimodal[bi] >= 2) == taken;
        let g_correct = (self.gshare[gi] >= 2) == taken;
        ctr_update(&mut self.bimodal[bi], taken);
        ctr_update(&mut self.gshare[gi], taken);
        if b_correct != g_correct {
            ctr_update(&mut self.chooser[bi], g_correct);
        }
        let _ = predicted;
    }

    /// Repairs the speculative history after a misprediction: the restored
    /// pre-prediction history with the true outcome shifted in.
    pub fn repair(&mut self, used_ghr: u64, actual_taken: bool) {
        self.ghr = ((used_ghr << 1) | actual_taken as u64) & self.history_mask;
    }
}

/// Direct-mapped branch target buffer for jump/indirect targets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Btb {
    tags: Vec<u64>,
    targets: Vec<u64>,
    mask: u64,
}

impl Btb {
    /// Builds an empty BTB.
    pub fn new(config: &UarchConfig) -> Btb {
        let n = config.btb_entries.next_power_of_two();
        Btb { tags: vec![u64::MAX; n], targets: vec![0; n], mask: n as u64 - 1 }
    }

    #[inline]
    fn idx(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Predicted target for `pc`, if the entry matches.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        let i = self.idx(pc);
        (self.tags[i] == pc).then_some(self.targets[i])
    }

    /// Installs/updates the target for `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let i = self.idx(pc);
        self.tags[i] = pc;
        self.targets[i] = target;
    }
}

/// Circular return address stack, speculatively pushed/popped at fetch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ras {
    stack: Vec<u64>,
    /// Top-of-stack index (modular counter). Snapshotted into the BOB and
    /// restored on misprediction; clobbered entries are accepted, as in
    /// real hardware.
    pub top: u32,
}

impl Ras {
    /// Builds an empty RAS.
    pub fn new(config: &UarchConfig) -> Ras {
        Ras { stack: vec![0; config.ras_entries.max(1)], top: 0 }
    }

    /// Pushes a return address (call).
    pub fn push(&mut self, addr: u64) {
        self.top = self.top.wrapping_add(1);
        let i = self.top as usize % self.stack.len();
        self.stack[i] = addr;
    }

    /// Pops the predicted return address.
    pub fn pop(&mut self) -> u64 {
        let i = self.top as usize % self.stack.len();
        let v = self.stack[i];
        self.top = self.top.wrapping_sub(1);
        v
    }
}

/// Memory dependence predictor (the paper's "memory dependence
/// prediction" feature), in the spirit of store-sets: loads default to
/// aggressive speculation past older stores with unresolved addresses;
/// a load PC that has ever caused a memory-order violation becomes
/// conservative (sticky — real designs clear periodically; sticky is the
/// safe long-run behaviour and keeps the model deterministic).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemDepPredictor {
    /// One conflict bit per entry, 64 to a word, so the table hashes as
    /// one run of words rather than one `bool` at a time.
    conflict: Vec<u64>,
    mask: u64,
}

impl MemDepPredictor {
    /// Builds an all-speculate table.
    pub fn new(entries: usize) -> MemDepPredictor {
        let n = entries.next_power_of_two();
        MemDepPredictor { conflict: vec![0; n.div_ceil(64)], mask: n as u64 - 1 }
    }

    #[inline]
    fn idx(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// `true` if a load at `pc` may bypass older stores with unknown
    /// addresses.
    pub fn may_speculate(&self, pc: u64) -> bool {
        let i = self.idx(pc);
        (self.conflict[i / 64] >> (i % 64)) & 1 == 0
    }

    /// Records a memory-order violation by the load at `pc`.
    pub fn record_violation(&mut self, pc: u64) {
        let i = self.idx(pc);
        self.conflict[i / 64] |= 1 << (i % 64);
    }
}

/// JRS confidence estimator: a table of resetting counters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JrsConfidence {
    counters: Vec<u8>,
    mask: u64,
    max: u8,
    threshold: u8,
}

impl JrsConfidence {
    /// Builds a zeroed (no-confidence) table.
    pub fn new(config: &UarchConfig) -> JrsConfidence {
        let n = config.jrs_entries.next_power_of_two();
        JrsConfidence {
            counters: vec![0; n],
            mask: n as u64 - 1,
            max: config.jrs_max,
            threshold: config.jrs_threshold,
        }
    }

    #[inline]
    fn idx(&self, pc: u64, ghr: u64) -> usize {
        (((pc >> 2) ^ ghr) & self.mask) as usize
    }

    /// `true` if a misprediction of this branch should be treated as a
    /// soft-error symptom (the prediction was high-confidence).
    pub fn high_confidence(&self, pc: u64, ghr: u64) -> bool {
        self.counters[self.idx(pc, ghr)] >= self.threshold
    }

    /// Retire-time update: correct predictions increment (saturating),
    /// mispredictions reset to zero.
    pub fn update(&mut self, pc: u64, ghr: u64, correct: bool) {
        let i = self.idx(pc, ghr);
        let c = &mut self.counters[i];
        *c = if correct { (*c + 1).min(self.max) } else { 0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> UarchConfig {
        UarchConfig::default()
    }

    #[test]
    fn bimodal_learns_a_bias() {
        let mut p = BranchPredictor::new(&cfg());
        let pc = 0x1000;
        for _ in 0..8 {
            let (pred, ghr) = p.predict(pc);
            p.update(pc, ghr, true, pred);
        }
        let (pred, _) = p.predict(pc);
        assert!(pred, "always-taken branch should be predicted taken");
    }

    #[test]
    fn gshare_learns_an_alternating_pattern() {
        let mut p = BranchPredictor::new(&cfg());
        let pc = 0x2000;
        let mut correct = 0;
        let mut outcome = false;
        for i in 0..200 {
            outcome = !outcome;
            let (pred, ghr) = p.predict(pc);
            if pred == outcome && i >= 100 {
                correct += 1;
            }
            if pred != outcome {
                p.repair(ghr, outcome);
            }
            p.update(pc, ghr, outcome, pred);
        }
        assert!(correct > 90, "gshare should nail alternation, got {correct}/100");
    }

    #[test]
    fn repair_restores_history() {
        let mut p = BranchPredictor::new(&cfg());
        let (_, ghr) = p.predict(0x1000);
        p.repair(ghr, true);
        assert_eq!(p.ghr, ((ghr << 1) | 1) & ((1 << 12) - 1));
    }

    #[test]
    fn btb_miss_then_hit() {
        let mut b = Btb::new(&cfg());
        assert_eq!(b.lookup(0x4000), None);
        b.update(0x4000, 0x8888);
        assert_eq!(b.lookup(0x4000), Some(0x8888));
        // A colliding pc with different tag misses.
        let stride = (cfg().btb_entries.next_power_of_two() as u64) << 2;
        assert_eq!(b.lookup(0x4000 + stride), None);
    }

    #[test]
    fn ras_is_lifo() {
        let mut r = Ras::new(&cfg());
        r.push(0x100);
        r.push(0x200);
        assert_eq!(r.pop(), 0x200);
        assert_eq!(r.pop(), 0x100);
    }

    #[test]
    fn ras_top_restore_recovers_speculative_pops() {
        let mut r = Ras::new(&cfg());
        r.push(0x100);
        let snapshot = r.top;
        let _ = r.pop(); // speculative pop on a wrong path
        r.top = snapshot;
        assert_eq!(r.pop(), 0x100);
    }

    #[test]
    fn memdep_speculates_until_burned() {
        let mut m = MemDepPredictor::new(1024);
        assert!(m.may_speculate(0x1000));
        m.record_violation(0x1000);
        assert!(!m.may_speculate(0x1000));
        assert!(m.may_speculate(0x1004), "other PCs unaffected");
    }

    #[test]
    fn jrs_counters_reset_on_mispredict() {
        let mut j = JrsConfidence::new(&cfg());
        let (pc, ghr) = (0x3000, 0);
        for _ in 0..15 {
            j.update(pc, ghr, true);
        }
        assert!(j.high_confidence(pc, ghr));
        j.update(pc, ghr, false);
        assert!(!j.high_confidence(pc, ghr));
        // Needs the full run again.
        for _ in 0..14 {
            j.update(pc, ghr, true);
        }
        assert!(!j.high_confidence(pc, ghr));
        j.update(pc, ghr, true);
        assert!(j.high_confidence(pc, ghr));
    }

    #[test]
    fn jrs_threshold_is_conservative_by_default() {
        // Paper: JRS with 4-bit resetting counters, threshold at max,
        // "prioritizing performance over coverage".
        let c = cfg();
        assert_eq!(c.jrs_threshold, c.jrs_max);
    }

    /// Pins the estimator's behaviour at the historical defaults (the
    /// geometry was once compile-time constants; it is now swept through
    /// `UarchConfig`, and the default-config estimator must keep the
    /// exact historical behaviour): 1024 entries, counters saturating at
    /// 15, high confidence only at 15 consecutive correct predictions.
    #[test]
    fn jrs_default_geometry_pins_historical_behaviour() {
        let c = cfg();
        assert_eq!((c.jrs_entries, c.jrs_max, c.jrs_threshold), (1024, 15, 15));
        let mut j = JrsConfidence::new(&c);
        let (pc, ghr) = (0x3000, 0);
        // Exactly 15 correct predictions reach high confidence — not 14.
        for n in 1..=20u32 {
            j.update(pc, ghr, true);
            assert_eq!(j.high_confidence(pc, ghr), n >= 15, "after {n} correct predictions");
        }
        // The 1024-entry index masks (pc>>2)^ghr: a pc 4096 bytes away
        // aliases to the same counter, one 4 bytes away does not.
        assert!(j.high_confidence(pc + 4096, ghr), "aliased entry shares the counter");
        assert!(!j.high_confidence(pc + 4, ghr), "neighbouring entry is independent");
    }

    /// The runtime geometry knobs are live: a lower threshold reaches
    /// confidence sooner, and a smaller table changes the aliasing set.
    #[test]
    fn jrs_geometry_knobs_change_behaviour() {
        let relaxed = UarchConfig { jrs_threshold: 4, ..cfg() };
        let mut j = JrsConfidence::new(&relaxed);
        let (pc, ghr) = (0x3000, 0);
        for _ in 0..4 {
            j.update(pc, ghr, true);
        }
        assert!(j.high_confidence(pc, ghr), "threshold 4 reaches confidence in 4 updates");

        let small = UarchConfig { jrs_entries: 16, jrs_threshold: 1, ..cfg() };
        let mut j = JrsConfidence::new(&small);
        j.update(pc, ghr, true);
        assert!(j.high_confidence(pc + 64, ghr), "16-entry table aliases at 64-byte stride");
    }
}
