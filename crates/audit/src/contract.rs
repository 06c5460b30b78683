//! Runtime visitor-contract checker.
//!
//! The compiler proves every field is *classified* by a walk: each walk
//! destructures its struct exhaustively, and a bound field that is never
//! visited is an `unused_variables` error. This module proves the walk
//! itself behaves: [`ContractVisitor`] rides along a `visit_state`
//! traversal recording a full event trace and flagging protocol
//! violations, and [`check_contract`] drives a battery of walks over one
//! machine to verify the cross-walk invariants the injection engine
//! silently relies on:
//!
//! 1. every `word` is preceded by a `region` (no orphan bits),
//! 2. declared widths are nonzero and within the visit method's limit
//!    (`word` 64, `word32` 32, `word8` 8 bits), and values fit their
//!    width mask,
//! 3. two consecutive walks produce identical traces — the global bit
//!    numbering is stable and a read-only visitor does not mutate state,
//! 4. hash-path walks ([`StateHasher`]) do not mutate state either,
//! 5. flipping the same global bit twice restores the original digest
//!    (flip ∘ flip = identity) on a deterministic bit sample,
//! 6. the occupancy channel ends the walk live and every region starts
//!    implicitly live.

use restore_arch::state::{
    width_mask, BitFlipper, FaultState, FieldClass, StateHasher, StateKind, StateVisitor,
};

/// One event observed during a walk, in traversal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// `region(name, kind)`.
    Region {
        /// Region name.
        name: &'static str,
        /// Latch or RAM.
        kind: StateKind,
    },
    /// `word(value, width, class)` (including the `flag`/`word32`/`word8`
    /// wrappers, which funnel into `word`).
    Word {
        /// Value at visit time.
        value: u64,
        /// Declared width.
        width: u32,
        /// Control or data.
        class: FieldClass,
    },
    /// `occupancy(live)`.
    Occupancy(bool),
}

/// One contract violation, with the global bit position it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Global bit index where the walk stood when the violation fired.
    pub at_bit: u64,
    /// Region the walk was in, if any.
    pub region: Option<&'static str>,
    /// Description.
    pub what: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "contract violation at bit {} (region {}): {}",
            self.at_bit,
            self.region.unwrap_or("<none>"),
            self.what
        )
    }
}

/// Recording visitor that checks the per-walk half of the contract.
#[derive(Debug, Default)]
pub struct ContractVisitor {
    /// Full event trace in traversal order.
    pub trace: Vec<TraceEvent>,
    /// Violations observed during this walk.
    pub violations: Vec<Violation>,
    /// Total bits walked.
    pub total_bits: u64,
    region: Option<&'static str>,
    live: bool,
}

impl ContractVisitor {
    /// Fresh checker.
    pub fn new() -> ContractVisitor {
        ContractVisitor {
            trace: Vec::new(),
            violations: Vec::new(),
            total_bits: 0,
            region: None,
            live: true,
        }
    }

    fn violate(&mut self, what: String) {
        self.violations.push(Violation { at_bit: self.total_bits, region: self.region, what });
    }

    /// `true` if the walk ended with the occupancy channel live — dead
    /// trailing state would mean the component forgot to close its
    /// occupancy bracket.
    pub fn ended_live(&self) -> bool {
        self.live
    }
}

impl StateVisitor for ContractVisitor {
    fn region(&mut self, name: &'static str, kind: StateKind) {
        self.region = Some(name);
        self.live = true; // regions start implicitly live
        self.trace.push(TraceEvent::Region { name, kind });
    }

    fn word(&mut self, value: &mut u64, width: u32, class: FieldClass) {
        if self.region.is_none() {
            self.violate(format!("word of width {width} visited before any region was declared"));
        }
        if width == 0 {
            self.violate("zero-width word".to_string());
        } else if width > 64 {
            self.violate(format!("width {width} exceeds the 64-bit word limit"));
        }
        if *value & !width_mask(width) != 0 {
            self.violate(format!("value {:#x} has bits set above declared width {width}", *value));
        }
        self.trace.push(TraceEvent::Word { value: *value, width, class });
        self.total_bits += width as u64;
    }

    /// Flags a width above 32, then forwards to [`StateVisitor::word`],
    /// which flags a zero width.
    fn word32(&mut self, value: &mut u32, width: u32, class: FieldClass) {
        if width > 32 {
            self.violate(format!("width {width} exceeds the 32-bit word32 limit"));
        }
        let mut v = u64::from(*value);
        self.word(&mut v, width, class);
        *value = v as u32;
    }

    /// Flags a width above 8, then forwards to [`StateVisitor::word`],
    /// which flags a zero width.
    fn word8(&mut self, value: &mut u8, width: u32, class: FieldClass) {
        if width > 8 {
            self.violate(format!("width {width} exceeds the 8-bit word8 limit"));
        }
        let mut v = u64::from(*value);
        self.word(&mut v, width, class);
        *value = v as u8;
    }

    fn occupancy(&mut self, live: bool) {
        if self.region.is_none() {
            self.violate("occupancy declared before any region".to_string());
        }
        self.live = live;
        self.trace.push(TraceEvent::Occupancy(live));
    }

    fn wants_occupancy(&self) -> bool {
        true
    }
}

/// Result of a full [`check_contract`] battery.
#[derive(Debug)]
pub struct ContractReport {
    /// Total bits in the walk.
    pub total_bits: u64,
    /// Regions declared.
    pub regions: usize,
    /// Fields (word calls) in the walk.
    pub fields: usize,
    /// Bits exercised by the flip-involution sample.
    pub flips_checked: usize,
    /// All violations, across every phase of the battery.
    pub violations: Vec<Violation>,
}

impl ContractReport {
    /// `true` when every invariant held.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Deterministic sample of up to `max` bit indices in `0..total`,
/// covering both ends and a spread of interior bits (splitmix64 stream,
/// fixed seed — no RNG dependency, reproducible across runs).
fn sample_bits(total: u64, max: usize) -> Vec<u64> {
    if total == 0 {
        return Vec::new();
    }
    let mut bits = vec![0, total - 1];
    let mut x = 0x243f_6a88_85a3_08d3u64; // fixed seed (pi digits)
    while bits.len() < max.min(total as usize) {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let b = z % total;
        if !bits.contains(&b) {
            bits.push(b);
        }
    }
    bits.sort_unstable();
    bits.dedup();
    bits
}

/// Runs the full invariant battery against one machine.
///
/// The machine is walked several times (contract ×3, hash ×3, and two
/// flips per sampled bit); all walks must leave it bit-identical, which
/// the battery itself verifies — on success the caller gets its machine
/// back unperturbed.
pub fn check_contract<M: FaultState>(machine: &mut M, flip_samples: usize) -> ContractReport {
    // Phase 1: record the reference trace.
    let mut first = ContractVisitor::new();
    machine.visit_state(&mut first);
    let mut violations = first.violations.clone();
    if !first.ended_live() {
        violations.push(Violation {
            at_bit: first.total_bits,
            region: None,
            what: "walk ended with the occupancy channel dead".to_string(),
        });
    }

    // A walk that already broke the per-walk contract (orphan words,
    // out-of-width values, dead tail) cannot be driven through the
    // hash/flip phases safely — the hash path debug_asserts exactly the
    // property phase 1 just reported broken. Stop here.
    if !violations.is_empty() {
        let regions = first.trace.iter().filter(|e| matches!(e, TraceEvent::Region { .. })).count();
        let fields = first.trace.iter().filter(|e| matches!(e, TraceEvent::Word { .. })).count();
        return ContractReport {
            total_bits: first.total_bits,
            regions,
            fields,
            flips_checked: 0,
            violations,
        };
    }

    // Phase 2: a second walk must produce the identical trace — stable
    // bit numbering, and the recording walk itself mutated nothing.
    let mut second = ContractVisitor::new();
    machine.visit_state(&mut second);
    if second.trace != first.trace {
        violations.push(diff_traces(&first.trace, &second.trace, "second contract walk"));
    }

    // Phase 3: hash walks must not mutate state. Hash twice (digests
    // must agree), then re-trace and compare against the reference.
    let mut h1 = StateHasher::new();
    machine.visit_state(&mut h1);
    let baseline = h1.finish();
    let mut h2 = StateHasher::new();
    machine.visit_state(&mut h2);
    if h2.finish() != baseline {
        violations.push(Violation {
            at_bit: 0,
            region: None,
            what: "two consecutive hash walks disagree — walk order or state is unstable"
                .to_string(),
        });
    }
    let mut post_hash = ContractVisitor::new();
    machine.visit_state(&mut post_hash);
    if post_hash.trace != first.trace {
        violations.push(diff_traces(&first.trace, &post_hash.trace, "post-hash walk"));
    }

    // Phase 4: flip ∘ flip = identity on a deterministic bit sample.
    let sample = sample_bits(first.total_bits, flip_samples);
    let mut flips_checked = 0;
    for &bit in &sample {
        let mut f1 = BitFlipper::new(bit);
        machine.visit_state(&mut f1);
        if !f1.flipped {
            violations.push(Violation {
                at_bit: bit,
                region: None,
                what: "BitFlipper never reached its target bit — walk shorter than counted"
                    .to_string(),
            });
            continue;
        }
        let mut mid = StateHasher::new();
        machine.visit_state(&mut mid);
        if mid.finish() == baseline {
            violations.push(Violation {
                at_bit: bit,
                region: None,
                what: "flipping a bit left the state digest unchanged — the bit is not \
                       actually wired into the machine"
                    .to_string(),
            });
        }
        let mut f2 = BitFlipper::new(bit);
        machine.visit_state(&mut f2);
        let mut restored = StateHasher::new();
        machine.visit_state(&mut restored);
        if restored.finish() != baseline {
            violations.push(Violation {
                at_bit: bit,
                region: None,
                what: "flip ∘ flip did not restore the original digest — the field's \
                       visit round-trips lossily"
                    .to_string(),
            });
        }
        flips_checked += 1;
    }

    let regions = first.trace.iter().filter(|e| matches!(e, TraceEvent::Region { .. })).count();
    let fields = first.trace.iter().filter(|e| matches!(e, TraceEvent::Word { .. })).count();
    ContractReport { total_bits: first.total_bits, regions, fields, flips_checked, violations }
}

/// Builds a violation describing the first divergence between two traces.
fn diff_traces(reference: &[TraceEvent], other: &[TraceEvent], label: &str) -> Violation {
    let idx = reference
        .iter()
        .zip(other.iter())
        .position(|(a, b)| a != b)
        .unwrap_or(reference.len().min(other.len()));
    let describe = |t: Option<&TraceEvent>| match t {
        Some(e) => format!("{e:?}"),
        None => "<trace ended>".to_string(),
    };
    Violation {
        at_bit: 0,
        region: None,
        what: format!(
            "{label} diverged from the reference at event {idx}: expected {}, got {} \
             (trace lengths {} vs {})",
            describe(reference.get(idx)),
            describe(other.get(idx)),
            reference.len(),
            other.len(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Good {
        a: u64,
        b: u32,
        c: bool,
    }

    impl FaultState for Good {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("good", StateKind::Latch);
            v.word(&mut self.a, 64, FieldClass::Data);
            v.word32(&mut self.b, 12, FieldClass::Control);
            v.flag(&mut self.c);
        }
    }

    #[test]
    fn well_behaved_machine_passes() {
        let mut m = Good { a: u64::MAX, b: 0xFFF, c: true };
        let report = check_contract(&mut m, 16);
        assert!(report.is_ok(), "{:#?}", report.violations);
        assert_eq!(report.total_bits, 77);
        assert_eq!(report.regions, 1);
        assert_eq!(report.fields, 3);
        assert!(report.flips_checked >= 2);
        // The battery hands the machine back unperturbed.
        assert_eq!((m.a, m.b, m.c), (u64::MAX, 0xFFF, true));
    }

    struct Orphan(u64);

    impl FaultState for Orphan {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.word(&mut self.0, 8, FieldClass::Data); // no region first
        }
    }

    #[test]
    fn word_before_region_is_violated() {
        let report = check_contract(&mut Orphan(1), 0);
        assert!(report.violations.iter().any(|v| v.what.contains("before any region")));
    }

    struct WideValue(u64);

    impl FaultState for WideValue {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("wide", StateKind::Latch);
            v.word(&mut self.0, 4, FieldClass::Data); // holds 0xFF — too wide
        }
    }

    #[test]
    fn value_exceeding_width_is_violated() {
        let report = check_contract(&mut WideValue(0xFF), 0);
        assert!(
            report.violations.iter().any(|v| v.what.contains("above declared width")),
            "{:#?}",
            report.violations,
        );
    }

    /// Declares more bits than the visit method's field type holds.
    struct Overwide {
        tag: u8,
        word: u32,
    }

    impl FaultState for Overwide {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            let Overwide { tag, word } = self;
            v.region("overwide", StateKind::Latch);
            v.word8(tag, 9, FieldClass::Control);
            v.word32(word, 33, FieldClass::Control);
        }
    }

    #[test]
    fn narrow_visit_wider_than_its_type_is_violated() {
        let report = check_contract(&mut Overwide { tag: 1, word: 1 }, 0);
        let what: Vec<&str> = report.violations.iter().map(|v| v.what.as_str()).collect();
        assert_eq!(
            what,
            ["width 9 exceeds the 8-bit word8 limit", "width 33 exceeds the 32-bit word32 limit"],
        );
        assert_eq!(report.total_bits, 42, "the walk still counts every declared bit");
    }

    #[test]
    fn zero_width_narrow_visit_is_violated() {
        struct Empty(u8);
        impl FaultState for Empty {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                v.region("empty", StateKind::Latch);
                v.word8(&mut self.0, 0, FieldClass::Control);
            }
        }
        let report = check_contract(&mut Empty(0), 0);
        let what: Vec<&str> = report.violations.iter().map(|v| v.what.as_str()).collect();
        assert_eq!(what, ["zero-width word"]);
    }

    struct DeadTail(u64);

    impl FaultState for DeadTail {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("tail", StateKind::Ram);
            v.occupancy(false);
            v.word(&mut self.0, 8, FieldClass::Data);
        }
    }

    #[test]
    fn walk_ending_dead_is_violated() {
        let report = check_contract(&mut DeadTail(0), 0);
        assert!(report.violations.iter().any(|v| v.what.contains("occupancy channel dead")));
    }

    /// A walk whose order depends on mutable state: the first traversal
    /// perturbs a counter, so the second trace differs.
    struct Unstable {
        a: u64,
        walks: u64,
    }

    impl FaultState for Unstable {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("unstable", StateKind::Latch);
            self.walks += 1;
            let mut w = self.walks & 0x7;
            v.word(&mut w, 3, FieldClass::Control);
            v.word(&mut self.a, 64, FieldClass::Data);
        }
    }

    #[test]
    fn mutating_walk_is_caught_by_trace_comparison() {
        let report = check_contract(&mut Unstable { a: 5, walks: 0 }, 0);
        assert!(
            report.violations.iter().any(|v| v.what.contains("diverged from the reference")),
            "{:#?}",
            report.violations,
        );
    }

    /// A field whose visit truncates on write-back: flips above the real
    /// storage width are silently dropped, so flip ∘ flip breaks.
    struct Lossy {
        small: u8,
    }

    impl FaultState for Lossy {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("lossy", StateKind::Latch);
            // Declares 16 bits but stores 8: bits 8..16 vanish on write.
            let mut w = self.small as u64;
            v.word(&mut w, 16, FieldClass::Data);
            self.small = w as u8;
        }
    }

    #[test]
    fn lossy_field_fails_flip_involution() {
        let report = check_contract(&mut Lossy { small: 0xAA }, 16);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.what.contains("not actually wired") || v.what.contains("lossily")),
            "{:#?}",
            report.violations,
        );
    }

    #[test]
    fn sample_bits_is_deterministic_and_covers_ends() {
        let a = sample_bits(1000, 32);
        let b = sample_bits(1000, 32);
        assert_eq!(a, b);
        assert!(a.contains(&0));
        assert!(a.contains(&999));
        assert!(a.len() <= 32);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(sample_bits(0, 8).is_empty());
        assert_eq!(sample_bits(1, 8), vec![0]);
    }
}
