//! Bit-addressable state: the fault-injection substrate.
//!
//! The paper's fault model is "a single bit flip of a state element"
//! (§4.2), applied to a latch-level Verilog model. This module gives both
//! Rust machine models — the architectural [`crate::Cpu`] and the
//! microarchitectural pipeline in `restore-uarch` (which re-exports this
//! module as `restore_uarch::state`) — the same property: every
//! structure walks its state bits through a [`StateVisitor`], so one
//! `visit_state` implementation per component serves four uses:
//!
//! * [`BitCounter`] — how many bits of eligible state exist (the paper's
//!   "~46,000 bits of interesting state"),
//! * [`BitFlipper`] — flip exactly one globally-indexed bit,
//! * [`StateHasher`] — order-sensitive digest for golden-run masking
//!   comparison (one [`Fingerprint::mix`] per field),
//! * [`RangeRecorder`] — build the [`StateCatalog`] of named regions with
//!   latch/RAM classification and parity/ECC protection domains (§5.2.2's
//!   "low hanging fruit").
//!
//! Caches and predictor tables are deliberately **not** visited: the paper
//! excludes them ("caches are easily protected by ECC or parity and
//! corrupt predictor table entries cannot lead to failure").

use std::hash::Hasher;

/// Latch vs. SRAM classification of a component (paper §5.1.2 runs a
/// latches-only campaign; §5.2.2 protects SRAMs with ECC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// Pipeline latches / flip-flop registers.
    Latch,
    /// SRAM-array-like storage (register file, alias tables, queues).
    Ram,
}

/// Role of a field within its component, used to scope the hardened
/// pipeline's parity protection ("parity was added to the control word
/// latches within the pipeline").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldClass {
    /// Control word bits: opcodes, register tags, valid/ready bits,
    /// queue indices. Parity-protected in the hardened pipeline.
    Control,
    /// Datapath values: operands, addresses, PCs, store data. Not covered
    /// by the paper's low-hanging-fruit parity.
    Data,
}

/// Visitor over a component's state bits.
///
/// Components call [`StateVisitor::region`] once (with their name and
/// kind), then [`StateVisitor::word`] for every field in a fixed order.
/// The traversal order defines the global bit numbering, so it must be
/// deterministic — all components iterate fixed-size arrays.
pub trait StateVisitor {
    /// Starts a named region (one microarchitectural component).
    fn region(&mut self, name: &'static str, kind: StateKind);
    /// Visits one field of up to 64 bits.
    fn word(&mut self, value: &mut u64, width: u32, class: FieldClass);

    /// Visits a boolean field (1 bit, control).
    fn flag(&mut self, value: &mut bool) {
        let mut v = *value as u64;
        self.word(&mut v, 1, FieldClass::Control);
        *value = v & 1 != 0;
    }

    /// Visits a `u32` field.
    fn word32(&mut self, value: &mut u32, width: u32, class: FieldClass) {
        debug_assert!(width <= 32);
        let mut v = *value as u64;
        self.word(&mut v, width, class);
        *value = v as u32;
    }

    /// Visits a `u8` field.
    fn word8(&mut self, value: &mut u8, width: u32, class: FieldClass) {
        debug_assert!(width <= 8);
        let mut v = *value as u64;
        self.word(&mut v, width, class);
        *value = v as u8;
    }

    /// Declares the liveness of the fields visited *after* this call:
    /// `false` means the machine's own occupancy metadata (queue
    /// pointers, valid bits, the rename free list) proves the upcoming
    /// fields cannot be read before they are next overwritten. The
    /// setting holds until the next `occupancy` or [`StateVisitor::region`]
    /// call — every region starts implicitly live. Consumes no bits, so
    /// the global bit numbering is identical whether or not a component
    /// reports occupancy.
    fn occupancy(&mut self, _live: bool) {}

    /// `true` if this visitor consumes [`StateVisitor::occupancy`] calls.
    /// Components may skip *computing* occupancy (not the bit walk!) for
    /// visitors that ignore it — the hash and flip hot paths.
    fn wants_occupancy(&self) -> bool {
        false
    }

    /// Declares that the set bits of `mask` in the *next* field visited
    /// are statically masked: the machine's own control state (a role
    /// tag, a valid bit, a decoded opcode) proves that flipping them
    /// cannot change any future architectural observable for as long as
    /// that control state holds. One-shot — the declaration applies to
    /// the immediately following `word`/`word32`/`word8`/`flag` call and
    /// then clears, so un-annotated fields implicitly carry mask `0`
    /// (nothing provable). Like [`StateVisitor::occupancy`] it consumes
    /// no bits: the global bit numbering is identical whether or not a
    /// component reports masks.
    fn masked(&mut self, _mask: u64) {}

    /// `true` if this visitor consumes [`StateVisitor::masked`] calls.
    /// Mask computation requires decoding in-flight instruction words,
    /// so components skip it entirely — not just the call — for the
    /// hash and flip hot paths that ignore it.
    fn wants_masks(&self) -> bool {
        false
    }

    /// Visits one entry of an array structure (a queue slot, a latch, a
    /// checkpoint) by running `visit` on it. `visit` makes the entry's
    /// field visits and whatever mask and occupancy declarations go with
    /// them, and those may depend only on the entry's own fields; a mask
    /// it declares applies to one of those fields. So an entry equal to
    /// its copy at a visitor's previous walk of the same machine walks
    /// exactly as it did then, and a visitor that remembers that walk
    /// may skip `visit`. Declarations that depend on anything else (a
    /// queue slot's occupancy, say) are made by the caller, outside
    /// `visit`. The default runs `visit`, so every other visitor walks
    /// every entry and the bit numbering does not depend on this hook.
    fn entry<E: Copy + Eq + 'static>(
        &mut self,
        entry: &mut E,
        visit: impl FnOnce(&mut E, &mut Self),
    ) where
        Self: Sized,
    {
        visit(entry, self);
    }
}

/// Mask covering the low `width` bits of a field.
#[inline]
pub fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// A component whose state bits can be visited.
///
/// A walk destructures `self` with a pattern that names every field and
/// has no `..`. A field that is injectable state is bound and handed to
/// the visitor; a field that is not (a predictor table, a cache, a
/// simulation counter) is bound `_`, with the reason beside it. A field
/// added to the struct then fails to compile (E0027) until its walk
/// classifies it.
///
/// A binding's only use is its visit: inputs derived from fields
/// (occupancy, masks, pointer widths) are read from `self` before the
/// pattern. So with `unused_variables` denied, as the workspace lints
/// do, a field that is bound but never visited fails to compile too.
/// `tests/walk_guard.rs` compiles one walk with each defect and checks
/// that each fails with its own diagnostic and its fixed twin compiles.
pub trait FaultState {
    /// Walks every eligible state bit in deterministic order.
    fn visit_state<V: StateVisitor>(&mut self, v: &mut V);
}

/// Counts total bits.
#[derive(Debug, Default)]
pub struct BitCounter {
    /// Total bits visited.
    pub bits: u64,
}

impl StateVisitor for BitCounter {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {}
    fn word(&mut self, _value: &mut u64, width: u32, _class: FieldClass) {
        self.bits += width as u64;
    }
}

/// Flips one bit, identified by its global index in traversal order.
#[derive(Debug)]
pub struct BitFlipper {
    target: u64,
    pos: u64,
    /// `true` once the target bit has been flipped.
    pub flipped: bool,
}

impl BitFlipper {
    /// Creates a flipper for global bit `target`.
    pub fn new(target: u64) -> BitFlipper {
        BitFlipper { target, pos: 0, flipped: false }
    }
}

impl StateVisitor for BitFlipper {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {}
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        let w = width as u64;
        if !self.flipped && self.target >= self.pos && self.target < self.pos + w {
            *value ^= 1u64 << (self.target - self.pos);
            self.flipped = true;
        }
        self.pos += w;
    }
}

/// Digest of the visited state, order- and width-sensitive: one
/// [`Fingerprint::mix`] per region and per field.
///
/// Every mixer step is a bijection of the running hash for a fixed input
/// word (and of the word for a fixed running hash), so two walks that
/// differ in exactly one field's value never collide.
#[derive(Debug, Default)]
pub struct StateHasher {
    f: Fingerprint,
}

impl StateHasher {
    /// Fresh hasher.
    pub fn new() -> StateHasher {
        StateHasher::default()
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.f.finish()
    }
}

impl StateVisitor for StateHasher {
    fn region(&mut self, name: &'static str, _kind: StateKind) {
        self.f.mix(name.len() as u64);
    }
    fn word(&mut self, value: &mut u64, width: u32, _class: FieldClass) {
        debug_assert!(width == 64 || *value < (1u64 << width), "field exceeds declared width");
        self.f.mix(*value ^ ((width as u64) << 56));
    }
}

/// Order-sensitive word accumulator: the one mixer behind every
/// in-process digest — [`StateHasher`], the per-page digest behind
/// `Memory::fingerprint`, and, as a [`Hasher`], the derived `Hash` of
/// every component that `Cpu::fingerprint` and the full-machine
/// reconvergence fingerprint (`Pipeline::fingerprint` in
/// `restore-uarch`) fold in.
///
/// It mixes one word per step (a splitmix64-style avalanche), because
/// those digests are sampled every few hundred cycles over tens of
/// thousands of words (predictor tables, cache tag arrays, dirty memory
/// pages). A slice of integers reaches [`Hasher::write`] as one byte
/// run, folded eight bytes per step, so a table costs one mix per
/// word, not per element. None of these digests is persisted: the ones
/// that outlive a process (the trial store's check hash,
/// `ConfigDigest`, masking-map files) stay FNV-1a and unchanged.
#[derive(Debug)]
pub struct Fingerprint {
    hash: u64,
}

impl Fingerprint {
    /// Fresh accumulator.
    pub fn new() -> Fingerprint {
        Fingerprint { hash: 0x9e37_79b9_7f4a_7c15 }
    }

    /// Folds one word into the digest; ordering matters. For a fixed
    /// `v` the step is a bijection of the running hash, and for a fixed
    /// running hash it is a bijection of `v`.
    #[inline]
    pub fn mix(&mut self, v: u64) {
        let mut x = self.hash ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        self.hash = x;
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// Each integer the machine types hold is one [`Fingerprint::mix`];
/// byte runs fold in as packed little-endian words.
impl Hasher for Fingerprint {
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("chunk of 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            // Tag the tail with its length so `[1]` and `[1, 0]` differ.
            self.mix(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Records, for every field in traversal order, whether the owning
/// component reported it live — an occupancy snapshot of a machine at
/// one cycle.
///
/// Field numbering matches [`RangeRecorder::fields`] exactly (both push
/// one entry per [`StateVisitor::word`] call), so `live[i]` describes
/// `catalog.fields[i]`.
#[derive(Debug, Default)]
pub struct OccupancyRecorder {
    /// Per-field liveness, in traversal order. `false` means the
    /// component's occupancy metadata proves the field is dead:
    /// unreadable before its next overwrite.
    pub live: Vec<bool>,
    current: bool,
}

impl OccupancyRecorder {
    /// Fresh recorder.
    pub fn new() -> OccupancyRecorder {
        OccupancyRecorder { live: Vec::new(), current: true }
    }

    /// Fields reported dead.
    pub fn dead_fields(&self) -> usize {
        self.live.iter().filter(|&&l| !l).count()
    }
}

impl StateVisitor for OccupancyRecorder {
    fn region(&mut self, _name: &'static str, _kind: StateKind) {
        self.current = true;
    }
    fn word(&mut self, _value: &mut u64, _width: u32, _class: FieldClass) {
        self.live.push(self.current);
    }
    fn occupancy(&mut self, live: bool) {
        self.current = live;
    }
    fn wants_occupancy(&self) -> bool {
        true
    }
}

/// One named region of the global bit space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateRegion {
    /// Component name.
    pub name: &'static str,
    /// Latch or RAM.
    pub kind: StateKind,
    /// First global bit index of the region.
    pub start: u64,
    /// Bits in the region.
    pub len: u64,
    /// Bits in the region classified as control-word bits.
    pub control_bits: u64,
    /// Whole region is ECC-protected in the hardened pipeline (§5.2.2's
    /// "register file and other key data stores"). Set via
    /// [`StateCatalog::mark_ecc`].
    pub ecc: bool,
}

/// Records region boundaries and per-field classes during a traversal.
#[derive(Debug, Default)]
pub struct RangeRecorder {
    regions: Vec<StateRegion>,
    /// `(global_start, width, class)` for every field, in order.
    pub fields: Vec<(u64, u32, FieldClass)>,
    pos: u64,
}

impl RangeRecorder {
    /// Fresh recorder.
    pub fn new() -> RangeRecorder {
        RangeRecorder::default()
    }

    /// Finalises into a catalog.
    pub fn into_catalog(mut self) -> StateCatalog {
        if let Some(last) = self.regions.last_mut() {
            last.len = self.pos - last.start;
        }
        StateCatalog { regions: self.regions, fields: self.fields, total_bits: self.pos }
    }
}

impl StateVisitor for RangeRecorder {
    fn region(&mut self, name: &'static str, kind: StateKind) {
        if let Some(last) = self.regions.last_mut() {
            last.len = self.pos - last.start;
        }
        self.regions.push(StateRegion {
            name,
            kind,
            start: self.pos,
            len: 0,
            control_bits: 0,
            ecc: false,
        });
    }
    fn word(&mut self, _value: &mut u64, width: u32, class: FieldClass) {
        self.fields.push((self.pos, width, class));
        if class == FieldClass::Control {
            if let Some(last) = self.regions.last_mut() {
                last.control_bits += width as u64;
            }
        }
        self.pos += width as u64;
    }
}

/// The pipeline's complete map of injectable state.
///
/// Built once per configuration by walking the pipeline with a
/// [`RangeRecorder`]; campaigns use it to draw uniformly distributed
/// target bits, restrict to latches (§5.1.2), or test protection
/// domains (§5.2.2).
#[derive(Debug, Clone)]
pub struct StateCatalog {
    /// All regions in traversal order.
    pub regions: Vec<StateRegion>,
    /// `(global_start, width, class)` per field.
    pub fields: Vec<(u64, u32, FieldClass)>,
    /// Total eligible bits.
    pub total_bits: u64,
}

impl StateCatalog {
    /// Marks the named regions as ECC-protected in the hardened pipeline.
    pub fn mark_ecc(&mut self, names: &[&str]) {
        for r in self.regions.iter_mut() {
            r.ecc = names.contains(&r.name);
        }
    }

    /// The region containing a global bit index.
    pub fn region_of(&self, bit: u64) -> Option<&StateRegion> {
        self.regions.iter().find(|r| bit >= r.start && bit < r.start + r.len)
    }

    /// The field class of a global bit index.
    pub fn class_of(&self, bit: u64) -> Option<FieldClass> {
        self.field_index_of(bit).map(|i| self.fields[i].2)
    }

    /// The traversal-order field index containing a global bit index —
    /// the key that links a drawn injection bit to per-field data
    /// recorded by an [`OccupancyRecorder`] over the same machine.
    pub fn field_index_of(&self, bit: u64) -> Option<usize> {
        // Fields are sorted by start; binary search.
        let idx = self.fields.partition_point(|&(start, _, _)| start <= bit).checked_sub(1)?;
        let (start, width, _) = *self.fields.get(idx)?;
        (bit < start + width as u64).then_some(idx)
    }

    /// Total bits in latch regions.
    pub fn latch_bits(&self) -> u64 {
        self.regions.iter().filter(|r| r.kind == StateKind::Latch).map(|r| r.len).sum()
    }

    /// Total bits in RAM regions.
    pub fn ram_bits(&self) -> u64 {
        self.total_bits - self.latch_bits()
    }

    /// Maps a uniform index over latch bits to a global bit index.
    pub fn latch_bit(&self, latch_index: u64) -> u64 {
        let mut remaining = latch_index;
        for r in &self.regions {
            if r.kind == StateKind::Latch {
                if remaining < r.len {
                    return r.start + remaining;
                }
                remaining -= r.len;
            }
        }
        panic!("latch index {latch_index} out of range");
    }

    /// `true` if the hardened ("low hanging fruit", §5.2.2) pipeline
    /// protects this bit: ECC on the marked key data stores, parity on
    /// the control-word bits everywhere else.
    pub fn lhf_protected(&self, bit: u64) -> bool {
        match self.region_of(bit) {
            Some(r) if r.ecc => true,
            Some(_) => self.class_of(bit) == Some(FieldClass::Control),
            None => false,
        }
    }

    /// Extra storage the hardened pipeline adds, as a fraction of the
    /// unprotected design — the paper reports "approximately 7%
    /// additional state in the execution core". SECDED ECC costs 8 check
    /// bits per 64 data bits; parity costs one bit per protected control
    /// field.
    pub fn lhf_overhead(&self) -> f64 {
        let ecc_bits: f64 =
            self.regions.iter().filter(|r| r.ecc).map(|r| (r.len as f64 / 64.0).ceil() * 8.0).sum();
        let parity_fields = self
            .fields
            .iter()
            .filter(|&&(start, _, class)| {
                class == FieldClass::Control
                    && self.region_of(start).map(|r| !r.ecc).unwrap_or(false)
            })
            .count() as f64;
        (ecc_bits + parity_fields) / self.total_bits.max(1) as f64
    }

    /// Fraction of all bits covered by the hardened pipeline.
    pub fn lhf_coverage(&self) -> f64 {
        let covered: u64 =
            self.regions.iter().map(|r| if r.ecc { r.len } else { r.control_bits }).sum();
        covered as f64 / self.total_bits.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy two-component device for exercising the visitors.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        a: u64,
        b: u32,
        flag: bool,
        ram: [u64; 2],
    }

    impl Toy {
        fn new() -> Toy {
            Toy { a: 0xff, b: 7, flag: false, ram: [1, 2] }
        }
    }

    impl FaultState for Toy {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("toy-latch", StateKind::Latch);
            v.word(&mut self.a, 64, FieldClass::Data);
            v.word32(&mut self.b, 4, FieldClass::Control);
            v.flag(&mut self.flag);
            v.region("toy-ram", StateKind::Ram);
            for w in self.ram.iter_mut() {
                v.word(w, 64, FieldClass::Data);
            }
        }
    }

    #[test]
    fn counter_counts() {
        let mut c = BitCounter::default();
        Toy::new().visit_state(&mut c);
        assert_eq!(c.bits, 64 + 4 + 1 + 128);
    }

    #[test]
    fn flipper_flips_each_bit_once() {
        let total = 64 + 4 + 1 + 128;
        for bit in 0..total {
            let mut t = Toy::new();
            let mut f = BitFlipper::new(bit);
            t.visit_state(&mut f);
            assert!(f.flipped, "bit {bit}");
            // Flipping the same bit again restores the original.
            let mut f2 = BitFlipper::new(bit);
            t.visit_state(&mut f2);
            assert_eq!(t, Toy::new(), "bit {bit} not involutive");
        }
    }

    #[test]
    fn flip_changes_hash() {
        let mut t = Toy::new();
        let mut h = StateHasher::new();
        t.visit_state(&mut h);
        let before = h.finish();
        let mut f = BitFlipper::new(65); // bit 1 of `b` (a occupies 0..64)
        t.visit_state(&mut f);
        let mut h2 = StateHasher::new();
        t.visit_state(&mut h2);
        assert_ne!(before, h2.finish());
        assert_eq!(t.b, 7 ^ 2);
    }

    #[test]
    fn catalog_regions_and_classes() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let cat = rec.into_catalog();
        assert_eq!(cat.total_bits, 197);
        assert_eq!(cat.regions.len(), 2);
        assert_eq!(cat.regions[0].name, "toy-latch");
        assert_eq!(cat.regions[0].len, 69);
        assert_eq!(cat.regions[0].control_bits, 5);
        assert_eq!(cat.regions[1].kind, StateKind::Ram);
        assert_eq!(cat.latch_bits(), 69);
        assert_eq!(cat.ram_bits(), 128);
        assert_eq!(cat.class_of(0), Some(FieldClass::Data));
        assert_eq!(cat.class_of(64), Some(FieldClass::Control));
        assert_eq!(cat.class_of(196), Some(FieldClass::Data));
        assert_eq!(cat.class_of(197), None);
        assert_eq!(cat.region_of(100).unwrap().name, "toy-ram");
    }

    #[test]
    fn latch_bit_maps_uniformly() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let cat = rec.into_catalog();
        assert_eq!(cat.latch_bit(0), 0);
        assert_eq!(cat.latch_bit(68), 68);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn latch_bit_out_of_range_panics() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        rec.into_catalog().latch_bit(69);
    }

    #[test]
    fn lhf_domains() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let mut cat = rec.into_catalog();
        cat.mark_ecc(&["toy-ram"]);
        assert!(!cat.lhf_protected(0)); // data bits of a latch
        assert!(cat.lhf_protected(64)); // control bits of a latch
        assert!(cat.lhf_protected(68)); // the flag
        assert!(cat.lhf_protected(100)); // ECC'd RAM
        let cov = cat.lhf_coverage();
        assert!((cov - (5.0 + 128.0) / 197.0).abs() < 1e-12);
        // Without the marking, the RAM bits are unprotected.
        cat.mark_ecc(&[]);
        assert!(!cat.lhf_protected(100));
    }

    #[test]
    fn lhf_overhead_is_modest() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let mut cat = rec.into_catalog();
        cat.mark_ecc(&["toy-ram"]);
        // ECC: 128 bits -> 2 words -> 16 check bits; parity: 2 control
        // fields in the latch region -> 2 bits. (16+2)/197.
        assert!((cat.lhf_overhead() - 18.0 / 197.0).abs() < 1e-12);
    }

    /// A device that reports half its RAM dead via `occupancy`.
    struct HalfDead {
        live_word: u64,
        dead_word: u64,
        flag: bool,
    }

    impl FaultState for HalfDead {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("half-dead", StateKind::Ram);
            v.flag(&mut self.flag);
            v.word(&mut self.live_word, 16, FieldClass::Data);
            v.occupancy(false);
            v.word(&mut self.dead_word, 16, FieldClass::Data);
            v.region("after", StateKind::Latch);
            // A new region resets to live without an explicit call.
            let mut x = 3u64;
            v.word(&mut x, 2, FieldClass::Control);
        }
    }

    #[test]
    fn occupancy_recorder_tracks_liveness() {
        let mut d = HalfDead { live_word: 0xAB, dead_word: 0xCD, flag: true };
        let mut rec = OccupancyRecorder::new();
        d.visit_state(&mut rec);
        assert_eq!(rec.live, vec![true, true, false, true]);
        assert_eq!(rec.dead_fields(), 1);
    }

    #[test]
    fn occupancy_recorder_field_order_matches_catalog() {
        let mut d = HalfDead { live_word: 0, dead_word: 0, flag: false };
        let mut rec = OccupancyRecorder::new();
        d.visit_state(&mut rec);
        let mut ranges = RangeRecorder::new();
        HalfDead { live_word: 0, dead_word: 0, flag: false }.visit_state(&mut ranges);
        let cat = ranges.into_catalog();
        assert_eq!(rec.live.len(), cat.fields.len());
        // The dead 16-bit word starts at bit 17 (flag + 16-bit live word).
        for bit in [17, 25, 32] {
            assert!(!rec.live[cat.field_index_of(bit).unwrap()], "bit {bit}");
        }
        for bit in [0, 1, 16, 33, 34] {
            assert!(rec.live[cat.field_index_of(bit).unwrap()], "bit {bit}");
        }
        assert_eq!(cat.field_index_of(35), None);
    }

    #[test]
    fn occupancy_is_invisible_to_bit_numbering() {
        let mut with = BitCounter::default();
        HalfDead { live_word: 0, dead_word: 0, flag: false }.visit_state(&mut with);
        assert_eq!(with.bits, 1 + 16 + 16 + 2);
    }

    /// A device that declares a static mask on one field, conditioned on
    /// its flag (mirroring "role proves these bits unread" in the
    /// pipeline), with a dead slot after it.
    struct PartMasked {
        flag: bool,
        imm: u64,
        spare: u64,
    }

    impl FaultState for PartMasked {
        fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
            v.region("part-masked", StateKind::Latch);
            v.flag(&mut self.flag);
            if v.wants_masks() && !self.flag {
                v.masked(0xFF00);
            }
            v.word(&mut self.imm, 16, FieldClass::Data);
            v.occupancy(false);
            v.word(&mut self.spare, 8, FieldClass::Data);
        }
    }

    #[test]
    fn mask_channel_is_invisible_to_bit_numbering_and_flipping() {
        let mut c = BitCounter::default();
        PartMasked { flag: false, imm: 0, spare: 0 }.visit_state(&mut c);
        assert_eq!(c.bits, 1 + 16 + 8);
        // Flipping through a mask-declaring component is still involutive
        // and hits the same global indices as a mask-free walk would.
        let mut d = PartMasked { flag: false, imm: 0xABCD, spare: 0x55 };
        let mut f = BitFlipper::new(9); // bit 8 of imm (flag occupies bit 0)
        d.visit_state(&mut f);
        assert!(f.flipped);
        assert_eq!(d.imm, 0xABCD ^ 0x100);
        assert!(!f.wants_masks(), "hot-path visitors skip mask computation");
    }

    #[test]
    fn width_mask_covers_all_widths() {
        assert_eq!(width_mask(0), 0, "zero-width field covers no bits");
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(7), 0x7F);
        assert_eq!(width_mask(63), u64::MAX >> 1);
        assert_eq!(width_mask(64), u64::MAX);
        // Widths beyond a word saturate rather than wrapping the shift.
        assert_eq!(width_mask(65), u64::MAX);
        assert_eq!(width_mask(u32::MAX), u64::MAX);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "assertion failed: width <= 32")]
    fn word32_rejects_overwide_declaration_in_debug() {
        let mut c = BitCounter::default();
        let mut v = 0u32;
        c.word32(&mut v, 33, FieldClass::Data);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "assertion failed: width <= 8")]
    fn word8_rejects_overwide_declaration_in_debug() {
        let mut c = BitCounter::default();
        let mut v = 0u8;
        c.word8(&mut v, 9, FieldClass::Data);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "field exceeds declared width")]
    fn hasher_rejects_value_wider_than_declared_in_debug() {
        let mut h = StateHasher::new();
        let mut v = 0x10u64;
        h.word(&mut v, 4, FieldClass::Data);
    }

    #[test]
    fn field_index_of_agrees_with_class_of() {
        let mut rec = RangeRecorder::new();
        Toy::new().visit_state(&mut rec);
        let cat = rec.into_catalog();
        for bit in 0..cat.total_bits {
            let idx = cat.field_index_of(bit).unwrap();
            let (start, width, class) = cat.fields[idx];
            assert!(bit >= start && bit < start + width as u64);
            assert_eq!(cat.class_of(bit), Some(class));
        }
    }

    #[test]
    fn hash_is_stable_across_identical_state() {
        let mut a = Toy::new();
        let mut b = Toy::new();
        let (mut ha, mut hb) = (StateHasher::new(), StateHasher::new());
        a.visit_state(&mut ha);
        b.visit_state(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let digest = |words: &[u64]| {
            let mut f = Fingerprint::new();
            for &w in words {
                f.mix(w);
            }
            f.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
    }

    #[test]
    fn fingerprint_bytes_tag_the_tail() {
        let digest = |bytes: &[u8]| {
            let mut f = Fingerprint::new();
            f.write(bytes);
            f.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1]), digest(&[1, 0]), "zero-padded tails must stay distinct");
        assert_ne!(digest(&[1; 8]), digest(&[1; 9]));
    }
}
