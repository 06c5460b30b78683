//! State-catalog invariants behind the fault model:
//!
//! * `BitFlipper` applied twice is the identity for **every** catalog
//!   index — no sanitisation step may destroy a corrupted latch value,
//!   or re-injecting the same bit would not model a transient fault.
//!   (The head/tail counter representation in `queues.rs` exists for
//!   exactly this property; a min-clamp on a length field would break
//!   it for the overflow bits.)
//! * `RangeRecorder` regions are disjoint, contiguous, and exactly
//!   cover the `BitCounter` total, for both the all-state and the
//!   latches-only injection views.
//! * Every catalog bit is visible to both digests: flipping it changes
//!   `state_hash` and `fingerprint`, and flipping it back restores them.

use proptest::prelude::*;
use restore_uarch::state::{BitCounter, FaultState, RangeRecorder, StateKind};
use restore_uarch::{Pipeline, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

fn warm_pipeline(cfg: UarchConfig, warm_cycles: u64) -> Pipeline {
    let program = WorkloadId::Vortexx.build(Scale::campaign());
    let mut p = Pipeline::new(cfg, &program);
    for _ in 0..warm_cycles {
        p.cycle();
    }
    p
}

/// A scaled-down machine so the exhaustive double-flip sweep over every
/// catalog bit stays affordable in debug builds.
fn tiny_cfg() -> UarchConfig {
    UarchConfig {
        fetch_queue: 4,
        sched_entries: 4,
        rob_entries: 8,
        phys_regs: 48,
        ldq_entries: 4,
        stq_entries: 4,
        bob_entries: 2,
        ..UarchConfig::default()
    }
}

#[test]
fn flip_twice_is_identity_for_every_catalog_index() {
    let mut p = warm_pipeline(tiny_cfg(), 400);
    let total = p.catalog().total_bits;
    let before = p.fingerprint();
    for bit in 0..total {
        p.flip_bit(bit);
        p.flip_bit(bit);
    }
    assert_eq!(p.fingerprint(), before, "some bit in 0..{total} was not restored by a second flip");
}

/// Digest sensitivity on the campaign machine: a flip of any catalog bit
/// changes both `state_hash` and `fingerprint`, and undoing it restores
/// both. Each mixer step is a bijection of the running hash for a fixed
/// input word, so a change confined to one field can never collide; this
/// pins that property for every field the walk visits. Debug builds
/// sweep a fixed stride of the bits to keep the suite fast; release
/// builds sweep them all.
#[test]
fn every_catalog_bit_moves_both_digests() {
    let mut p = warm_pipeline(UarchConfig::default(), 2_000);
    let total = p.catalog().total_bits;
    let stride = if cfg!(debug_assertions) { 17 } else { 1 };
    let (hash, fp) = (p.state_hash(), p.fingerprint());
    for bit in (0..total).step_by(stride) {
        p.flip_bit(bit);
        assert_ne!(p.state_hash(), hash, "flip of bit {bit} left state_hash unchanged");
        assert_ne!(p.fingerprint(), fp, "flip of bit {bit} left fingerprint unchanged");
        p.flip_bit(bit);
        assert_eq!(p.state_hash(), hash, "undoing bit {bit} did not restore state_hash");
        assert_eq!(p.fingerprint(), fp, "undoing bit {bit} did not restore fingerprint");
    }
}

/// Pinpointing variant of the sweep above for the control fields most
/// at risk (queue pointers live at each region's start): checks each
/// region's first 32 and last 32 bits individually so a failure names
/// the exact bit.
#[test]
fn flip_twice_is_identity_at_region_edges_of_default_machine() {
    let mut p = warm_pipeline(UarchConfig::default(), 1_500);
    let cat = p.catalog();
    let before = p.fingerprint();
    for r in &cat.regions {
        for off in 0..r.len.min(32) {
            for bit in [r.start + off, r.start + r.len - 1 - off] {
                p.flip_bit(bit);
                p.flip_bit(bit);
                assert_eq!(
                    p.fingerprint(),
                    before,
                    "bit {bit} (region {}, offset {}) not involutive",
                    r.name,
                    bit - r.start
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised involution sweep over the full-size machine at
    /// arbitrary execution points.
    #[test]
    fn flip_twice_is_identity_on_default_machine(
        warm in 100u64..2_000,
        bit_frac in 0.0f64..1.0,
    ) {
        let mut p = warm_pipeline(UarchConfig::default(), warm);
        let bits = p.catalog().total_bits;
        let bit = ((bits as f64 - 1.0) * bit_frac) as u64;
        let before = p.fingerprint();
        p.flip_bit(bit);
        p.flip_bit(bit);
        prop_assert_eq!(p.fingerprint(), before);
    }

    /// Regions tile the bit space: disjoint, contiguous from zero, and
    /// summing exactly to the `BitCounter` total. The latches-only view
    /// must likewise partition into the latch regions, and the
    /// `latch_bit` remapping must be a strictly monotone bijection into
    /// them.
    #[test]
    fn regions_partition_the_bit_space(tiny in any::<bool>(), warm in 0u64..1_500) {
        let cfg = if tiny { tiny_cfg() } else { UarchConfig::default() };
        let mut p = warm_pipeline(cfg, warm);
        let mut counter = BitCounter::default();
        p.visit_state(&mut counter);
        let mut rec = RangeRecorder::new();
        p.visit_state(&mut rec);
        let cat = rec.into_catalog();

        prop_assert_eq!(cat.total_bits, counter.bits);
        let mut pos = 0u64;
        for r in &cat.regions {
            prop_assert_eq!(r.start, pos, "region {} not contiguous", r.name);
            prop_assert!(r.len > 0, "region {} empty", r.name);
            pos += r.len;
        }
        prop_assert_eq!(pos, cat.total_bits);

        // Fields tile the same space.
        let mut fpos = 0u64;
        for &(start, width, _) in &cat.fields {
            prop_assert_eq!(start, fpos);
            fpos += width as u64;
        }
        prop_assert_eq!(fpos, cat.total_bits);

        // Latches-only view: latch + RAM partition the total, and the
        // uniform latch index remaps monotonically into latch regions.
        prop_assert_eq!(cat.latch_bits() + cat.ram_bits(), cat.total_bits);
        let latch_total: u64 =
            cat.regions.iter().filter(|r| r.kind == StateKind::Latch).map(|r| r.len).sum();
        prop_assert_eq!(latch_total, cat.latch_bits());
        let mut prev = None;
        for i in (0..cat.latch_bits()).step_by(61) {
            let g = cat.latch_bit(i);
            prop_assert_eq!(cat.region_of(g).map(|r| r.kind), Some(StateKind::Latch));
            if let Some(p) = prev {
                prop_assert!(g > p, "latch_bit not strictly monotone");
            }
            prev = Some(g);
        }
    }
}
