//! Property tests of the capture→mutate→restore→fingerprint contract:
//! whatever a materialized clone does afterwards — bit flips, further
//! execution, stores into pages it still shares copy-on-write with the
//! library — the snapshot it came from must keep reproducing its
//! capture fingerprint, and the frontier it may have been cloned from
//! must keep walking the golden run, across randomized machine
//! configurations.

use proptest::prelude::*;
use restore_arch::Cpu;
use restore_snapshot::{GoldenCheckpointLibrary, Served, SnapshotMachine};
use restore_uarch::{Pipeline, UarchConfig};
use restore_workloads::{Scale, WorkloadId};

/// A structurally varied (but always well-formed) pipeline config:
/// widths, window sizes and history depth move together so rename never
/// outruns the physical register file.
fn varied_config(width: u32, rob: usize, history_bits: u32) -> UarchConfig {
    UarchConfig {
        fetch_width: width,
        decode_width: width,
        retire_width: width,
        rob_entries: rob,
        phys_regs: 32 + rob,
        sched_entries: (rob / 2).max(4),
        history_bits,
        ..UarchConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// µarch round-trip under adversarial clone mutation: materialize
    /// (a frontier serve, then a snapshot serve of the same coordinate),
    /// flip a random live bit in each clone, run the corrupted clones
    /// onward — then re-materialize the coordinate and require the
    /// capture fingerprint bit-for-bit, and walk the frontier on and
    /// require a serial sweep's fingerprint. Any CoW leak from clone to
    /// snapshot or frontier fails this immediately.
    #[test]
    fn pipeline_snapshots_survive_clone_mutation(
        width in 1u32..=4,
        rob_sel in 0usize..3,
        history_bits in 4u32..=12,
        stride in 200u64..800,
        extra in 0u64..400,
        bit_frac in 0.0f64..1.0,
    ) {
        let cfg = varied_config(width, [16, 32, 64][rob_sel], history_bits);
        let program = WorkloadId::Gzipx.build(Scale::smoke());
        let origin = Pipeline::new(cfg, &program);
        let mut swept = origin.clone();
        let mut lib = GoldenCheckpointLibrary::new(origin, stride);
        let coord = stride + extra;
        let Some(first) = lib.materialize(coord) else {
            // This config halts the run before `coord`; liveness at the
            // coordinate is the library's precondition, so nothing to prove.
            return;
        };
        prop_assert_eq!(first.served, Served::Frontier);
        let m = lib.materialize(coord).expect("golden liveness is a property of the run");
        let Served::Snapshot { fingerprint: want, .. } = m.served else {
            panic!("a coordinate behind the frontier is a snapshot serve");
        };
        let base = m.base_coord;

        for clone in [first.machine, m.machine] {
            let mut victim = clone;
            let bits = victim.catalog().total_bits;
            victim.flip_bit(((bits as f64 - 1.0) * bit_frac) as u64);
            victim.step_to(coord + 200);
        }

        let again = lib.materialize(coord).expect("golden liveness is a property of the run");
        prop_assert_eq!(again.base_coord, base);
        let mut probe = again.machine;
        prop_assert_eq!(
            probe.fingerprint(),
            want,
            "snapshot no longer reproduces its capture fingerprint after clone mutation"
        );
        if let Some(on) = lib.materialize(coord + 100) {
            prop_assert!(swept.step_to(coord + 100));
            let mut walked = on.machine;
            prop_assert_eq!(
                walked.fingerprint(),
                swept.fingerprint(),
                "the frontier left the golden run after its clone was mutated"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arch round-trip plus the CoW economics it relies on: a fresh
    /// materialization shares its *entire* page table with the serving
    /// snapshot; dirtying the clone un-shares pages without touching the
    /// snapshot, whose fingerprint must survive verbatim.
    #[test]
    fn cpu_snapshots_share_pages_until_the_clone_dirties_them(
        stride in 150u64..700,
        extra in 0u64..300,
        bit in 0u32..8,
    ) {
        let program = WorkloadId::Mcfx.build(Scale::smoke());
        let mut lib = GoldenCheckpointLibrary::new(Cpu::new(&program), stride);
        let coord = stride + extra;
        // The first request walks the frontier to `coord`; the ones
        // below are snapshot serves.
        if lib.materialize(coord).is_none() {
            return;
        }
        let m = lib.materialize(coord).expect("same coordinate, same liveness");
        let Served::Snapshot { fingerprint: want, .. } = m.served else {
            panic!("a coordinate behind the frontier is a snapshot serve");
        };
        let base = m.base_coord;
        let mut live = m.machine;

        // Two clones of one snapshot share every page at birth — the
        // O(dirty pages) capture-cost claim in concrete form.
        let twin = lib.materialize(coord).expect("same coordinate, same liveness");
        let total = live.mem.page_count();
        prop_assert_eq!(live.mem.shared_page_count(&twin.machine.mem), total);
        prop_assert!(total > 0);

        // Dirty the clone: finish the residual sweep, then flip a bit in
        // the first mapped page (a store, so it must un-share).
        prop_assert!(live.step_to(coord));
        let first_page = live.mem.pages().next().map(|(b, _)| b).expect("mapped image");
        live.mem.flip_bit(first_page, bit);
        prop_assert!(
            live.mem.shared_page_count(&twin.machine.mem) < total,
            "a store into a shared page must un-share it"
        );

        // The snapshot is untouched by everything above.
        let again = lib.materialize(coord).expect("still live");
        prop_assert_eq!(again.base_coord, base);
        let mut probe = again.machine;
        prop_assert_eq!(probe.fingerprint(), want);
    }
}
