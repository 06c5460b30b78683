//! The per-field digest perturbation battery against the real campaign
//! configs, pinned to the historical digest constants, on the default
//! configurations and on arbitrary base configurations. The digest
//! bodies destructure every field, so the compiler decides that each
//! field is classified; the battery checks the classification holds.

use proptest::prelude::*;
use restore_audit::battery::{arch_battery, uarch_battery, ARCH_FIELDS, UARCH_FIELDS};
use restore_core::{PINNED_ARCH_DEFAULT_DIGEST, PINNED_UARCH_DEFAULT_DIGEST};
use restore_inject::{ArchCampaignConfig, UarchCampaignConfig};
use restore_workloads::Scale;

/// The historical default-config digests. Every record in every warm
/// store directory is filed under these values; if this test fails the
/// change did not just break a test, it orphaned every existing store.
#[test]
fn historical_default_digests_are_pinned() {
    let u = uarch_battery(&UarchCampaignConfig::default());
    let a = arch_battery(&ArchCampaignConfig::default());
    assert_eq!(u.base_digest, PINNED_UARCH_DEFAULT_DIGEST, "uarch default digest moved");
    assert_eq!(a.base_digest, PINNED_ARCH_DEFAULT_DIGEST, "arch default digest moved");
}

#[test]
fn batteries_pass_on_default_configs() {
    for r in [
        uarch_battery(&UarchCampaignConfig::default()),
        arch_battery(&ArchCampaignConfig::default()),
    ] {
        assert!(r.is_clean(), "{}: {:?}", r.type_name, r.failures);
        assert_eq!(
            r.shaped_fields.len() + r.neutral_fields.len(),
            if r.type_name == "UarchCampaignConfig" {
                UARCH_FIELDS.len()
            } else {
                ARCH_FIELDS.len()
            },
            "every declared field classified"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shaped-iff-rekeys contract must hold from ANY base point of
    /// the config space, not just the defaults — a fold that collides
    /// for particular values (e.g. a field XORed against another) would
    /// pass the default-config battery and fail here.
    #[test]
    fn uarch_battery_holds_from_any_base(
        (size, data_seed) in (1usize..512, 0u64..1_000_000),
        (points, trials) in (1usize..64, 1usize..64),
        (warmup, window, drain) in (0u64..10_000, 1u64..50_000, 0u64..5_000),
        seed in 0u64..1_000_000,
        threads in 0usize..8,
        ckpt in 1u64..2_000,
        (sig_chunk, dup_mask) in (0u64..128, 0u32..0x200),
    ) {
        let base = UarchCampaignConfig {
            scale: Scale { size, seed: data_seed },
            points_per_workload: points,
            trials_per_point: trials,
            warmup_cycles: warmup,
            window_cycles: window,
            drain_cycles: drain,
            seed,
            threads,
            ckpt_stride: ckpt,
            detectors: restore_inject::DetectorConfig { sig_chunk, dup_mask },
            ..UarchCampaignConfig::default()
        };
        let r = uarch_battery(&base);
        prop_assert!(r.is_clean(), "{:?}", r.failures);
    }

    #[test]
    fn arch_battery_holds_from_any_base(
        (size, data_seed) in (1usize..512, 0u64..1_000_000),
        (trials, window) in (1usize..256, 1u64..1_000_000),
        seed in 0u64..1_000_000,
        low32 in any::<bool>(),
        threads in 0usize..8,
        ckpt in 1u64..2_000,
        (sig_chunk, dup_mask) in (0u64..128, 0u32..0x200),
    ) {
        let base = ArchCampaignConfig {
            scale: Scale { size, seed: data_seed },
            trials_per_workload: trials,
            window,
            seed,
            low32,
            threads,
            ckpt_stride: ckpt,
            detectors: restore_inject::DetectorConfig { sig_chunk, dup_mask },
        };
        let r = arch_battery(&base);
        prop_assert!(r.is_clean(), "{:?}", r.failures);
    }
}
