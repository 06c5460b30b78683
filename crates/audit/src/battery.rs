//! Runtime per-field digest perturbation battery.
//!
//! Each campaign digest body destructures its config with no `..`, so
//! the compiler already forces every field to be folded or bound `_`
//! with the reason it cannot shape a record. This battery proves the
//! digest *behaves* as classified: perturbing a shaped field must
//! change the digest value, perturbing a neutral field must not. A fold
//! that is value-insensitive, or a field folded although the table
//! calls it neutral, fails here; no pattern can see either.
//!
//! [`UARCH_FIELDS`] and [`ARCH_FIELDS`] come from exhaustive patterns
//! too (`declared_fields!`), so a field added to either config fails
//! to compile here as well, and then fails the battery until its table
//! has a perturbation. The historical default digests are pinned as
//! [`restore_core::PINNED_UARCH_DEFAULT_DIGEST`] and
//! [`restore_core::PINNED_ARCH_DEFAULT_DIGEST`] and asserted in
//! `tests/digest_battery.rs`.

use restore_inject::{
    arch_campaign_digest, uarch_campaign_digest, ArchCampaignConfig, InjectionTarget, PruneMode,
    UarchCampaignConfig,
};
use restore_workloads::Scale;

/// One field mutation with its declared digest classification.
pub struct FieldPerturbation<C: 'static> {
    /// Declared field the mutation touches.
    pub field: &'static str,
    /// True iff the field is folded into the campaign digest; the
    /// battery asserts the digest changes exactly when this is true.
    pub shaped: bool,
    /// The mutation; must change the field's value on any base config.
    pub perturb: fn(&mut C),
}

/// Outcome of running one config type through its table.
#[derive(Debug)]
pub struct BatteryReport {
    /// Config type under test.
    pub type_name: &'static str,
    /// Digest of the (unperturbed) base config.
    pub base_digest: u64,
    /// Perturbations exercised.
    pub checked: usize,
    /// Shaped fields per the table (deduped, declaration order).
    pub shaped_fields: Vec<&'static str>,
    /// Neutral fields per the table (deduped, declaration order).
    pub neutral_fields: Vec<&'static str>,
    /// Human-readable contract violations; empty on success.
    pub failures: Vec<String>,
}

impl BatteryReport {
    /// True when every perturbation honored the contract.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one config type through its perturbation table against its
/// digest function. `declared` is the full field list of the struct;
/// a declared field with no perturbation is a completeness failure, so
/// adding a config field without extending the table breaks the build
/// exactly like forgetting the digest fold would.
pub fn run_battery<C: Clone>(
    type_name: &'static str,
    base: &C,
    digest: fn(&C) -> u64,
    declared: &[&'static str],
    perturbations: &[FieldPerturbation<C>],
) -> BatteryReport {
    let d0 = digest(base);
    let mut failures = Vec::new();
    if digest(&base.clone()) != d0 {
        failures.push(format!("{type_name}: digest of a cloned base config differs"));
    }
    for field in declared {
        if !perturbations.iter().any(|p| p.field == *field) {
            failures.push(format!(
                "{type_name}.{field}: declared field has no perturbation — extend the \
                 battery table to match the field's classification in the digest body"
            ));
        }
    }
    for p in perturbations {
        let mut c = base.clone();
        (p.perturb)(&mut c);
        let changed = digest(&c) != d0;
        if p.shaped && !changed {
            failures.push(format!(
                "{type_name}.{}: declared result-shaping but perturbing it left the \
                 digest unchanged — the store would serve stale trials across configs",
                p.field
            ));
        }
        if !p.shaped && changed {
            failures.push(format!(
                "{type_name}.{}: declared result-neutral but perturbing it changed the \
                 digest — neutral-field churn would orphan every warm store",
                p.field
            ));
        }
    }
    let mut shaped_fields = Vec::new();
    let mut neutral_fields = Vec::new();
    for p in perturbations {
        let list = if p.shaped { &mut shaped_fields } else { &mut neutral_fields };
        if !list.contains(&p.field) {
            list.push(p.field);
        }
    }
    BatteryReport {
        type_name,
        base_digest: d0,
        checked: perturbations.len(),
        shaped_fields,
        neutral_fields,
        failures,
    }
}

/// A struct's field names as a `[&str; N]`, read off an exhaustive
/// pattern of it (`Type { a: _, b: _ }`, no `..`): a field added to,
/// removed from or renamed in the struct fails to compile at that
/// pattern until the list follows.
macro_rules! declared_fields {
    (@names $ty:ident { $($field:ident: _),* $(,)? }) => {
        [$(stringify!($field)),*]
    };
    (@names $($other:tt)*) => {
        compile_error!("declared_fields! takes `Type { field: _, ... }`, every field, no `..`")
    };
    ($($pattern:tt)*) => {{
        let _witness = |c: &_| {
            let $($pattern)* = c;
        };
        declared_fields!(@names $($pattern)*)
    }};
}

/// Declared fields of [`UarchCampaignConfig`], declaration order.
pub const UARCH_FIELDS: [&str; 14] = declared_fields!(UarchCampaignConfig {
    scale: _,
    uarch: _,
    points_per_workload: _,
    trials_per_point: _,
    warmup_cycles: _,
    window_cycles: _,
    drain_cycles: _,
    seed: _,
    target: _,
    threads: _,
    prune: _,
    map_dir: _,
    ckpt_stride: _,
    detectors: _,
});

/// Declared fields of [`ArchCampaignConfig`], declaration order.
pub const ARCH_FIELDS: [&str; 8] = declared_fields!(ArchCampaignConfig {
    scale: _,
    trials_per_workload: _,
    window: _,
    seed: _,
    low32: _,
    threads: _,
    ckpt_stride: _,
    detectors: _,
});

/// The perturbation table for the µarch campaign config. Multiple
/// perturbations per field are deliberate: `uarch` and `detectors` are
/// substructures whose every knob must rekey independently.
pub fn uarch_perturbations() -> Vec<FieldPerturbation<UarchCampaignConfig>> {
    vec![
        FieldPerturbation {
            field: "scale",
            shaped: true,
            perturb: |c| c.scale = Scale { size: c.scale.size + 1, ..c.scale },
        },
        FieldPerturbation {
            field: "scale",
            shaped: true,
            perturb: |c| c.scale = Scale { seed: c.scale.seed + 1, ..c.scale },
        },
        FieldPerturbation { field: "uarch", shaped: true, perturb: |c| c.uarch.jrs_entries += 1 },
        FieldPerturbation { field: "uarch", shaped: true, perturb: |c| c.uarch.jrs_threshold += 1 },
        FieldPerturbation {
            field: "uarch",
            shaped: true,
            perturb: |c| c.uarch.watchdog_cycles += 500,
        },
        FieldPerturbation {
            field: "points_per_workload",
            shaped: false,
            perturb: |c| c.points_per_workload += 1,
        },
        FieldPerturbation {
            field: "trials_per_point",
            shaped: false,
            perturb: |c| c.trials_per_point += 1,
        },
        FieldPerturbation {
            field: "warmup_cycles",
            shaped: false,
            perturb: |c| c.warmup_cycles += 1,
        },
        FieldPerturbation {
            field: "window_cycles",
            shaped: true,
            perturb: |c| c.window_cycles += 1,
        },
        FieldPerturbation { field: "drain_cycles", shaped: true, perturb: |c| c.drain_cycles += 1 },
        FieldPerturbation { field: "seed", shaped: false, perturb: |c| c.seed += 1 },
        FieldPerturbation {
            field: "target",
            shaped: true,
            perturb: |c| {
                c.target = match c.target {
                    InjectionTarget::AllState => InjectionTarget::LatchesOnly,
                    InjectionTarget::LatchesOnly => InjectionTarget::AllState,
                }
            },
        },
        FieldPerturbation { field: "threads", shaped: false, perturb: |c| c.threads += 1 },
        FieldPerturbation {
            field: "prune",
            shaped: false,
            perturb: |c| c.prune = flip_prune(c.prune),
        },
        FieldPerturbation {
            field: "map_dir",
            shaped: false,
            perturb: |c| {
                c.map_dir = match c.map_dir.take() {
                    Some(_) => None,
                    None => Some("maps".into()),
                }
            },
        },
        FieldPerturbation { field: "ckpt_stride", shaped: false, perturb: |c| c.ckpt_stride += 1 },
        FieldPerturbation {
            field: "detectors",
            shaped: true,
            perturb: |c| c.detectors.sig_chunk += 16,
        },
        FieldPerturbation {
            field: "detectors",
            shaped: true,
            perturb: |c| c.detectors.dup_mask ^= 1,
        },
    ]
}

/// The perturbation table for the architectural campaign config.
pub fn arch_perturbations() -> Vec<FieldPerturbation<ArchCampaignConfig>> {
    vec![
        FieldPerturbation {
            field: "scale",
            shaped: true,
            perturb: |c| c.scale = Scale { size: c.scale.size + 1, ..c.scale },
        },
        FieldPerturbation {
            field: "trials_per_workload",
            shaped: false,
            perturb: |c| c.trials_per_workload += 1,
        },
        FieldPerturbation { field: "window", shaped: true, perturb: |c| c.window += 1 },
        FieldPerturbation { field: "seed", shaped: false, perturb: |c| c.seed += 1 },
        FieldPerturbation { field: "low32", shaped: true, perturb: |c| c.low32 = !c.low32 },
        FieldPerturbation { field: "threads", shaped: false, perturb: |c| c.threads += 1 },
        FieldPerturbation { field: "ckpt_stride", shaped: false, perturb: |c| c.ckpt_stride += 1 },
        FieldPerturbation {
            field: "detectors",
            shaped: true,
            perturb: |c| c.detectors.sig_chunk += 16,
        },
        FieldPerturbation {
            field: "detectors",
            shaped: true,
            perturb: |c| c.detectors.dup_mask ^= 1,
        },
    ]
}

fn flip_prune(p: PruneMode) -> PruneMode {
    match p {
        PruneMode::Off => PruneMode::Interval,
        _ => PruneMode::Off,
    }
}

/// Runs the µarch table against an arbitrary base config.
pub fn uarch_battery(base: &UarchCampaignConfig) -> BatteryReport {
    run_battery(
        "UarchCampaignConfig",
        base,
        uarch_campaign_digest,
        &UARCH_FIELDS,
        &uarch_perturbations(),
    )
}

/// Runs the arch table against an arbitrary base config.
pub fn arch_battery(base: &ArchCampaignConfig) -> BatteryReport {
    run_battery(
        "ArchCampaignConfig",
        base,
        arch_campaign_digest,
        &ARCH_FIELDS,
        &arch_perturbations(),
    )
}

/// Both batteries against the default configs — what `restore-audit
/// --digests` runs and reports.
pub fn default_batteries() -> Vec<BatteryReport> {
    vec![
        uarch_battery(&UarchCampaignConfig::default()),
        arch_battery(&ArchCampaignConfig::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_batteries_are_clean() {
        for r in default_batteries() {
            assert!(r.is_clean(), "{}: {:?}", r.type_name, r.failures);
        }
    }

    #[test]
    fn the_two_campaign_digests_never_collide_on_defaults() {
        let reports = default_batteries();
        assert_ne!(reports[0].base_digest, reports[1].base_digest);
    }

    #[test]
    fn a_missing_table_entry_is_a_completeness_failure() {
        let mut table = uarch_perturbations();
        table.retain(|p| p.field != "detectors");
        let r = run_battery(
            "UarchCampaignConfig",
            &UarchCampaignConfig::default(),
            uarch_campaign_digest,
            &UARCH_FIELDS,
            &table,
        );
        assert!(r.failures.iter().any(|f| f.contains("detectors")), "{:?}", r.failures);
    }

    #[test]
    fn a_misdeclared_field_is_caught() {
        // Declare `seed` shaped: the digest (correctly) ignores it, so
        // the battery must report the lie.
        let table = vec![FieldPerturbation::<UarchCampaignConfig> {
            field: "seed",
            shaped: true,
            perturb: |c| c.seed += 1,
        }];
        let r = run_battery(
            "UarchCampaignConfig",
            &UarchCampaignConfig::default(),
            uarch_campaign_digest,
            &["seed"],
            &table,
        );
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(r.failures[0].contains("left the digest unchanged"));
    }
}
