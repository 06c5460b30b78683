//! Workspace-level integration: the full stack from assembler to
//! reliability model, exercised the way the benchmark harness uses it.

use restore::arch::{Cpu, RunExit};
use restore::core::{RestoreConfig, RestoreController, RestoreOutcome};
use restore::inject::{
    run_arch_campaign, run_uarch_campaign, ArchCampaignConfig, CfvMode, UarchCampaignConfig,
};
use restore::perf::{profile_all, PerfModel, Policy};
use restore::uarch::{Pipeline, Stop, UarchConfig};
use restore::workloads::{Scale, WorkloadId};

/// Both simulators agree with each other and with the Rust mirrors on the
/// complete output of every workload.
#[test]
fn three_way_agreement_on_every_workload() {
    let scale = Scale { size: 20, seed: 12 };
    for id in WorkloadId::ALL {
        let program = id.build(scale);
        let expected = id.expected(scale);

        let mut cpu = Cpu::new(&program);
        assert_eq!(cpu.run(20_000_000).unwrap(), RunExit::Halted, "{id} (arch)");
        assert_eq!(cpu.output(), &[expected], "{id} (arch)");

        let mut pipe = Pipeline::new(UarchConfig::default(), &program);
        while pipe.status() == Stop::Running {
            pipe.cycle();
        }
        assert_eq!(pipe.status(), Stop::Halted, "{id} (uarch)");
        assert_eq!(pipe.output(), &[expected], "{id} (uarch)");
        assert_eq!(cpu.retired(), pipe.retired(), "{id}: retired counts differ");
    }
}

/// The ReStore controller is output-transparent over the whole suite.
#[test]
fn restore_is_transparent_end_to_end() {
    let scale = Scale { size: 20, seed: 12 };
    for id in WorkloadId::ALL {
        let program = id.build(scale);
        let pipe = Pipeline::new(UarchConfig::default(), &program);
        let mut c = RestoreController::new(pipe, RestoreConfig::default());
        assert_eq!(c.run(60_000_000), RestoreOutcome::Halted, "{id}");
        assert_eq!(c.output(), &[id.expected(scale)], "{id}");
    }
}

/// A miniature end-to-end evaluation: campaign → coverage → FIT model,
/// reproducing the monotone structure of the paper's headline table.
#[test]
fn campaign_coverage_feeds_fit_model_consistently() {
    let cfg = UarchCampaignConfig {
        points_per_workload: 3,
        trials_per_point: 8,
        window_cycles: 4_000,
        ..UarchCampaignConfig::default()
    };
    let trials = run_uarch_campaign(&cfg);
    assert!(trials.len() >= 100);

    let frac = |cfv, hardened| {
        let failures = trials
            .iter()
            .filter(|t| {
                let c = t.classify(100, cfv, hardened);
                c.is_failure() && !c.is_covered()
            })
            .count();
        (failures as f64 / trials.len() as f64).max(1e-4)
    };
    let baseline = {
        let failures = trials.iter().filter(|t| t.is_failure()).count();
        (failures as f64 / trials.len() as f64).max(1e-4)
    };
    let restore_only = frac(CfvMode::HighConfidence, false);
    let lhf_restore = frac(CfvMode::HighConfidence, true);

    // Monotonicity of protection, as in Figure 6.
    assert!(restore_only <= baseline + 1e-9);
    assert!(lhf_restore <= restore_only + 1e-9);

    // The FIT model accepts the measured fractions and orders MTBFs.
    let scaling = restore::core::FitScaling::new(baseline, restore_only, baseline, lhf_restore);
    assert!(scaling.mtbf_improvement() >= 1.0);
    let rows = scaling.series(&restore::core::fit::figure8_sizes());
    assert_eq!(rows.len(), 10);
}

/// Figure 2's headline: most failing architectural faults raise a symptom
/// within a short latency.
#[test]
fn arch_campaign_symptoms_are_fast() {
    let cfg = ArchCampaignConfig {
        scale: Scale { size: 20, seed: 5 },
        trials_per_workload: 30,
        window: 150_000,
        seed: 11,
        ..ArchCampaignConfig::default()
    };
    let trials = run_arch_campaign(&cfg);
    let failing: Vec<_> = trials.iter().filter(|t| !t.masked).collect();
    assert!(!failing.is_empty());
    let sym100 = failing
        .iter()
        .filter(|t| {
            matches!(
                t.classify(100),
                restore::inject::ArchCategory::Exception | restore::inject::ArchCategory::Cfv
            )
        })
        .count();
    let sym_total =
        failing.iter().filter(|t| t.firings.exception.is_some() || t.firings.cfv.is_some()).count();
    // Most symptomatic trials fire within 100 instructions (the paper:
    // "the majority of the coverage is still obtained with relatively
    // short latency").
    assert!(
        sym100 * 3 >= sym_total * 2,
        "only {sym100}/{sym_total} symptoms within 100 instructions"
    );
}

/// The performance model reproduces the imm/delayed crossover from
/// measured profiles.
#[test]
fn perf_model_crossover_with_real_profiles() {
    let profiles = profile_all(Scale::campaign(), &UarchConfig::default(), 80_000);
    let m = PerfModel::default();
    let imm50 = m.mean_speedup(&profiles, 50, Policy::Immediate);
    let del50 = m.mean_speedup(&profiles, 50, Policy::Delayed);
    assert!(imm50 >= del50, "imm must win at small intervals");
    let imm1000 = m.mean_speedup(&profiles, 1000, Policy::Immediate);
    let del1000 = m.mean_speedup(&profiles, 1000, Policy::Delayed);
    assert!(del1000 >= imm1000, "delayed must win at large intervals");
    // Sanity on absolute scale.
    let at100 = m.mean_speedup(&profiles, 100, Policy::Immediate);
    assert!((0.8..=1.0).contains(&at100));
}

/// Facade re-exports stay wired.
#[test]
fn facade_reexports() {
    let _ = restore::isa::Reg::SP;
    let _ = restore::arch::Perm::RW;
    let _ = restore::core::SymptomConfig::paper();
    let _ = restore::uarch::UarchConfig::default();
    let _ = restore::workloads::Scale::smoke();
    let _ = restore::inject::UarchCampaignConfig::default();
    let _ = restore::perf::PerfModel::default();
}
