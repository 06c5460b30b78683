//! Golden-vector regression tests: the campaigns' fixture matrix.
//!
//! The fixtures under `tests/golden/` were recorded from small
//! fixed-seed campaigns **before** the shared `FaultModel`/`TrialRunner`
//! core existed, and before the checkpoint library, the reconvergence
//! cutoff and the masking-interval map changed how a trial is computed.
//! These tests re-run the same campaigns down today's fast path and
//! assert the trial records are still bit-identical, field for field,
//! with every fixture at 1, 2 and 4 worker threads and the two µarch
//! fixtures under every prune mode — `Audit` also runs each trial as
//! the exhaustive reference (no cutoff, no map) and asserts both return
//! the same record. Every run of a µarch fixture plans the same window
//! cycles (`simulated + saved + pruned`), and `Interval` prunes at least
//! one trial. The layers' own suites pin the rest:
//! `cutoff_equivalence.rs` and `arch_cutoff_equivalence.rs` that the
//! cutoff fires and prices its cuts, and `ckpt_equivalence.rs` how the
//! library serves.
//!
//! The rendering is deliberately a flat `name=value` text format rather
//! than a `Debug` dump: the *fields* are the contract, not the struct
//! layout, so the record types can be reshaped (and were) without
//! touching the fixtures.
//!
//! The two `*_wire` fixtures pin the other contract: the bytes the
//! trial store writes. They hold every record of the software-detector
//! campaigns exactly as `Payload::encode` renders it, so a record type
//! can change shape only if its stored form does not.
//!
//! To regenerate after an intentional behaviour change, run with
//! `RESTORE_UPDATE_GOLDEN=1` and commit the diff — never regenerate to
//! make an unintentional difference pass.

use restore_inject::{
    run_arch_campaign, run_uarch_campaign, run_uarch_campaign_io, ArchCampaignConfig, ArchTrial,
    CampaignStats, DetectorConfig, Firings, InjectionTarget, Payload, PruneMode, Shard,
    UarchCampaignConfig, UarchTrial,
};
use restore_store::Json;
use restore_workloads::Scale;
use std::fmt::Debug;

/// Thread counts every fixture is replayed at: the campaigns promise
/// bit-identical trial vectors at any worker count, so each rendering
/// must match the fixture at all of them.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Prune modes the µarch fixtures are replayed under.
const PRUNE_MODES: [PruneMode; 3] = [PruneMode::Off, PruneMode::Interval, PruneMode::Audit];

fn opt(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
}

fn render_uarch(trials: &[UarchTrial]) -> String {
    let mut out = String::new();
    for t in trials {
        out.push_str(&format!(
            "wl={} bit={} region={} lhf={} deadlock={} exception={} cfv={} value={} \
             hc={} any={} dc={} dt={} end={:?}\n",
            t.workload,
            t.bit,
            t.region,
            t.lhf_protected as u8,
            opt(t.firings.deadlock),
            opt(t.firings.exception),
            opt(t.firings.cfv),
            opt(t.firings.value),
            opt(t.firings.hc_mispredict),
            opt(t.firings.any_mispredict),
            t.extra_dcache_misses,
            t.extra_dtlb_misses,
            t.end,
        ));
    }
    out
}

fn render_arch(trials: &[ArchTrial]) -> String {
    let mut out = String::new();
    for t in trials {
        out.push_str(&format!(
            "wl={} exception={} cfv={} mem_addr={} mem_data={} masked={}\n",
            t.workload,
            opt(t.firings.exception),
            opt(t.firings.cfv),
            opt(t.firings.mem_addr),
            opt(t.firings.mem_data),
            t.masked as u8,
        ));
    }
    out
}

/// `f` with the software-only detectors' firings cleared.
fn software_stripped(f: &Firings) -> Firings {
    Firings { signature: None, dup: None, ..*f }
}

/// Compares `got` against the named fixture, or rewrites the fixture
/// when `RESTORE_UPDATE_GOLDEN=1`.
fn check(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("RESTORE_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("fixture exists; regenerate with RESTORE_UPDATE_GOLDEN=1");
    assert_eq!(got, want, "{name}: trial records diverged from the pinned pre-refactor campaign");
}

/// Window cycles a run planned: every trial's window, simulated, skipped
/// by the cutoff or classified by the map.
fn planned(s: &CampaignStats) -> u64 {
    s.cycles_simulated + s.cycles_saved + s.cycles_pruned
}

fn uarch_cfg(target: InjectionTarget) -> UarchCampaignConfig {
    UarchCampaignConfig {
        points_per_workload: 2,
        trials_per_point: 4,
        warmup_cycles: 500,
        window_cycles: 1_500,
        drain_cycles: 1_000,
        seed: 0x60D,
        target,
        threads: 2,
        ..UarchCampaignConfig::default()
    }
}

fn arch_cfg(low32: bool) -> ArchCampaignConfig {
    ArchCampaignConfig {
        scale: Scale::smoke(),
        trials_per_workload: 12,
        window: 100_000,
        seed: 0x60D,
        low32,
        threads: 2,
        ..ArchCampaignConfig::default()
    }
}

/// Replays a µarch fixture at every thread count under every prune
/// mode.
fn uarch_matrix(name: &str, target: InjectionTarget) {
    let mut first = None;
    for prune in PRUNE_MODES {
        for threads in THREAD_COUNTS {
            let cfg = UarchCampaignConfig { prune, threads, ..uarch_cfg(target) };
            let (trials, stats) = run_uarch_campaign_io(&cfg, None, Shard::ALL);
            assert!(!trials.is_empty());
            check(name, &render_uarch(&trials));
            let want = *first.get_or_insert(planned(&stats));
            assert_eq!(planned(&stats), want, "{name} {prune:?} t{threads}: planned cycles moved");
            match prune {
                PruneMode::Off => assert_eq!(stats.trials_pruned, 0, "{name}: Off never prunes"),
                PruneMode::Interval | PruneMode::Audit => {
                    assert!(stats.trials_pruned > 0, "{name}: the map classified nothing");
                }
            }
        }
    }
}

/// Replays an arch fixture at every thread count.
fn arch_matrix(name: &str, low32: bool) {
    for threads in THREAD_COUNTS {
        let trials = run_arch_campaign(&ArchCampaignConfig { threads, ..arch_cfg(low32) });
        assert!(!trials.is_empty());
        check(name, &render_arch(&trials));
    }
}

#[test]
fn uarch_allstate_matches_pinned_vector() {
    uarch_matrix("uarch_allstate", InjectionTarget::AllState);
}

#[test]
fn uarch_latches_matches_pinned_vector() {
    uarch_matrix("uarch_latches", InjectionTarget::LatchesOnly);
}

#[test]
fn arch_matches_pinned_vector() {
    arch_matrix("arch", false);
}

#[test]
fn arch_low32_matches_pinned_vector() {
    arch_matrix("arch_low32", true);
}

/// The software-only sources (signature + lhf duplication) ride a *new*
/// fixture — the pre-refactor fixtures above render only the historical
/// fields and stay untouched. This one also proves the detector knobs
/// are observation-only: the historical columns of its records must
/// round-trip identically to `uarch_allstate` (the knobs add firing
/// latencies; they never perturb the trial's evolution).
#[test]
fn uarch_software_detectors_match_pinned_vector_and_never_perturb() {
    let armed = UarchCampaignConfig {
        detectors: DetectorConfig::lhf(),
        ..uarch_cfg(InjectionTarget::AllState)
    };
    let trials = run_uarch_campaign(&armed);
    assert!(!trials.is_empty());
    assert!(
        trials.iter().any(|t| t.firings.signature.is_some() || t.firings.dup.is_some()),
        "smoke campaign never fired a software source — fixture would pin nothing"
    );
    let mut out = String::new();
    for t in &trials {
        out.push_str(&format!(
            "wl={} bit={} sig={} dup={}\n",
            t.workload,
            t.bit,
            opt(t.firings.signature),
            opt(t.firings.dup),
        ));
    }
    check("uarch_software_detectors", &out);

    let baseline = run_uarch_campaign(&uarch_cfg(InjectionTarget::AllState));
    let strip = |ts: &[UarchTrial]| {
        ts.iter()
            .map(|t| UarchTrial { firings: software_stripped(&t.firings), ..t.clone() })
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&trials), strip(&baseline), "detector knobs perturbed trial evolution");
}

/// The arch-level twin of the fixture above: it pins the signature
/// path of the immediate-cfv monitor and the duplicate compare at the
/// injection site (`dup=1`), which no historical fixture renders, and
/// proves the knobs never perturb an arch trial either.
#[test]
fn arch_software_detectors_match_pinned_vector_and_never_perturb() {
    let armed = ArchCampaignConfig { detectors: DetectorConfig::lhf(), ..arch_cfg(false) };
    let trials = run_arch_campaign(&armed);
    assert!(
        trials.iter().any(|t| t.firings.signature.is_some() || t.firings.dup.is_some()),
        "smoke campaign never fired a software detector — fixture would pin nothing"
    );
    let row = |t: &ArchTrial| {
        format!("wl={} sig={} dup={}\n", t.workload, opt(t.firings.signature), opt(t.firings.dup))
    };
    check("arch_software_detectors", &trials.iter().map(row).collect::<String>());

    let paper = ArchCampaignConfig { detectors: DetectorConfig::paper(), ..arch_cfg(false) };
    let strip = |t: &ArchTrial| ArchTrial { firings: software_stripped(&t.firings), ..*t };
    assert_eq!(
        trials.iter().map(strip).collect::<Vec<_>>(),
        run_arch_campaign(&paper).iter().map(strip).collect::<Vec<_>>(),
        "detector knobs perturbed trial evolution"
    );
}

/// Every record rendered as the trial store writes it, one a line,
/// each checked to decode back to itself.
fn render_wire<T: Payload + PartialEq + Debug>(trials: &[T]) -> String {
    let mut out = String::new();
    for t in trials {
        let line = t.encode().render();
        let back = T::decode(&Json::parse(&line).expect("a rendered record parses"));
        assert_eq!(back.as_ref(), Ok(t), "record does not round-trip: {line}");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The stored form of both record types: every record of the two
/// software-detector campaigns above (`DetectorConfig::lhf()`, so the
/// signature and duplication keys take values too) must encode to the
/// pinned bytes and decode back to itself. Warm stores, content digests
/// and `restore-campaign` stdout all rest on these bytes.
#[test]
fn trial_records_keep_their_wire_format() {
    let uarch = UarchCampaignConfig {
        detectors: DetectorConfig::lhf(),
        ..uarch_cfg(InjectionTarget::AllState)
    };
    check("uarch_wire", &render_wire(&run_uarch_campaign(&uarch)));
    let arch = ArchCampaignConfig { detectors: DetectorConfig::lhf(), ..arch_cfg(false) };
    check("arch_wire", &render_wire(&run_arch_campaign(&arch)));
}
