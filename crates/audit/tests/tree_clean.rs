//! The real simulator tree must scan clean: every field of every walked
//! type is either visited or carries an explicit, reasoned exemption,
//! every campaign-config field keeps its shaped/neutral classification,
//! and no banned nondeterministic construct survives unexempted.

use std::path::PathBuf;

use restore_audit::{analyze_determinism_dirs, analyze_dirs, default_batteries};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn scan_roots() -> [PathBuf; 4] {
    [
        repo_root().join("crates/uarch/src"),
        repo_root().join("crates/arch/src"),
        repo_root().join("crates/snapshot/src"),
        repo_root().join("crates/store/src"),
    ]
}

#[test]
fn simulator_sources_scan_clean() {
    let analysis = analyze_dirs(&scan_roots()).expect("simulator sources readable");
    let errors: Vec<String> = analysis.errors().map(ToString::to_string).collect();
    assert!(errors.is_empty(), "state-coverage findings on the live tree:\n{}", errors.join("\n"),);
    // Sanity: the scanner actually saw the machines, not an empty dir.
    assert!(analysis.files_scanned >= 6, "only {} files scanned", analysis.files_scanned);
    let walked: Vec<&str> = analysis.walks.iter().map(|w| w.type_name.as_str()).collect();
    let expected = [
        "Pipeline",
        "Cpu",
        "CircQ",
        "RobEntry",
        "RegFile",
        "SnapshotMeta",
        "TrialKey",
        "TrialCost",
    ];
    for expected in expected {
        assert!(walked.contains(&expected), "no walk found for {expected}: {walked:?}");
    }
}

#[test]
fn every_exemption_on_the_tree_carries_a_reason() {
    let analysis = analyze_dirs(&scan_roots()).expect("simulator sources readable");
    let exempted: Vec<(String, String, String)> = analysis
        .structs
        .iter()
        .flat_map(|s| {
            s.fields
                .iter()
                .filter_map(|f| f.exempt.clone().map(|r| (s.name.clone(), f.name.clone(), r)))
        })
        .collect();
    // The walked machines rely on exemptions; there must be a healthy
    // number, and the scanner's grammar guarantees each has a reason.
    assert!(exempted.len() >= 10, "expected the tree's known exemptions, found {exempted:?}");
    for (s, f, reason) in &exempted {
        assert!(!reason.trim().is_empty(), "empty reason on {s}.{f}");
    }
    // The checkpoint library's serve counter is deliberately outside the
    // captured-state walk: restoring it would claim another run's
    // history. Keep the exemption (and its reason) pinned here so a
    // future "cleanup" cannot silently fold it into the fingerprint.
    assert!(
        exempted.iter().any(|(s, f, r)| s == "SnapshotMeta" && f == "serves" && !r.is_empty()),
        "SnapshotMeta.serves must stay an explicit, reasoned exemption: {exempted:?}"
    );
}

/// The digest bodies destructure every config field, so the compiler
/// has already made each field shaped or neutral; the battery checks
/// each classification by perturbation. This pins the counts `--digests
/// --json` reports, which CI greps for.
#[test]
fn digest_coverage_scans_clean() {
    let reports = default_batteries();
    let counts: Vec<(&str, usize, usize)> = reports
        .iter()
        .map(|r| (r.type_name, r.shaped_fields.len(), r.neutral_fields.len()))
        .collect();
    assert_eq!(counts, [("UarchCampaignConfig", 6, 8), ("ArchCampaignConfig", 4, 4)]);
    for r in &reports {
        assert!(r.is_clean(), "{}: {:?}", r.type_name, r.failures);
    }
}

#[test]
fn determinism_lint_scans_clean() {
    let roots = [
        repo_root().join("crates/inject/src"),
        repo_root().join("crates/bench/src"),
        repo_root().join("crates/store/src"),
        repo_root().join("crates/snapshot/src"),
        repo_root().join("crates/maskmap/src"),
        repo_root().join("crates/perf/src"),
        repo_root().join("crates/core/src"),
    ];
    let analysis = analyze_determinism_dirs(&roots).expect("campaign sources readable");
    let errors: Vec<String> = analysis.errors().map(ToString::to_string).collect();
    assert!(errors.is_empty(), "determinism findings on the live tree:\n{}", errors.join("\n"));
    // The known keyed-lookup caches and stderr progress timers must stay
    // explicitly exempted — if an exemption disappears the count drops
    // and this pin asks whether the construct or the comment went away.
    assert_eq!(analysis.allows_honored, 4, "expected the tree's 4 reasoned allows");
    assert!(analysis.files_scanned >= 30, "only {} files scanned", analysis.files_scanned);
}
