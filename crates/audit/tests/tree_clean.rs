//! The real simulator tree must stay clean: every campaign-config field
//! keeps its shaped/neutral classification, and no banned
//! nondeterministic construct survives unexempted. (Every field of
//! every state walk is classified by the compiler instead: the walks
//! destructure their structs exhaustively.)

use std::path::PathBuf;

use restore_audit::{analyze_determinism_dirs, default_batteries, DETERMINISM_ROOTS};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
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

/// Scans the same roots as `restore-audit --determinism`, so the CLI
/// and this test cannot drift apart.
#[test]
fn determinism_lint_scans_clean() {
    let roots: Vec<PathBuf> = DETERMINISM_ROOTS.iter().map(|r| repo_root().join(r)).collect();
    let analysis = analyze_determinism_dirs(&roots).expect("campaign sources readable");
    let errors: Vec<String> = analysis.findings.iter().map(ToString::to_string).collect();
    assert!(errors.is_empty(), "determinism findings on the live tree:\n{}", errors.join("\n"));
    // The known keyed-lookup caches and stderr progress timers must stay
    // explicitly exempted — if an exemption disappears the count drops
    // and this pin asks whether the construct or the comment went away.
    assert_eq!(analysis.allows_honored, 4, "expected the tree's 4 reasoned allows");
    assert!(analysis.files_scanned >= 30, "only {} files scanned", analysis.files_scanned);
}
