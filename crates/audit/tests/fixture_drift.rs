//! The drift fixture must keep failing — it is the determinism lint's
//! canary. If this assertion breaks, either the fixture was "fixed"
//! (undo that) or the lint lost the ability to see a defect class.

use std::path::PathBuf;

use restore_audit::analyze_determinism_dirs;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/drift/src")
}

#[test]
fn determinism_canaries_are_detected_exactly() {
    let analysis = analyze_determinism_dirs(&[fixture_root()]).expect("fixture dir readable");
    let kinds: Vec<&str> = analysis.findings.iter().map(|f| f.kind).collect();
    for (kind, count) in [
        ("hash-order", 1),
        ("wall-clock", 2), // Instant in the soup, SystemTime under the reasonless allow
        ("entropy-rng", 1),
        ("rng-seed-literal", 1),
        ("dangling-determinism-allow", 1),
        ("malformed-determinism-exemption", 1),
    ] {
        assert_eq!(kinds.iter().filter(|k| **k == kind).count(), count, "{kind}: {kinds:?}");
    }
    assert_eq!(kinds.len(), 7, "{kinds:?}");
    // The keyed-lookup twin of the snapshot cache is correctly allowed.
    assert_eq!(analysis.allows_honored, 1);
}
