//! The drift fixture must keep failing — it is the scanner's canary.
//! If these assertions break, either the fixture was "fixed" (undo
//! that) or the scanner lost the ability to see the defect class.

use std::path::PathBuf;

use restore_audit::{analyze_determinism_dirs, analyze_dirs};

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/drift/src")
}

#[test]
fn unvisited_field_names_struct_field_and_location() {
    let analysis = analyze_dirs(&[fixture_root()]).expect("fixture dir readable");
    let f = analysis
        .errors()
        .find(|f| f.kind == "unvisited-field" && f.type_name == "DriftWidget")
        .expect("fixture must trip the unvisited-field check");
    assert_eq!(f.field, "dropped_tag");
    assert!(
        f.file.ends_with("fixtures/drift/src/lib.rs"),
        "diagnostic must carry the file: {}",
        f.file.display()
    );
    assert!(f.line > 0, "diagnostic must carry a line");
    // The rendered diagnostic reads like a compiler error: struct, field,
    // and file:line all present.
    let rendered = f.to_string();
    assert!(rendered.contains("DriftWidget.dropped_tag"), "{rendered}");
    assert!(rendered.contains(&format!("lib.rs:{}", f.line)), "{rendered}");
}

#[test]
fn unvisited_snapshot_fingerprint_is_reported() {
    // The snapshot-shaped canary: a `fn visit` walk (not `visit_state`)
    // that drops the capture fingerprint must be caught the same way.
    let analysis = analyze_dirs(&[fixture_root()]).expect("fixture dir readable");
    let f = analysis
        .errors()
        .find(|f| f.kind == "unvisited-field" && f.type_name == "StaleMeta")
        .expect("fixture must trip the unvisited-field check on StaleMeta");
    assert_eq!(f.field, "capture_fingerprint");
}

#[test]
fn unvisited_trial_key_config_digest_is_reported() {
    // The store-shaped canary: a trial key whose walk drops the
    // campaign-config digest would let records from different campaigns
    // collide; the scanner must see the hole.
    let analysis = analyze_dirs(&[fixture_root()]).expect("fixture dir readable");
    let f = analysis
        .errors()
        .find(|f| f.kind == "unvisited-field" && f.type_name == "DriftKey")
        .expect("fixture must trip the unvisited-field check on DriftKey");
    assert_eq!(f.field, "config");
}

#[test]
fn exempted_field_is_not_reported() {
    let analysis = analyze_dirs(&[fixture_root()]).expect("fixture dir readable");
    assert!(
        !analysis.errors().any(|f| f.field == "scratch"),
        "the exempted scratch field must not be a finding",
    );
    assert!(
        !analysis.errors().any(|f| f.field == "serves"),
        "the exempted serve counter must not be a finding",
    );
}

#[test]
fn width_overflow_is_reported() {
    let analysis = analyze_dirs(&[fixture_root()]).expect("fixture dir readable");
    let f = analysis
        .errors()
        .find(|f| f.kind == "width-unsound")
        .expect("fixture must trip the width check");
    assert_eq!(f.type_name, "WidthBuster");
    assert_eq!(f.field, "tag");
    assert!(f.detail.contains('9'), "{}", f.detail);
}

#[test]
fn fixture_defect_count_is_exact() {
    // Drift in either direction is a failure: a new accidental defect in
    // the fixture or a scanner that stopped seeing one.
    let analysis = analyze_dirs(&[fixture_root()]).expect("fixture dir readable");
    let kinds: Vec<&str> = analysis.errors().map(|f| f.kind).collect();
    // DriftWidget.dropped_tag, StaleMeta.capture_fingerprint and
    // DriftKey.config.
    assert_eq!(kinds.iter().filter(|k| **k == "unvisited-field").count(), 3, "{kinds:?}");
    // Width 9 on a `word8` breaks two rules at once: the method's 8-bit
    // cap and the u8 field's capacity.
    assert_eq!(kinds.iter().filter(|k| **k == "width-unsound").count(), 2, "{kinds:?}");
    assert_eq!(kinds.len(), 5, "{kinds:?}");
}

#[test]
fn determinism_canaries_are_detected_exactly() {
    let analysis = analyze_determinism_dirs(&[fixture_root()]).expect("fixture dir readable");
    let kinds: Vec<&str> = analysis.errors().map(|f| f.kind).collect();
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
