//! The real simulator tree must stay clean: every campaign-config field
//! keeps its shaped/neutral classification, and no banned
//! nondeterministic construct survives unexempted. (Every field of
//! every state walk is classified by the compiler instead: the walks
//! destructure their structs exhaustively.)

use std::path::PathBuf;
use std::process::Command;

use restore_audit::default_batteries;

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

/// Runs clippy over every target of the workspace with the determinism
/// rules (`clippy.toml`) and their exemption discipline denied: no
/// hash-order type, clock read or ad-hoc RNG seed outside a reasoned
/// `#[expect]`, no expectation that covers nothing, no reasonless
/// allow. The rest of clippy is CI's `Clippy` job. The check runs in
/// its own target directory, so it never waits on the build that runs
/// this test.
#[test]
fn determinism_lint_scans_clean() {
    let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism-clippy");
    let out = Command::new(env!("CARGO"))
        .current_dir(repo_root())
        .args(["clippy", "--offline", "--workspace", "--all-targets", "--target-dir"])
        .arg(&target)
        .args(["--", "-D", "clippy::disallowed_types", "-D", "clippy::disallowed_methods"])
        .args(["-D", "unfulfilled_lint_expectations"])
        .args(["-D", "clippy::allow_attributes_without_reason"])
        .output()
        .expect("cargo clippy runs");
    assert!(
        out.status.success(),
        "determinism rules broken on the live tree:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
