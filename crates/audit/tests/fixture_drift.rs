//! The determinism rules in the repository's `clippy.toml`, checked by
//! name. Each canary below breaks one rule and must fail `clippy-driver
//! -D warnings` with that rule's lint in its stderr, while its twin
//! (the same code under a reasoned `#[expect]`, or with the exemption
//! fixed) compiles clean — so a typo in a snippet or a rule dropped from
//! the config cannot pass for the rule holding.
//!
//! The snippets are self-contained and are checked by [`clippy_check`]
//! into this test's scratch directory, with `CLIPPY_CONF_DIR` pointing
//! at the repository root. The RNG canary is compiled as a crate named
//! `rand` with its own `SeedableRng`, so it hits the configured path
//! `rand::SeedableRng::seed_from_u64` without the workspace's shim.

use std::path::PathBuf;

use restore_audit::determinism::clippy_check;

/// Checks `src` as crate `crate_name` under the repository's clippy
/// config; returns whether it passed and the driver's stderr.
fn check(name: &str, crate_name: &str, src: &str) -> (bool, String) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism-canaries").join(name);
    clippy_check(&root, &dir, crate_name, src)
}

/// Asserts `canary` fails with each of `needles` (its lint's name
/// first) in its stderr, and `twin` compiles without a word on stderr.
fn assert_canary(name: &str, crate_name: &str, needles: &[&str], canary: &str, twin: &str) {
    let (ok, stderr) = check(&format!("{name}-canary"), crate_name, canary);
    assert!(!ok, "{name}: the canary passed clippy");
    for want in needles {
        assert!(stderr.contains(want), "{name}: expected `{want}` in:\n{stderr}");
    }
    let (ok, stderr) = check(&format!("{name}-twin"), crate_name, twin);
    assert!(ok && stderr.is_empty(), "{name}: the twin did not pass clean:\n{stderr}");
}

/// A local stand-in for the `rand` shim's seeding trait.
const RAND: &str = "
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}
pub struct StdRng(pub u64);
impl SeedableRng for StdRng {
    fn seed_from_u64(state: u64) -> Self {
        StdRng(state)
    }
}
";

#[test]
fn determinism_canaries_are_detected_exactly() {
    for (name, ty, args) in [("hash-map", "HashMap", "u64, u64"), ("hash-set", "HashSet", "u64")] {
        let body =
            format!("pub fn len() -> usize {{ std::collections::{ty}::<{args}>::new().len() }}");
        assert_canary(
            name,
            "snippet",
            &["disallowed_types", &format!("disallowed type `std::collections::{ty}`")],
            &body,
            &format!("#[expect(clippy::disallowed_types, reason = \"keyed lookup only\")]\n{body}"),
        );
    }
    for (name, clock) in [("instant", "Instant"), ("system-time", "SystemTime")] {
        let body = format!("pub fn now() -> std::time::{clock} {{ std::time::{clock}::now() }}");
        assert_canary(
            name,
            "snippet",
            &["disallowed_methods", &format!("disallowed method `std::time::{clock}::now`")],
            &body,
            &format!("#[expect(clippy::disallowed_methods, reason = \"accounting only\")]\n{body}"),
        );
    }
    let seeded = "pub fn draw() -> u64 { StdRng::seed_from_u64(1).0 }";
    assert_canary(
        "seed-from-u64",
        "rand",
        &["disallowed_methods", "disallowed method `rand::SeedableRng::seed_from_u64`"],
        &format!("{RAND}{seeded}"),
        &format!("{RAND}#[expect(clippy::disallowed_methods, reason = \"one seeder\")]\n{seeded}"),
    );

    // An expectation that covers nothing must go, not accumulate.
    let pure = "pub fn pure() -> u64 { 7 }";
    assert_canary(
        "dangling-expect",
        "snippet",
        &["unfulfilled_lint_expectations"],
        &format!("#[expect(clippy::disallowed_types, reason = \"covers nothing\")]\n{pure}"),
        pure,
    );
    // Every exemption states why it cannot shape a result.
    let clock = "pub fn now() -> std::time::Instant { std::time::Instant::now() }";
    assert_canary(
        "reasonless-allow",
        "snippet",
        &["allow_attributes_without_reason"],
        &format!("#[allow(clippy::disallowed_methods)]\n{clock}"),
        &format!("#[allow(clippy::disallowed_methods, reason = \"accounting only\")]\n{clock}"),
    );
}
