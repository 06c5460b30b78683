//! The determinism rules, checked as clippy applies them.
//!
//! Campaign results must replay bit-identically at any thread count and
//! from any warm store, so no result-shaping code may iterate a hash
//! container, read the wall clock or build an RNG outside
//! `seeding::rng`. The rules are `disallowed-types` and
//! `disallowed-methods` in the repository's `clippy.toml`; a site that
//! cannot shape a result carries a reasoned `#[expect]`. [`clippy_check`]
//! runs `clippy-driver` on a self-contained snippet under that config,
//! so the canary tests can check each rule, and the exemption
//! discipline around it, by the diagnostic it raises.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The driver of the toolchain that built this crate, or the one on
/// `PATH`.
fn clippy_driver() -> PathBuf {
    let sibling = Path::new(env!("CARGO")).with_file_name("clippy-driver");
    if sibling.exists() {
        sibling
    } else {
        PathBuf::from("clippy-driver")
    }
}

/// Checks `src` as library crate `crate_name` under the clippy config
/// in `conf_dir`, with the workspace's reason rule on and every warning
/// an error. The snippet and its metadata go to `dir`. Returns whether
/// it passed and the driver's stderr.
pub fn clippy_check(conf_dir: &Path, dir: &Path, crate_name: &str, src: &str) -> (bool, String) {
    std::fs::create_dir_all(dir).expect("scratch dir");
    let file = dir.join("snippet.rs");
    std::fs::write(&file, src).expect("snippet written");
    let out = Command::new(clippy_driver())
        .env("CLIPPY_CONF_DIR", conf_dir)
        .args(["--edition", "2021", "--crate-type", "lib", "--emit", "metadata"])
        .args(["--crate-name", crate_name, "--out-dir"])
        .arg(dir)
        .args(["-D", "warnings", "-W", "clippy::allow_attributes_without_reason"])
        .arg(&file)
        .output()
        .expect("clippy-driver runs");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `src` under the repository's config in a scratch
    /// directory of its own; returns whether it passed and the headline
    /// of every error, sorted (the driver groups them by lint pass, not
    /// by line).
    fn errors(name: &str, crate_name: &str, src: &str) -> (bool, Vec<String>) {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let dir =
            std::env::temp_dir().join(format!("restore-determinism-{name}-{}", std::process::id()));
        let (ok, stderr) = clippy_check(&root, &dir, crate_name, src);
        let _ = std::fs::remove_dir_all(&dir);
        let mut errors: Vec<String> = stderr
            .lines()
            .filter_map(|l| l.strip_prefix("error: "))
            .filter(|l| !l.starts_with("aborting due to"))
            .map(str::to_owned)
            .collect();
        errors.sort();
        (ok, errors)
    }

    /// Every banned construct in one crate is reported, each once and by
    /// its path. The crate is named `rand` and defines the entropy
    /// sources the offline shim lacks, so their `allow-invalid` rules
    /// are shown to hold once the paths exist.
    #[test]
    fn banned_constructs_are_flagged_with_their_kind() {
        let src = "
            pub trait SeedableRng: Sized {
                fn seed_from_u64(state: u64) -> Self;
                fn from_entropy() -> Self;
            }
            pub struct StdRng(pub u64);
            impl SeedableRng for StdRng {
                fn seed_from_u64(state: u64) -> Self { StdRng(state) }
                fn from_entropy() -> Self { StdRng(0) }
            }
            pub fn thread_rng() -> StdRng { StdRng(0) }
            pub mod rngs { pub struct OsRng; }
            pub fn os() -> rngs::OsRng { rngs::OsRng }
            pub fn shape() -> u64 {
                let m = std::collections::HashMap::<u64, u64>::new();
                let s = std::collections::HashSet::<u64>::new();
                let _ = (std::time::Instant::now(), std::time::SystemTime::now());
                let r = StdRng::from_entropy().0 + StdRng::seed_from_u64(42).0;
                (m.len() + s.len()) as u64 + r + thread_rng().0
            }
        ";
        let (ok, errors) = errors("banned", "rand", src);
        assert!(!ok, "the banned constructs passed clippy");
        let mut want = [
            "use of a disallowed type `std::collections::HashMap`",
            "use of a disallowed type `std::collections::HashSet`",
            "use of a disallowed type `rand::rngs::OsRng`",
            "use of a disallowed method `std::time::Instant::now`",
            "use of a disallowed method `std::time::SystemTime::now`",
            "use of a disallowed method `rand::SeedableRng::from_entropy`",
            "use of a disallowed method `rand::SeedableRng::seed_from_u64`",
            "use of a disallowed method `rand::thread_rng`",
        ];
        want.sort_unstable();
        assert_eq!(errors, want);
    }

    /// An expectation covers the item it is on and nothing beside it,
    /// and one that covers nothing is itself an error.
    #[test]
    fn allow_exempts_one_site_and_must_not_dangle() {
        let src = r#"
            #[expect(clippy::disallowed_types, reason = "keyed lookup only, never iterated")]
            pub type Cache = std::collections::HashMap<u64, u64>;
            pub fn fresh() -> usize { std::collections::HashMap::<u64, u64>::new().len() }
            #[expect(clippy::disallowed_types, reason = "exempts nothing below")]
            pub fn pure() -> u64 { 7 }
        "#;
        let (ok, errors) = errors("allow", "snippet", src);
        assert!(!ok, "the unexempted site passed clippy");
        assert_eq!(
            errors,
            [
                "this lint expectation is unfulfilled",
                "use of a disallowed type `std::collections::HashMap`",
            ]
        );
    }

    /// A reasonless exemption is an error in each form the tree uses:
    /// an item `#[expect]` (though it is fulfilled), a module-level
    /// `#![expect]` and a crate-level `#![allow]`.
    #[test]
    fn reasonless_allow_is_malformed() {
        let src = "
            #![allow(clippy::disallowed_types)]
            pub fn set() -> usize { std::collections::HashSet::<u64>::new().len() }
            #[expect(clippy::disallowed_methods)]
            pub fn now() -> std::time::Instant { std::time::Instant::now() }
            pub mod clock {
                #![expect(clippy::disallowed_methods)]
                pub fn now() -> std::time::SystemTime { std::time::SystemTime::now() }
            }
        ";
        let (ok, errors) = errors("reasonless", "snippet", src);
        assert!(!ok, "the reasonless exemptions passed clippy");
        assert_eq!(
            errors,
            [
                "`allow` attribute without specifying a reason",
                "`expect` attribute without specifying a reason",
                "`expect` attribute without specifying a reason",
            ]
        );
    }
}
