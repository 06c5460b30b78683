//! The compile-time guard behind every state walk, checked for its
//! reason. A walk destructures `self` with no `..` and, with
//! `unused_variables` denied, hands every binding to the visitor (see
//! `restore_arch::state::FaultState`). Each snippet below breaks one
//! half of that guard and must fail to compile with the matching
//! diagnostic, while its fixed twin compiles clean — so a typo in a
//! snippet cannot pass for the guard holding.
//!
//! The snippets are self-contained: a local visitor trait stands in for
//! the crate's, and `rustc` checks them (`--emit metadata`) into this
//! test's scratch directory.

use std::path::PathBuf;
use std::process::Command;

/// The walk protocol, reduced to what the snippets need.
const PRELUDE: &str = "
#![deny(unused_variables)]
pub trait StateVisitor {
    fn word(&mut self, value: &mut u64, width: u32);
    fn word8(&mut self, value: &mut u8, width: u32);
}
pub trait FaultState {
    fn visit_state<V: StateVisitor>(&mut self, v: &mut V);
}
pub struct Latch {
    pub value: u64,
    pub tag: u8,
}
";

/// Type-checks `PRELUDE` plus `walk`, a `FaultState` impl for `Latch`;
/// returns whether it compiled and rustc's stderr.
fn check(name: &str, walk: &str) -> (bool, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("walk-guard").join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let src = dir.join("snippet.rs");
    std::fs::write(&src, format!("{PRELUDE}\n{walk}")).expect("snippet written");
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let out = Command::new(rustc)
        .args(["--edition", "2021", "--crate-type", "lib", "--emit", "metadata"])
        .args(["--crate-name", "snippet", "--out-dir"])
        .arg(&dir)
        .arg(&src)
        .output()
        .expect("rustc runs");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Asserts `broken` fails with `diagnostic` in its stderr and `fixed`
/// compiles without a word on stderr.
fn assert_guard(name: &str, broken: &str, fixed: &str, diagnostic: &str) {
    let (ok, stderr) = check(&format!("{name}-broken"), broken);
    assert!(!ok, "{name}: the broken walk compiled");
    assert!(stderr.contains(diagnostic), "{name}: expected `{diagnostic}` in:\n{stderr}");
    let (ok, stderr) = check(&format!("{name}-fixed"), fixed);
    assert!(ok && stderr.is_empty(), "{name}: the fixed walk did not compile clean:\n{stderr}");
}

/// A struct field the walk neither visits nor excludes is E0027.
#[test]
fn unclassified_field_fails_with_e0027() {
    assert_guard(
        "unclassified",
        "impl FaultState for Latch {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                let Latch { value } = self; // `tag` is neither visited nor excluded
                v.word(value, 64);
            }
        }",
        "impl FaultState for Latch {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                let Latch { value, tag: _ } = self; // `tag`: excluded, with a reason
                v.word(value, 64);
            }
        }",
        "error[E0027]",
    );
}

/// A field bound by the pattern but never handed to the visitor is an
/// unused variable.
#[test]
fn bound_but_unvisited_field_fails_as_unused_variable() {
    assert_guard(
        "unvisited",
        "impl FaultState for Latch {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                let Latch { value, tag } = self; // `tag` is bound but never visited
                v.word(value, 64);
            }
        }",
        "impl FaultState for Latch {
            fn visit_state<V: StateVisitor>(&mut self, v: &mut V) {
                let Latch { value, tag } = self;
                v.word(value, 64);
                v.word8(tag, 8);
            }
        }",
        "unused variable: `tag`",
    );
}
