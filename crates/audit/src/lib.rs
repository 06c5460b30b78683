//! `restore-audit`: soundness guards for the fault-injection substrate.
//!
//! Every campaign result in this workspace rests on two assumptions:
//! the [`StateVisitor`](restore_arch::state::StateVisitor) walks cover
//! every bit of architecturally interesting state, with stable global
//! numbering and lossless flips, and the store keys a trial record by
//! everything that shapes it, and by nothing else.
//!
//! That every field is classified at all is checked by the compiler,
//! not here: each walk body and each digest body destructures its
//! struct with an exhaustive pattern, binding a covered field for its
//! visit or fold and an excluded one `_` with its reason beside it. A
//! new field does not compile until it is classified (E0027), and with
//! the workspace's `unused_variables = "deny"` neither does a bound
//! field that the walk never visits. This crate checks what a pattern
//! cannot:
//!
//! * [`contract`] — a runtime checker that wraps real machine walks in a
//!   [`ContractVisitor`] and verifies the
//!   protocol invariants: region-before-word, declared widths within
//!   each visit method's limit, stable bit numbering across consecutive
//!   walks, non-mutating hash paths, and flip ∘ flip = identity on
//!   sampled bits.
//! * [`battery`] — the per-field digest perturbation battery: every
//!   campaign-config field the digest body folds must rekey the store
//!   when perturbed, and every field it binds `_` must not.
//! * [`census`] — the per-region bit census (latch/RAM × control/data)
//!   of both machine models, for comparison against the paper's §4
//!   numbers.
//!
//! * [`determinism`] — runs `clippy-driver` on a snippet under the
//!   repository's `clippy.toml`, for the canary tests of the
//!   determinism rules (no hash-order iteration, wall-clock reads or
//!   unseeded RNGs where they could shape a result). The rules
//!   themselves are clippy's `disallowed-types` and
//!   `disallowed-methods`, with each exempt site carrying a reasoned
//!   `#[expect]`.
//!
//! The `restore-audit` binary runs the first three (`--contract`,
//! `--digests`, `--census`) in CI.

#![forbid(unsafe_code)]

pub mod battery;
pub mod census;
pub mod contract;
pub mod determinism;

pub use battery::{default_batteries, run_battery, BatteryReport, FieldPerturbation};
pub use census::{cpu_census, pipeline_census, Census};
pub use contract::{check_contract, ContractReport, ContractVisitor};
