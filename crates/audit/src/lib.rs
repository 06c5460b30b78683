//! `restore-audit`: soundness guards for the fault-injection substrate.
//!
//! Every campaign result in this workspace rests on two assumptions:
//! the [`StateVisitor`](restore_arch::state::StateVisitor) walks cover
//! every bit of architecturally interesting state, with stable global
//! numbering and lossless flips, and the store keys a trial record by
//! everything that shapes it, and by nothing else. This crate checks
//! both:
//!
//! * [`scanner`] — a static, dependency-free token-level analyzer over
//!   the simulator sources. For every type with a `FaultState` impl or a
//!   `visit`/`visit_state` method it cross-checks declared struct fields
//!   against the fields the walk actually hands to the visitor, enforces
//!   explicit `// audit: skip -- <reason>` exemptions for everything
//!   else, and width/type soundness on direct visits.
//! * [`contract`] — a runtime checker that wraps real machine walks in a
//!   [`ContractVisitor`] and verifies the
//!   protocol invariants: region-before-word, stable bit numbering
//!   across consecutive walks, non-mutating hash paths, and
//!   flip ∘ flip = identity on sampled bits.
//! * [`battery`] — the per-field digest perturbation battery: every
//!   campaign-config field the digest body folds must rekey the store
//!   when perturbed, and every field it binds `_` must not. The bodies
//!   destructure every field, so the compiler has already made each
//!   field one or the other.
//! * [`determinism`] — a token-level lint over the campaign crates that
//!   rejects hash-order iteration, wall-clock reads and unseeded or
//!   literal-seeded RNGs unless a `// determinism: allow -- <reason>`
//!   comment covers them.
//! * [`census`] — the per-region bit census (latch/RAM × control/data)
//!   of both machine models, for comparison against the paper's §4
//!   numbers.
//!
//! The `restore-audit` binary runs each of them (`--check`,
//! `--contract`, `--digests`, `--determinism`, `--census`) in CI.

#![forbid(unsafe_code)]

pub mod battery;
pub mod census;
pub mod contract;
pub mod determinism;
pub(crate) mod lex;
pub mod scanner;

pub use battery::{default_batteries, run_battery, BatteryReport, FieldPerturbation};
pub use census::{cpu_census, pipeline_census, Census};
pub use contract::{check_contract, ContractReport, ContractVisitor};
pub use determinism::{analyze_determinism_dirs, analyze_determinism_sources, DeterminismAnalysis};
pub use scanner::{analyze_dirs, analyze_sources, Analysis, Finding, Severity};
