//! # restore-inject
//!
//! Statistical fault-injection framework for the ReStore reproduction —
//! the machinery behind the paper's Figures 2, 4, 5 and 6.
//!
//! Two campaign types mirror the paper's methodology (§3.1, §4.2):
//!
//! * [`run_arch_campaign`] — the virtual-machine study: a single bit flip
//!   in the **result of a randomly chosen instruction** on the
//!   architectural simulator, classified into Table 1 categories by
//!   symptom latency (Figure 2).
//! * [`run_uarch_campaign`] — the microarchitectural study: a single bit
//!   flip of a **randomly chosen state element** of the out-of-order
//!   pipeline, monitored for 10,000 cycles against a cached golden run
//!   and classified into Table 2 categories (Figures 4–6). Injection can
//!   target all state or latches only (§5.1.2), and classification
//!   supports perfect vs. JRS-confidence cfv detection (Figure 4 vs. 5)
//!   and the hardened parity/ECC pipeline (Figure 6).
//!
//! Sampling follows §4.4: pre-selected random injection points, uniform
//! bit choice over eligible state, and binomial confidence intervals on
//! every reported fraction ([`stats`]).
//!
//! # Examples
//!
//! ```no_run
//! use restore_inject::{run_uarch_campaign, CfvMode, UarchCampaignConfig};
//!
//! let trials = run_uarch_campaign(&UarchCampaignConfig::default());
//! let failures = trials.iter().filter(|t| t.is_failure()).count();
//! let covered = trials
//!     .iter()
//!     .filter(|t| t.classify(100, CfvMode::Perfect, false).is_covered())
//!     .count();
//! println!("{failures} failures, {covered} covered at a 100-instruction interval");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_types,
        reason = "unit tests may hash freely; no result depends on it"
    )
)]

mod arch_campaign;
mod cache;
mod campaign;
mod classify;
mod engine;
mod seeding;
pub mod stats;
mod uarch_campaign;
mod uarch_trial;

pub use arch_campaign::{
    arch_campaign_digest, run_arch_campaign, run_arch_campaign_io, run_arch_campaign_with_stats,
    ArchCampaignConfig, ArchTrial,
};
pub use cache::TrialCache;
pub use classify::{ArchCategory, Symptom, SymptomLatencies, UarchCategory};
pub use engine::{effective_threads, CampaignStats};
pub use restore_core::{DetectorConfig, DetectorSet, SourceSet, LHF_DUP_MASK};
pub use restore_store::{Payload, Shard, Stored, TrialCost, TrialKey};
pub use stats::{worst_case_ci95, Proportion};
pub use uarch_campaign::run_workload as run_uarch_workload;
pub use uarch_campaign::{
    maskmap_horizon, run_uarch_campaign, run_uarch_campaign_io, run_uarch_campaign_with_stats,
    uarch_campaign_digest, CfvMode, InjectionTarget, PruneMode, UarchCampaignConfig,
};
pub use uarch_trial::{EndState, UarchTrial};
