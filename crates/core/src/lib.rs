//! # restore-core
//!
//! The ReStore architecture (Wang & Patel, DSN 2005): symptom-based soft
//! error detection with checkpoint rollback — the paper's primary
//! contribution.
//!
//! ReStore leverages the checkpointing hardware that high-performance
//! processors already carry for speculation: checkpoints are taken every
//! *n* instructions, and *symptoms* that hint at the presence of a soft
//! error — ISA exceptions, high-confidence branch mispredictions, a
//! saturated watchdog — trigger restoration of a previous checkpoint.
//! If the error was transient, re-execution proceeds cleanly and the
//! fault is detected and recovered; genuine exceptions recur and are
//! delivered. This is **on-demand time redundancy**: the cost of
//! redundant execution is paid only when an error is likely present.
//!
//! The pieces:
//!
//! * [`CheckpointStore`] — two-deep architectural checkpoints with a
//!   store undo log (the gated store buffer of §2.1);
//! * [`SymptomConfig`] / [`Symptom`] — the detector bank of §3 as the
//!   live controller scans it, cycle by cycle;
//! * [`DetectorSet`] in [`detector`] — the same detectors, plus
//!   software-only signature checking and selective duplication, as the
//!   fault-injection trials observe them against golden: one latched
//!   first-firing latency per observable ([`Firings`]), with the static
//!   overhead model on [`SourceSet`];
//! * [`EventLog`] — branch-outcome logs comparing original and redundant
//!   executions (§3.2.3), enabling positive error detection and the
//!   dynamic false-positive throttle;
//! * [`RestoreController`] — the rollback/re-execution orchestrator;
//! * [`measure_rollbacks`] — Figure 7 rollback replay on real restored
//!   state from the golden checkpoint library (§5.2.3);
//! * [`fit`] — FIT/MTBF scaling model of §5.3 (Figure 8).
//!
//! # Examples
//!
//! Run a workload under ReStore and observe it complete with the correct
//! output even though a fault is injected mid-flight:
//!
//! ```
//! use restore_core::{RestoreConfig, RestoreController};
//! use restore_uarch::{Pipeline, UarchConfig};
//! use restore_workloads::{Scale, WorkloadId};
//!
//! let scale = Scale::smoke();
//! let program = WorkloadId::Mcfx.build(scale);
//! let pipe = Pipeline::new(UarchConfig::default(), &program);
//! let mut restore = RestoreController::new(pipe, RestoreConfig::default());
//! restore.run(2_000_000);
//! assert_eq!(restore.output(), &[WorkloadId::Mcfx.expected(scale)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod controller;
pub mod detector;
mod digest;
mod event_log;
pub mod fit;
mod replay;
mod symptom;

pub use checkpoint::{Checkpoint, CheckpointStore, UndoRecord};
pub use controller::{RestoreConfig, RestoreController, RestoreOutcome, RestoreStats};
pub use detector::{
    CfvMode, DetectorConfig, DetectorSet, Firings, Observation, Overhead, RetiredCompare,
    SourceSet, LHF_DUP_MASK,
};
pub use digest::{
    config_digest, ConfigDigest, PINNED_ARCH_DEFAULT_DIGEST, PINNED_UARCH_DEFAULT_DIGEST,
};
pub use event_log::{BranchOutcome, EventLog, LogCheck};
pub use fit::{FitModel, FitScaling};
pub use replay::{measure_rollbacks, ReplayMeasurement, RollbackPolicy, DOMAIN_REPLAY};
pub use symptom::{Symptom, SymptomConfig};
