//! # restore-uarch
//!
//! Cycle-level out-of-order microarchitectural simulator with
//! bit-addressable, fault-injectable state — the substrate for the
//! ReStore paper's fault-injection campaigns (§4–5).
//!
//! The modelled core follows the paper's Figure 3: a superscalar,
//! dynamically scheduled pipeline in the Alpha 21264 / AMD Athlon class —
//! 4-wide fetch/decode/rename, a 32-entry fetch queue, a 32-entry
//! scheduler issuing up to 6 instructions per cycle (3 ALU, 1 branch,
//! 2 address-generation), a 64-entry reorder buffer, 128 physical
//! registers with a hardware free list, per-branch shadow register alias
//! tables (the branch order buffer), a load/store queue with
//! store-to-load forwarding, a McFarling combining branch predictor with
//! BTB + return address stack, the **JRS confidence estimator** that
//! powers ReStore's high-confidence-misprediction symptom, L1
//! caches/TLBs, and a retirement watchdog for deadlock detection.
//!
//! Two properties make it usable for the paper's experiments:
//!
//! 1. **Architectural exactness** — fault-free, the pipeline retires the
//!    same instruction stream (PCs, register writes, memory effects,
//!    outputs) as [`restore_arch::Cpu`]; lockstep tests enforce this over
//!    every workload.
//! 2. **Bit-addressable state** — every latch and RAM structure
//!    enumerates its bits through the [`state`] framework, so a campaign
//!    can flip any single state bit ([`Pipeline::flip_bit`]), hash all
//!    state for golden-run masking comparisons
//!    ([`Pipeline::state_hash`]), and reason about latch/RAM and
//!    parity/ECC protection domains ([`Pipeline::catalog`]).
//!
//! # Examples
//!
//! ```
//! use restore_uarch::{Pipeline, Stop, UarchConfig};
//! use restore_workloads::{Scale, WorkloadId};
//!
//! let program = WorkloadId::Mcfx.build(Scale::smoke());
//! let mut pipe = Pipeline::new(UarchConfig::default(), &program);
//! while pipe.status() == Stop::Running {
//!     pipe.cycle();
//! }
//! assert_eq!(pipe.status(), Stop::Halted);
//! assert_eq!(pipe.output().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod config;
mod pipeline;
pub mod predict;
pub mod queues;
pub mod state;
pub mod uop;

pub use config::UarchConfig;
pub use pipeline::{role_of, CycleReport, MispredictEvent, Pipeline, Stop};
pub use state::{
    FaultState, FieldClass, Fingerprint, MaskRecorder, OccupancyRecorder, StateCatalog, StateKind,
    StateRegion,
};
