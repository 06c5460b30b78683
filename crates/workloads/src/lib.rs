//! # restore-workloads
//!
//! Synthetic SPEC2000-integer-analogue workloads for the ReStore
//! reproduction.
//!
//! The paper drives its fault-injection campaigns with seven SPEC2000
//! integer benchmarks (bzip2, gap, gcc, gzip, mcf, parser, vortex). SPEC
//! binaries and reference inputs are not redistributable, so this crate
//! provides seven **from-scratch kernels that mimic each benchmark's hot
//! loops** — the properties that matter for symptom-based detection are
//! preserved (see `DESIGN.md`):
//!
//! * pointer-heavy address arithmetic against a sparse 64-bit address
//!   space (corrupted pointers fault),
//! * SPECint-like conditional-branch density (~10–20%) with realistic
//!   taken/not-taken behaviour (control-flow symptoms),
//! * data-dependent loop trip counts (mispredictions happen),
//! * calls/returns and indirect jumps (RAS and BTB pressure).
//!
//! Every kernel has a pure-Rust mirror (`expected`) and a unit test
//! asserting the assembled program computes the identical checksum, so the
//! assembly semantics are pinned exactly.
//!
//! # Examples
//!
//! ```
//! use restore_workloads::{Scale, WorkloadId};
//! use restore_arch::Cpu;
//! let program = WorkloadId::Mcfx.build(Scale::smoke());
//! let mut cpu = Cpu::new(&program);
//! cpu.run(1_000_000).unwrap();
//! assert!(cpu.is_halted());
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

pub mod bzip2x;
pub mod gapx;
pub mod gccx;
pub mod gzipx;
pub mod mcfx;
pub mod mix;
pub mod parserx;
pub mod synthetic;
mod util;
pub mod vortexx;

pub use mix::{measure, InstMix};
pub use util::{compressible_bytes, permutation, rng, words_to_bytes};

use restore_isa::Program;

/// Workload scale: data-structure size and RNG seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Size knob, interpreted per workload (node count, buffer length,
    /// key count, expression count, ...).
    pub size: usize,
    /// Seed for deterministic data generation.
    pub seed: u64,
}

impl Scale {
    /// Small scale for unit tests: runs in a few thousand instructions.
    pub fn smoke() -> Scale {
        Scale { size: 48, seed: 0x5eed }
    }

    /// Campaign scale: long enough that a 10 000-cycle observation window
    /// starting anywhere in the steady state stays busy.
    pub fn campaign() -> Scale {
        Scale { size: 256, seed: 0x5eed }
    }

    /// Same scale, different data seed.
    pub fn with_seed(self, seed: u64) -> Scale {
        Scale { seed, ..self }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::campaign()
    }
}

/// Identifier for each SPEC2000int-analogue kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadId {
    /// Counting sort + move-to-front coding (`bzip2`).
    Bzip2x,
    /// Permutation composition + multi-limb arithmetic (`gap`).
    Gapx,
    /// Tree walking with indirect dispatch (`gcc`).
    Gccx,
    /// LZ77 window match search (`gzip`).
    Gzipx,
    /// Linked-list network arc scanning (`mcf`).
    Mcfx,
    /// Recursive-descent expression parsing (`parser`).
    Parserx,
    /// Hash-table object store (`vortex`).
    Vortexx,
}

impl WorkloadId {
    /// All seven kernels, in the paper's alphabetical order.
    pub const ALL: [WorkloadId; 7] = [
        WorkloadId::Bzip2x,
        WorkloadId::Gapx,
        WorkloadId::Gccx,
        WorkloadId::Gzipx,
        WorkloadId::Mcfx,
        WorkloadId::Parserx,
        WorkloadId::Vortexx,
    ];

    /// Kernel name (matches the program's `name` field).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Bzip2x => "bzip2x",
            WorkloadId::Gapx => "gapx",
            WorkloadId::Gccx => "gccx",
            WorkloadId::Gzipx => "gzipx",
            WorkloadId::Mcfx => "mcfx",
            WorkloadId::Parserx => "parserx",
            WorkloadId::Vortexx => "vortexx",
        }
    }

    /// Builds the kernel at the given scale.
    pub fn build(self, scale: Scale) -> Program {
        match self {
            WorkloadId::Bzip2x => bzip2x::build(scale.size, scale.seed),
            WorkloadId::Gapx => gapx::build(scale.size, scale.seed),
            WorkloadId::Gccx => gccx::build(scale.size, scale.seed),
            WorkloadId::Gzipx => gzipx::build(scale.size, scale.seed),
            WorkloadId::Mcfx => mcfx::build(scale.size, scale.seed),
            WorkloadId::Parserx => parserx::build(scale.size, scale.seed),
            WorkloadId::Vortexx => vortexx::build(scale.size, scale.seed),
        }
    }

    /// The Rust-mirror checksum the built kernel must output.
    pub fn expected(self, scale: Scale) -> u64 {
        match self {
            WorkloadId::Bzip2x => bzip2x::expected(scale.size, scale.seed),
            WorkloadId::Gapx => gapx::expected(scale.size, scale.seed),
            WorkloadId::Gccx => gccx::expected(scale.size, scale.seed),
            WorkloadId::Gzipx => gzipx::expected(scale.size, scale.seed),
            WorkloadId::Mcfx => mcfx::expected(scale.size, scale.seed),
            WorkloadId::Parserx => parserx::expected(scale.size, scale.seed),
            WorkloadId::Vortexx => vortexx::expected(scale.size, scale.seed),
        }
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds all seven kernels at one scale.
pub fn build_all(scale: Scale) -> Vec<Program> {
    WorkloadId::ALL.iter().map(|id| id.build(scale)).collect()
}

/// Instruction budget for [`run_length`]'s probe run; every kernel at
/// every supported scale halts well inside it.
const RUN_LENGTH_BUDGET: u64 = 5_000_000;

/// Retired-instruction count of `id`'s fault-free run at `scale`,
/// memoized per `(WorkloadId, Scale)` for the life of the process.
///
/// Campaign planners need the run length to place injection points; the
/// probe costs millions of simulated instructions, so repeated
/// campaigns (test suites, figure binaries sharing a process) would
/// otherwise re-execute it on every invocation. The probe is
/// deterministic, so caching cannot change any planned point.
///
/// # Panics
///
/// Panics if the kernel faults (workloads are exception-free by
/// construction).
pub fn run_length(id: WorkloadId, scale: Scale) -> u64 {
    use std::sync::{Mutex, OnceLock};
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only; the cache is never iterated for output"
    )]
    static CACHE: OnceLock<Mutex<std::collections::HashMap<(WorkloadId, Scale), u64>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(&len) = cache.lock().unwrap().get(&(id, scale)) {
        return len;
    }
    // Probe outside the lock: a minutes-long hold would serialize every
    // concurrent campaign. A racing duplicate probe computes the same
    // deterministic value, so last-write-wins is harmless.
    let mut probe = restore_arch::Cpu::new(&id.build(scale));
    probe.run(RUN_LENGTH_BUDGET).expect("workloads are exception-free");
    let len = probe.retired();
    cache.lock().unwrap().insert((id, scale), len);
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_arch::{Cpu, RunExit};

    /// The master correctness check: every kernel at two scales and two
    /// seeds matches its Rust mirror exactly.
    #[test]
    fn all_kernels_match_their_mirrors() {
        for id in WorkloadId::ALL {
            for scale in [Scale::smoke(), Scale::smoke().with_seed(99)] {
                let p = id.build(scale);
                assert_eq!(p.name, id.name());
                let mut cpu = Cpu::new(&p);
                assert_eq!(cpu.run(20_000_000).unwrap(), RunExit::Halted, "{id} did not halt");
                assert_eq!(cpu.output(), &[id.expected(scale)], "{id} checksum");
            }
        }
    }

    #[test]
    fn campaign_scale_runs_long_enough() {
        // Trials observe 10k cycles ≈ tens of thousands of instructions;
        // kernels must not halt almost immediately at campaign scale.
        for id in WorkloadId::ALL {
            let p = id.build(Scale::campaign());
            let mut cpu = Cpu::new(&p);
            cpu.run(30_000).unwrap();
            assert!(!cpu.is_halted(), "{id} halted before 30k instructions at campaign scale");
        }
    }

    #[test]
    fn run_length_is_memoized_and_matches_a_fresh_probe() {
        let id = WorkloadId::Mcfx;
        let scale = Scale::smoke();
        let cached = run_length(id, scale);
        let mut probe = Cpu::new(&id.build(scale));
        assert_eq!(probe.run(5_000_000).unwrap(), RunExit::Halted);
        assert_eq!(cached, probe.retired());
        // Second call must serve the cache (same value either way; this
        // pins the (id, scale) key covering both fields).
        assert_eq!(run_length(id, scale), cached);
        assert_ne!(run_length(id, Scale::smoke().with_seed(99)), 0);
    }

    #[test]
    fn build_all_builds_seven() {
        let all = build_all(Scale::smoke());
        assert_eq!(all.len(), 7);
        let names: std::collections::HashSet<_> = all.iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), 7);
    }
}
