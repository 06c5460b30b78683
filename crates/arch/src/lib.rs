//! # restore-arch
//!
//! Architectural (functional) simulator for the ReStore reproduction.
//!
//! This crate plays two roles from the paper:
//!
//! 1. The **virtual machine** of §3.1 — "an instruction set simulator …
//!    to remove any hardware implementation specific effects" — on which
//!    the Figure 2 fault-injection campaign runs.
//! 2. The **golden architectural reference** of §4.2 — the
//!    microarchitectural pipeline's retirement stream is checked against
//!    this model to detect when an injected fault corrupts software-visible
//!    state.
//!
//! The pieces: [`Memory`] (sparse 64-bit paged address space with
//! permissions), [`Exception`] (precise ISA exceptions — a headline
//! ReStore symptom), [`alu`] (operation semantics shared with the
//! pipeline), [`execute`] (the ISA's instruction semantics over any
//! [`ExecState`]), [`Cpu`] (the stepper, running [`execute`] on its own
//! state from a once-decoded text and emitting a [`Retired`] event per
//! instruction for trace comparison), and [`state`] — the bit-addressable
//! state-visitor substrate shared by both machine models (the
//! microarchitectural crate re-exports it as `restore_uarch::state`).
//!
//! # Examples
//!
//! ```
//! use restore_arch::{Cpu, RunExit};
//! use restore_isa::{Asm, Reg, layout};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new("triangle", layout::TEXT_BASE);
//! a.clr(Reg::V0);
//! a.li(Reg::T0, 100);
//! let top = a.bind_here();
//! a.addq(Reg::V0, Reg::T0, Reg::V0);
//! a.subq_lit(Reg::T0, 1, Reg::T0);
//! a.bgt(Reg::T0, top);
//! a.mov(Reg::V0, Reg::A0);
//! a.outq();
//! a.halt();
//! let mut cpu = Cpu::new(&a.finish()?);
//! assert_eq!(cpu.run(10_000)?, RunExit::Halted);
//! assert_eq!(cpu.output(), &[5050]);
//! # Ok(())
//! # }
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

pub mod alu;
mod cpu;
mod exception;
mod mem;
pub mod state;

pub use cpu::{
    effective_address, execute, BranchEffect, Cpu, ExecState, MemEffect, RegFile, Retired, RunExit,
};
pub use exception::Exception;
pub use mem::{AccessKind, MemError, Memory, Perm, PAGE_SIZE};
pub use state::{FaultState, FieldClass, StateCatalog, StateKind, StateVisitor};
